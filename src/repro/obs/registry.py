"""The process-local metrics registry and the module-global current one.

One :class:`MetricsRegistry` holds everything the observability layer
records in this process: monotonically-increasing **counters**,
last-value **gauges**, log-bucketed **timers** (value histograms with
p50/p95/p99), and the aggregated **span tree**.  All of it is cheap,
allocation-light, and synchronous — the hot paths it instruments (the
simulator event loop, the store chunk pipeline) pay one dict lookup or
one integer add per record.

There is always a *current* registry (:func:`get_registry`); library
code records into it unconditionally, so instrumentation has no on/off
state to thread through APIs.  :func:`scoped_registry` swaps in a fresh
registry for a ``with`` block and is the fork-safety primitive: the
store executor runs each worker-side chunk task inside one, ships the
resulting :class:`~repro.obs.snapshot.Snapshot` home with the payload,
and the parent merges it exactly once via :meth:`MetricsRegistry.merge_snapshot`.

The registry is deliberately not thread-safe: the simulator and the
store executor are single-threaded per process (parallelism is by
``multiprocessing``), and taking a lock per counter increment would
cost more than the metrics themselves.
"""

from __future__ import annotations

import contextlib
from typing import Dict, Iterator, Optional

from repro.obs.snapshot import Snapshot
from repro.obs.spans import Span, SpanTree
from repro.obs.timing import TimingHistogram


class Counter:
    """A monotonically-increasing integer; handles are stable objects so
    hot loops can bind one once and skip the name lookup per event."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def __repr__(self) -> str:
        return f"Counter({self.value})"


class MetricsRegistry:
    """Counters + gauges + timers + the span tree for one process."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, float] = {}
        self._timers: Dict[str, TimingHistogram] = {}
        self.spans = SpanTree()

    # -- counters ------------------------------------------------------------

    def counter(self, name: str) -> Counter:
        """The named counter handle (created at zero on first use)."""
        counter = self._counters.get(name)
        if counter is None:
            counter = Counter()
            self._counters[name] = counter
        return counter

    def inc(self, name: str, n: int = 1) -> None:
        self.counter(name).inc(n)

    # -- gauges ----------------------------------------------------------------

    def gauge(self, name: str, value: float) -> None:
        """Set a last-value gauge (queue depth, pool size, ...)."""
        self._gauges[name] = float(value)

    # -- timers ----------------------------------------------------------------

    def timer(self, name: str, unit: str = "seconds") -> TimingHistogram:
        """The named value histogram (created empty on first use).

        A histogram keeps the unit it was created with; asking for it
        under another unit is an error, not a silent relabel.
        """
        timer = self._timers.get(name)
        if timer is None:
            timer = TimingHistogram(unit)
            self._timers[name] = timer
        elif timer.unit != unit:
            raise ValueError(f"histogram {name!r} holds {timer.unit}, "
                             f"not {unit}")
        return timer

    def observe(self, name: str, value: float, unit: str = "seconds") -> None:
        self.timer(name, unit).observe(value)

    # -- spans -----------------------------------------------------------------

    def span(self, name: str) -> Span:
        """``with registry.span("sim.round"):`` — see :class:`~repro.obs.spans.Span`."""
        return Span(name, registry=self)

    # -- snapshot / merge ------------------------------------------------------

    def snapshot(self) -> Snapshot:
        """This registry's state as plain (picklable) data."""
        return Snapshot(
            counters={name: c.value for name, c in self._counters.items()},
            gauges=dict(self._gauges),
            timers={name: t.to_dict() for name, t in self._timers.items()},
            spans=self.spans.root.to_dict(),
        )

    def merge_snapshot(self, snapshot: Snapshot) -> None:
        """Fold a child snapshot in (exactly once per snapshot).

        Counters add, gauges take the snapshot's value (merge order is
        task order, hence deterministic), timers merge bucket-wise, and
        the snapshot's span children graft under the *currently open*
        span — so work recorded by a child process appears inside the
        parent span that dispatched it.
        """
        for name, value in snapshot.counters.items():
            if value:
                self.inc(name, value)
        for name, value in snapshot.gauges.items():
            self._gauges[name] = value
        for name, data in snapshot.timers.items():
            incoming_timer = TimingHistogram.from_dict(data)
            self.timer(name, incoming_timer.unit).merge(incoming_timer)
        incoming = snapshot.span_root()
        target = self.spans.current
        for name, child in incoming.children.items():
            target.child(name).merge(child)

    def reset(self) -> None:
        """Drop every metric and start a fresh span tree."""
        self._counters.clear()
        self._gauges.clear()
        self._timers.clear()
        self.spans = SpanTree()


#: The module-global current registry; swap with scoped_registry().
_CURRENT = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The registry all module-level helpers record into right now."""
    return _CURRENT


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Install ``registry`` as current; returns the previous one."""
    global _CURRENT
    previous = _CURRENT
    _CURRENT = registry
    return previous


@contextlib.contextmanager
def scoped_registry(registry: Optional[MetricsRegistry] = None
                    ) -> Iterator[MetricsRegistry]:
    """Swap in a fresh (or given) registry for the duration of the block.

    Used by tests that need isolation and by the store executor's
    worker-side task wrapper, where it guarantees a child task's metrics
    are exactly the delta of that task — even under ``fork`` start
    methods, where the child begins with a *copy* of the parent's
    registry that must not be re-counted on merge.
    """
    fresh = registry if registry is not None else MetricsRegistry()
    previous = set_registry(fresh)
    try:
        yield fresh
    finally:
        set_registry(previous)
