"""Clocks, spans and the timed-region bookkeeping of the benchmark.

Spans are recorded only by the benchmark, around its calls into the
program's public functions; nothing inside the program is instrumented.
A span holds its name, start and end (wall clock), wall and CPU time,
the CPU split between this process and its reaped children (pool
workers), its parent span's id and the run id.  Spans stay in memory
and are written out once, when the run ends.

Two kinds of region exist:

* ``span(name)`` — a program call.  Recorded only while tracing is on,
  so an untraced run pays nothing for it.
* ``excluded(name)`` — benchmark work inside a timed region (result
  checks, checksums).  Always measured, because its time is subtracted
  from the region; recorded as a span too while tracing is on.

The span names start with the layer they measure (``sim.``, ``trace.``,
``store.``, ``analysis.``, ``workload.``); excluded regions start with
``bench.``.
"""

from __future__ import annotations

import ctypes
import json
import re
import resource
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

#: Layers whose self time the traced report gives, in pipeline order.
LAYERS = ("workload", "sim", "trace", "store", "analysis")


def cpu_times() -> Tuple[float, float]:
    """(CPU of this process, CPU of its reaped children), user + system."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, kids.ru_utime + kids.ru_stime


def _status_kb(field: str) -> int:
    with open("/proc/self/status") as f:
        return int(re.search(field + r":\s+(\d+)", f.read()).group(1))


def reset_peak_rss() -> float:
    """Hand freed heap back to the OS, reset this process's peak resident
    set to its current size and return that size in MB."""
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except OSError:  # not glibc: the peak then includes retained heap
        pass
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
    except OSError:  # not allowed here: the peak then counts from the start
        pass
    return _status_kb("VmRSS") / 1024.0


def peak_rss_mb() -> float:
    """Peak RSS in MB: this process since the last reset, or the largest
    reaped child, whichever is larger."""
    kids_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(_status_kb("VmHWM"), kids_kb) / 1024.0


@dataclass
class Span:
    run_id: str
    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float
    wall_s: float
    cpu_s: float
    cpu_self_s: float
    cpu_children_s: float


class Tracer:
    """Records spans (when ``enabled``) and measures excluded regions."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.enabled = False
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self.excluded_wall = 0.0
        self.excluded_cpu = 0.0

    @contextmanager
    def _record(self, name: str) -> Iterator[None]:
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        # Reserve the slot now so ids follow start order.
        self.spans.append(None)  # type: ignore[arg-type]
        self._stack.append(span_id)
        start = time.time()
        wall0 = time.perf_counter()
        own0, kids0 = cpu_times()
        try:
            yield
        finally:
            own1, kids1 = cpu_times()
            wall = time.perf_counter() - wall0
            self._stack.pop()
            self.spans[span_id] = Span(
                run_id=self.run_id, id=span_id, parent=parent, name=name,
                start=start, end=start + wall, wall_s=wall,
                cpu_s=(own1 - own0) + (kids1 - kids0),
                cpu_self_s=own1 - own0, cpu_children_s=kids1 - kids0)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        with self._record(name):
            yield

    @contextmanager
    def excluded(self, name: str) -> Iterator[None]:
        wall0 = time.perf_counter()
        cpu0 = sum(cpu_times())
        try:
            if self.enabled:
                with self._record(name):
                    yield
            else:
                yield
        finally:
            self.excluded_wall += time.perf_counter() - wall0
            self.excluded_cpu += sum(cpu_times()) - cpu0

    def write(self, path: Path) -> None:
        """Write every recorded span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(asdict(span)) + "\n")


class Region:
    """One timed region: wall and CPU (self + reaped children) between
    ``start`` and ``stop``, minus the tracer's excluded regions."""

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.root: Optional[int] = None
        self._cm = None

    def __enter__(self) -> "Region":
        t = self.tracer
        t.excluded_wall = t.excluded_cpu = 0.0
        self.root = len(t.spans) if t.enabled else None
        self._cm = t.span(self.name)
        self._cm.__enter__()
        self._wall0 = time.perf_counter()
        self._cpu0 = sum(cpu_times())
        return self

    def __exit__(self, *exc) -> None:
        cpu = sum(cpu_times()) - self._cpu0
        wall = time.perf_counter() - self._wall0
        self._cm.__exit__(*exc)
        self.wall_s = wall - self.tracer.excluded_wall
        self.cpu_s = cpu - self.tracer.excluded_cpu


def descendants(spans: List[Span], root: int) -> List[Span]:
    """Every span below ``root`` (spans are stored in start order)."""
    inside = {root}
    out = []
    for span in spans[root + 1:]:
        if span.parent in inside:
            inside.add(span.id)
            out.append(span)
    return out


def self_times(spans: List[Span], root: int, timed_cpu: float
               ) -> Dict[str, float]:
    """CPU self time per layer inside a region, plus ``unattributed``.

    A span's self time is its CPU minus its children's CPU; summed over
    a layer.  Excluded (``bench.``) regions sit directly under the
    region and are not part of its timed CPU, so they are left out.
    ``unattributed`` is the region's timed CPU minus the program spans
    directly under it, so the layer self times plus ``unattributed``
    add up to the timed CPU.
    """
    below = descendants(spans, root)
    child_cpu: Dict[int, float] = {}
    for span in below:
        child_cpu[span.parent] = child_cpu.get(span.parent, 0.0) + span.cpu_s
    out = {layer: 0.0 for layer in LAYERS}
    for span in below:
        if span.name.startswith("bench."):
            continue
        layer = span.name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + span.cpu_s - child_cpu.get(span.id, 0.0)
    top = sum(s.cpu_s for s in below
              if s.parent == root and not s.name.startswith("bench."))
    out["unattributed"] = timed_cpu - top
    return out


def span_totals(spans: List[Span], roots: List[int]) -> Dict[str, Span]:
    """Per span name under ``roots``: summed wall, CPU and CPU split."""
    totals: Dict[str, Span] = {}
    for root in roots:
        for span in [spans[root]] + descendants(spans, root):
            t = totals.get(span.name)
            if t is None:
                totals[span.name] = Span(**{**asdict(span), "parent": None})
                continue
            t.wall_s += span.wall_s
            t.cpu_s += span.cpu_s
            t.cpu_self_s += span.cpu_self_s
            t.cpu_children_s += span.cpu_children_s
    return totals
