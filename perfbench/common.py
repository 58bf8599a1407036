"""What every workload shares: the run context and operation accounting."""

from __future__ import annotations

import hashlib
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional

from checks import check_report_digest, report_sections
from tracer import Tracer, peak_rss_mb

from repro import obs
from repro.store import open_store


class Ops:
    """Attempted and failed operations of a run.

    An operation is a cell stage (simulate, encode, write, read), a
    report render, a query, or an output check.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    @contextmanager
    def op(self, what: str, n: int = 1) -> Iterator[None]:
        """``n`` operations done by one call; all fail if it raises."""
        self.attempted += n
        try:
            yield
        except Exception:
            self.failed += n
            print(f"perfbench: {what} failed", file=sys.stderr)
            raise

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: check failed: {message}", file=sys.stderr)
        return ok


@dataclass
class Ctx:
    workload: str
    seed: int
    scale: str
    tracer: Tracer
    work_dir: Path
    state_file: Path
    source_key: str
    ops: Ops = field(default_factory=Ops)
    #: Index of the current (set-up, timed region) iteration.
    iteration: int = 0
    #: Counts the workload reports for the current iteration.
    layer: Dict[str, float] = field(default_factory=dict)
    #: Peak RSS (MB) when the timed program work ended, if marked.
    peak_mb: Optional[float] = None
    #: Per query kind: latencies (s) of the current iteration.
    latencies: Dict[str, List[float]] = field(default_factory=dict)
    #: Report digests seen in this run.
    report_digests: List[str] = field(default_factory=list)

    def mark_peak(self) -> None:
        """Take the timed region's peak RSS now, before untimed checks."""
        self.peak_mb = peak_rss_mb()

    def cache_stats(self, hits: int, misses: int, evictions: int) -> None:
        self.layer["store.cache_hits"] = hits
        self.layer["store.cache_lookups"] = hits + misses
        self.layer["store.cache_evictions"] = evictions

    def check_report(self, text: str, n_sections: int) -> None:
        """Every section rendered a header; the digest matches this run's
        other iterations and earlier runs of the same sources and seed."""
        titles = report_sections(text)
        self.ops.check(len(titles) >= n_sections and len(set(titles)) == len(titles),
                       f"report has {len(titles)} distinct section headers, "
                       f"expected {n_sections}")
        digest = hashlib.sha256(text.encode()).hexdigest()
        key = f"{self.source_key}:{self.workload}:{self.scale}:{self.seed}"
        same = all(d == digest for d in self.report_digests) and \
            check_report_digest(self.state_file, key, digest)
        self.ops.check(same, "report digest differs between runs at the same seed")
        self.report_digests.append(digest)


def sim_counters(ctx: Ctx, counters: list) -> None:
    """Sum the simulator's SimCounters of every cell into the layer counts,
    plus the events it processed (an obs counter, reset per iteration)."""
    total = lambda name: sum(getattr(c, name) for c in counters)  # noqa: E731
    ctx.layer.update({
        "sim.events": obs.snapshot().counters.get("sim.events_processed", 0),
        "faults.outages": total("fault_machine_outages"),
        "faults.resubmissions": total("resubmissions"),
        "faults.resubmit_exhausted": total("resubmit_chain_exhausted")
        + total("resubmit_budget_exhausted"),
        "sim.evictions": total("evictions"),
        "sim.task_restarts": total("task_restarts"),
        "sim.preemption_victims": total("preemption_victims"),
        "sim.schedules": total("schedule_events"),
        "sim.reschedules": total("reschedule_events"),
    })


def count_store(ctx: Ctx, dirs: List[Path], rows: int) -> None:
    """Rows, on-disk bytes and chunk count of the stores just written.

    ``rows`` is the size of the workload's data: the end-to-end times
    are reported per row of it, because the simulated cells' sizes vary
    by tens of percent from seed to seed.
    """
    nbytes = sum(p.stat().st_size for d in dirs for p in d.rglob("*")
                 if p.is_file())
    chunks = 0
    for d in dirs:
        manifest = open_store(d).manifest
        chunks += sum(len(manifest.chunks(t)) for t in manifest.table_names)
    ctx.layer["rows"] = rows
    ctx.layer["store.bytes"] = nbytes
    ctx.layer["store.chunks"] = chunks
    ctx.layer["store.bytes_per_row"] = nbytes / rows
