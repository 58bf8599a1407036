"""Batch-queue behavior (paper sections 3 and 6.3's queued-state note).

Figure 10 deliberately measures scheduling delay from the *ready* state,
excluding the batch scheduler's deliberate queueing; this module
measures what was excluded: how long best-effort-batch jobs wait in the
QUEUED state, how many jobs queue at all, and the queue depth over time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from repro.stats.ccdf import Ccdf, empirical_ccdf
from repro.trace.dataset import TraceDataset
from repro.util.timeutil import HOUR_SECONDS


def _preceding(ids: np.ndarray) -> np.ndarray:
    """For each row, the index of the previous row with the same id
    (-1 for an id's first row)."""
    order = np.argsort(ids, kind="stable")
    same = ids[order][1:] == ids[order][:-1]
    prev = np.full(len(ids), -1)
    prev[order[1:][same]] = order[:-1][same]
    return prev


def _queue_exits(trace: TraceDataset, exits: Sequence[str]):
    """(QUEUE row, exit row) pairs: each exit event whose collection's
    previous QUEUE-or-exit event is a QUEUE (a later QUEUE restarts the
    wait), plus the QUEUE rows no event follows (still queued)."""
    ce = trace.collection_events
    types = ce.column("type")
    queue = types == "QUEUE"
    rows = np.flatnonzero(queue | types.isin(exits))
    prev = _preceding(ce.column("collection_id").values[rows])
    is_queue = queue[rows]
    paired = ~is_queue & (prev >= 0) & is_queue[prev]
    followed = np.zeros(len(rows), dtype=bool)
    followed[prev[prev >= 0]] = True
    return rows[prev[paired]], rows[paired], rows[is_queue & ~followed]


def queue_waits(trace: TraceDataset) -> np.ndarray:
    """QUEUE -> ENABLE wait per batch-queued collection, seconds.

    Collections still queued at the horizon are censored (excluded),
    like every duration statistic over a finite trace window.  Waits are
    in order of their ENABLE events.
    """
    times = trace.collection_events.column("time").values
    entered, enabled, _ = _queue_exits(trace, ("ENABLE",))
    return times[enabled] - times[entered]


def queue_wait_ccdf(traces: Sequence[TraceDataset]) -> Ccdf:
    """Pooled CCDF of batch-queue waits across cells."""
    pooled = [queue_waits(t) for t in traces]
    pooled = [w for w in pooled if w.size]
    if not pooled:
        raise ValueError("no batch-queued collections in these traces")
    return empirical_ccdf(np.concatenate(pooled))


def queue_depth_series(trace: TraceDataset) -> np.ndarray:
    """Number of collections sitting in the queue, sampled hourly."""
    n_hours = int(np.ceil(trace.horizon / HOUR_SECONDS))
    delta = np.zeros(n_hours + 1)
    times = trace.collection_events.column("time").values
    entered, left, still = _queue_exits(
        trace, ("ENABLE", "KILL", "FINISH", "FAIL", "EVICT"))
    start_h = (times[entered] / HOUR_SECONDS).astype(np.int64)
    end_h = np.minimum((times[left] / HOUR_SECONDS).astype(np.int64), n_hours - 1)
    np.add.at(delta, start_h, 1)
    np.add.at(delta, end_h + 1, -1)
    # Still-queued collections occupy the queue to the horizon.
    np.add.at(delta, (times[still] / HOUR_SECONDS).astype(np.int64), 1)
    return np.cumsum(delta[:n_hours])


@dataclass(frozen=True)
class BatchQueueReport:
    """Headline batch-queue statistics for a set of cells."""

    queued_fraction_of_beb_jobs: float
    median_wait_seconds: float
    p90_wait_seconds: float
    max_queue_depth: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "beb jobs that waited in the queue": self.queued_fraction_of_beb_jobs,
            "median queue wait (s)": self.median_wait_seconds,
            "90%ile queue wait (s)": self.p90_wait_seconds,
            "max queue depth (collections)": self.max_queue_depth,
        }


def batch_queue_report(traces: Sequence[TraceDataset]) -> BatchQueueReport:
    n_beb = 0
    n_queued = 0
    waits = []
    depth = 0.0
    for trace in traces:
        ce = trace.collection_events
        types = ce.column("type")
        tiers = ce.column("tier")
        kinds = ce.column("collection_type")
        n_beb += int(((types == "SUBMIT") & (tiers == "beb")
                      & (kinds == "job")).sum())
        n_queued += int((types == "QUEUE").sum())
        w = queue_waits(trace)
        if w.size:
            waits.append(w)
        series = queue_depth_series(trace)
        if series.size:
            depth = max(depth, float(series.max()))
    pooled = np.concatenate(waits) if waits else np.zeros(1)
    return BatchQueueReport(
        queued_fraction_of_beb_jobs=n_queued / n_beb if n_beb else 0.0,
        median_wait_seconds=float(np.median(pooled)),
        p90_wait_seconds=float(np.percentile(pooled, 90)),
        max_queue_depth=depth,
    )
