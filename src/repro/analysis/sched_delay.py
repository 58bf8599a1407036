"""Job scheduling delay (paper figure 10, section 6.3).

The metric: time from a job becoming *ready* (entering the pending
state — after any deliberate batch-queue delay) to its **first** task
running.  The paper picked first-task latency because Borg starts a job
as soon as any task runs.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.analysis.common import fold_monitoring, lookup, memoised, split_by
from repro.stats.ccdf import Ccdf, empirical_ccdf
from repro.table import Table
from repro.trace.dataset import TraceDataset
from repro.util.timeutil import HOUR_SECONDS


def scheduling_delays(trace: TraceDataset,
                      skip_warmup_hours: float = 1.0) -> Table:
    """Per-job (collection_id, tier, delay_seconds).

    Ready time is the ENABLE event when one exists (batch-queued jobs)
    and the SUBMIT event otherwise; first-running is the earliest
    SCHEDULE among the job's instances.  Jobs submitted in the first
    ``skip_warmup_hours`` are dropped (warm-start artifacts), as are
    jobs that never started.  Rows are in order of each job's first
    SUBMIT or ENABLE event.  Memoised per trace; the table's arrays are
    read-only.
    """
    return memoised(
        trace, ("scheduling_delays", skip_warmup_hours),
        ("collection_events", "instance_events"),
        lambda: _scheduling_delays(trace, skip_warmup_hours))


def _scheduling_delays(trace: TraceDataset, skip_warmup_hours: float) -> Table:
    ce = trace.collection_events
    n = len(ce)
    c_times = ce.column("time").values
    collections, slot = np.unique(ce.column("collection_id").values,
                                  return_inverse=True)
    rows = np.arange(n)

    def first_row(mask: np.ndarray) -> np.ndarray:
        out = np.full(len(collections), n)
        np.minimum.at(out, slot[mask], rows[mask])
        return out

    def last_row(mask: np.ndarray) -> np.ndarray:
        out = np.full(len(collections), -1)
        np.maximum.at(out, slot[mask], rows[mask])
        return out

    types = ce.column("type")
    submit = types == "SUBMIT"
    enable = types == "ENABLE"
    # Jobs in order of the row that first set their ready time.
    first = first_row(submit | enable)
    seen = np.flatnonzero(first < n)
    jobs = seen[np.argsort(first[seen], kind="stable")]
    # The latest SUBMIT names the tier and the kind.  ENABLE supersedes
    # SUBMIT as the ready time: the batch queue wait is deliberate and
    # excluded from the metric.
    last_submit = last_row(submit)[jobs]
    last_enable = last_row(enable)[jobs]
    first_submit = np.minimum(first_row(submit)[jobs], n - 1)
    is_job = (last_submit >= 0) \
        & (ce.column("collection_type") == "job")[last_submit]
    ready = np.where(last_enable >= 0, c_times[last_enable],
                     c_times[first_submit])

    ie = trace.instance_events
    scheduled = ie.column("type") == "SCHEDULE"
    i_slot, known = lookup(ie.column("collection_id").values[scheduled],
                           collections)
    first_run = np.full(len(collections), np.inf)
    np.minimum.at(first_run, i_slot[known],
                  ie.column("time").values[scheduled][known])
    ran = np.bincount(i_slot[known], minlength=len(collections)) > 0

    cutoff = skip_warmup_hours * HOUR_SECONDS
    keep = is_job & ran[jobs] & ~(ready < cutoff)
    delay = first_run[jobs[keep]] - ready[keep]
    return Table({
        "collection_id": collections[jobs[keep]],
        "tier": fold_monitoring(ce.column("tier"))[last_submit[keep]],
        "delay": np.where(delay > 0, delay, 0.0),
    })


def delay_ccdf_by_tier(traces: Sequence[TraceDataset]) -> Dict[str, Ccdf]:
    """Figure 10b: delay CCDF per tier, aggregated across cells."""
    pooled: Dict[str, List[np.ndarray]] = {}
    for trace in traces:
        table = scheduling_delays(trace)
        if len(table) == 0:
            continue
        groups = split_by(table.column("tier"), table.column("delay").values)
        for tier, delays in groups.items():
            pooled.setdefault(tier, []).append(delays)
    return {tier: empirical_ccdf(np.concatenate(parts))
            for tier, parts in pooled.items()}


def median_delay(trace: TraceDataset) -> float:
    """Median first-task scheduling delay for one cell, seconds."""
    delays = scheduling_delays(trace).column("delay").values
    return float(np.median(delays)) if len(delays) else 0.0
