"""Job scheduling delay (paper figure 10, section 6.3).

The metric: time from a job becoming *ready* (entering the pending
state — after any deliberate batch-queue delay) to its **first** task
running.  The paper picked first-task latency because Borg starts a job
as soon as any task runs.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.analysis.common import merge_monitoring_tier
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
    jobs that never started.
    """
    ce = trace.collection_events
    ie = trace.instance_events
    ready: Dict[int, float] = {}
    tier_of: Dict[int, str] = {}
    is_job: Dict[int, bool] = {}
    c_ids = ce.column("collection_id").values
    c_types = ce.column("type").values
    c_times = ce.column("time").values
    c_kinds = ce.column("collection_type").values
    c_tiers = merge_monitoring_tier(ce.column("tier").values)
    for i in range(len(ce)):
        cid = int(c_ids[i])
        if c_types[i] == "SUBMIT":
            ready.setdefault(cid, float(c_times[i]))
            tier_of[cid] = c_tiers[i]
            is_job[cid] = c_kinds[i] == "job"
        elif c_types[i] == "ENABLE":
            # ENABLE supersedes SUBMIT: the batch queue wait is deliberate
            # and excluded from the metric.
            ready[cid] = float(c_times[i])

    first_run: Dict[int, float] = {}
    i_ids = ie.column("collection_id").values
    i_types = ie.column("type").values
    i_times = ie.column("time").values
    for i in range(len(ie)):
        if i_types[i] == "SCHEDULE":
            cid = int(i_ids[i])
            t = float(i_times[i])
            if cid not in first_run or t < first_run[cid]:
                first_run[cid] = t

    cutoff = skip_warmup_hours * HOUR_SECONDS
    rows = {"collection_id": [], "tier": [], "delay": []}
    for cid, t_ready in ready.items():
        if not is_job.get(cid, False) or cid not in first_run:
            continue
        if t_ready < cutoff:
            continue
        rows["collection_id"].append(cid)
        rows["tier"].append(tier_of[cid])
        rows["delay"].append(max(0.0, first_run[cid] - t_ready))
    return Table(rows)


def delay_ccdf_by_tier(traces: Sequence[TraceDataset]) -> Dict[str, Ccdf]:
    """Figure 10b: delay CCDF per tier, aggregated across cells."""
    pooled: Dict[str, List[float]] = {}
    for trace in traces:
        table = scheduling_delays(trace)
        tiers = table.column("tier").values
        delays = table.column("delay").values
        for tier, delay in zip(tiers, delays):
            pooled.setdefault(tier, []).append(float(delay))
    return {tier: empirical_ccdf(values) for tier, values in pooled.items()
            if len(values) > 0}


def median_delay(trace: TraceDataset) -> float:
    """Median first-task scheduling delay for one cell, seconds."""
    delays = scheduling_delays(trace).column("delay").values
    return float(np.median(delays)) if len(delays) else 0.0
