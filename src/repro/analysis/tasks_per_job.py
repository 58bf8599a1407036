"""Tasks per job by tier (paper figure 11).

Best-effort batch and mid-tier jobs are far wider than free/production
jobs: the paper's 95%%iles are 498 (beb), 67 (mid), 21 (free), 3 (prod),
which is its explanation for their longer scheduling delays.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.analysis.common import fold_monitoring, split_by
from repro.stats.ccdf import Ccdf, empirical_ccdf
from repro.trace.dataset import TraceDataset


def tasks_per_job(trace: TraceDataset) -> Dict[str, np.ndarray]:
    """Per-tier arrays of job widths (number of tasks), jobs only.

    Each job counts once, at its first SUBMIT; tiers appear in order of
    their first job.
    """
    ce = trace.collection_events
    rows = np.flatnonzero((ce.column("type") == "SUBMIT")
                          & (ce.column("collection_type") == "job"))
    _, first = np.unique(ce.column("collection_id").values[rows],
                         return_index=True)
    rows = rows[np.sort(first)]
    return split_by(fold_monitoring(ce.column("tier"))[rows],
                    ce.column("num_instances").values[rows])


def tasks_per_job_ccdf(traces: Sequence[TraceDataset]) -> Dict[str, Ccdf]:
    """Figure 11: CCDF of tasks/job per tier, pooled across cells."""
    pooled: Dict[str, List[np.ndarray]] = {}
    for trace in traces:
        for tier, values in tasks_per_job(trace).items():
            pooled.setdefault(tier, []).append(values)
    return {tier: empirical_ccdf(np.concatenate(chunks))
            for tier, chunks in pooled.items()}


def width_percentiles(traces: Sequence[TraceDataset],
                      percentiles: Sequence[float] = (80, 95)) -> Dict[str, Dict[float, float]]:
    """The quoted per-tier percentiles (80%%ile and 95%%ile by default)."""
    ccdfs = tasks_per_job_ccdf(traces)
    out: Dict[str, Dict[float, float]] = {}
    for tier, ccdf in ccdfs.items():
        out[tier] = {p: ccdf.quantile_of_exceedance(1.0 - p / 100.0)
                     for p in percentiles}
    return out
