"""Placement-constraint analysis (a new 2019 trace feature, paper §1/§3).

The 2019 trace exposes machine-attribute placement constraints.  This
module measures their prevalence, verifies satisfaction (every scheduled
task of a constrained job runs on a matching platform), and quantifies
their scheduling cost: constrained jobs can only use a slice of the
cell, so they queue longer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.analysis.common import last_of_each, lookup
from repro.analysis.sched_delay import scheduling_delays
from repro.table import Column
from repro.trace.dataset import TraceDataset


@dataclass(frozen=True)
class ConstraintReport:
    """Prevalence, satisfaction, and delay impact of constraints."""

    constrained_job_fraction: float
    constraints_by_platform: Dict[str, int]
    satisfied_fraction: float
    median_delay_constrained: float
    median_delay_unconstrained: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "jobs with a placement constraint": self.constrained_job_fraction,
            "constrained placements satisfied": self.satisfied_fraction,
            "median delay, constrained (s)": self.median_delay_constrained,
            "median delay, unconstrained (s)": self.median_delay_unconstrained,
        }


def _constraints_of(trace: TraceDataset) -> Tuple[np.ndarray, Column]:
    """Constrained jobs: their sorted ids and, for each, the constraint
    of its latest SUBMIT."""
    ce = trace.collection_events
    constraint = ce.column("constraint")
    rows = np.flatnonzero((ce.column("type") == "SUBMIT")
                          & (ce.column("collection_type") == "job")
                          & (constraint != ""))
    ids, last = last_of_each(ce.column("collection_id").values[rows])
    return ids, constraint[rows[last]]


def constraint_report(traces: Sequence[TraceDataset]) -> ConstraintReport:
    n_jobs = 0
    by_platform: Dict[str, int] = {}
    satisfied = 0
    total_placements = 0
    delays_constrained: List[np.ndarray] = []
    delays_unconstrained: List[np.ndarray] = []

    for trace in traces:
        constrained, required = _constraints_of(trace)
        ce = trace.collection_events
        n_jobs += int(((ce.column("type") == "SUBMIT")
                       & (ce.column("collection_type") == "job")).sum())
        counts = np.bincount(required.codes, minlength=len(required.vocabulary))
        for platform, count in zip(required.vocabulary.tolist(), counts.tolist()):
            if count:
                by_platform[platform] = by_platform.get(platform, 0) + count

        # Each SCHEDULE of a constrained job: is its machine's platform
        # (the latest attribute row of that machine) the one required?
        ie = trace.instance_events
        scheduled = ie.column("type") == "SCHEDULE"
        slot, is_constrained = lookup(
            ie.column("collection_id").values[scheduled], constrained)
        total_placements += int(is_constrained.sum())
        attrs = trace.machine_attributes
        platform = attrs.column("platform")
        machines, last = last_of_each(attrs.column("machine_id").values)
        where, known = lookup(ie.column("machine_id").values[scheduled][is_constrained],
                              machines)
        # A constraint names a platform by its string; compare codes in
        # the attribute table's platform vocabulary.
        pos, present = lookup(required.vocabulary, platform.vocabulary)
        wanted = np.where(present, pos, -1)[required.codes[slot[is_constrained]]]
        got = platform.codes[last[where[known]]]
        satisfied += int((got == wanted[known]).sum())

        delays = scheduling_delays(trace)
        d_vals = delays.column("delay").values
        hit = np.isin(delays.column("collection_id").values, constrained)
        delays_constrained.append(d_vals[hit])
        delays_unconstrained.append(d_vals[~hit])

    n_constrained = sum(by_platform.values())
    constrained_delays = np.concatenate(delays_constrained) \
        if delays_constrained else np.zeros(0)
    unconstrained_delays = np.concatenate(delays_unconstrained) \
        if delays_unconstrained else np.zeros(0)
    return ConstraintReport(
        constrained_job_fraction=n_constrained / n_jobs if n_jobs else 0.0,
        constraints_by_platform=by_platform,
        satisfied_fraction=(satisfied / total_placements
                            if total_placements else 1.0),
        median_delay_constrained=(float(np.median(constrained_delays))
                                  if constrained_delays.size else 0.0),
        median_delay_unconstrained=(float(np.median(unconstrained_delays))
                                    if unconstrained_delays.size else 0.0),
    )
