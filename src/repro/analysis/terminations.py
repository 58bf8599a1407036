"""Termination analysis (paper section 5.2).

The paper's correction to the literature: most 2011-trace "failures"
were user-triggered kills, much of it parent-exit cascades.  Key
numbers: 87% of jobs *with* a parent end in a kill versus 41% without;
only 3.2% of collections ever see an instance eviction, 96.6% of those
in non-production tiers; <0.2% of production collections are evicted
and 52% of those only once.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from repro.analysis.common import last_of_each, lookup
from repro.table import Table
from repro.trace.dataset import TraceDataset

TERMINAL = ("FINISH", "EVICT", "KILL", "FAIL")


@dataclass(frozen=True)
class TerminationReport:
    """Section 5.2's statistics."""

    end_reason_counts: Dict[str, int]
    kill_rate_with_parent: float
    kill_rate_without_parent: float
    collections_with_evictions_fraction: float
    evicted_collections_nonprod_fraction: float
    prod_collections_evicted_fraction: float
    prod_evicted_single_eviction_fraction: float

    def as_dict(self) -> Dict[str, float]:
        out = {f"jobs ending in {k.lower()}": float(v)
               for k, v in sorted(self.end_reason_counts.items())}
        out.update({
            "kill rate (jobs with parent)": self.kill_rate_with_parent,
            "kill rate (jobs without parent)": self.kill_rate_without_parent,
            "collections with >=1 instance eviction": self.collections_with_evictions_fraction,
            "evicted collections in non-prod tiers": self.evicted_collections_nonprod_fraction,
            "prod collections with any eviction": self.prod_collections_evicted_fraction,
            "of those, exactly one eviction": self.prod_evicted_single_eviction_fraction,
        })
        return out


def _has_parent_at(ce: Table, submit: np.ndarray,
                   ending: np.ndarray) -> np.ndarray:
    """For each row of ``ending``, in row order: whether the latest
    SUBMIT of its collection before it named a parent (False when there
    was none yet)."""
    frame = np.flatnonzero(submit | ending)
    ids = ce.column("collection_id").values[frame]
    order = np.argsort(ids, kind="stable")
    frame, ids = frame[order], ids[order]
    at = np.arange(len(frame))
    latest = np.maximum.accumulate(np.where(submit[frame], at, -1))
    new_group = np.ones(len(frame), dtype=bool)
    new_group[1:] = ids[1:] != ids[:-1]
    group_start = np.maximum.accumulate(np.where(new_group, at, 0))
    parent = ce.column("parent_collection_id").values[frame] >= 0
    out = np.zeros(len(ce), dtype=bool)
    out[frame] = (latest >= group_start) & parent[np.maximum(latest, 0)]
    return out[ending]


def termination_report(traces: Sequence[TraceDataset]) -> TerminationReport:
    """Compute section 5.2's statistics pooled across cells."""
    end_counts: Counter = Counter()
    killed_with_parent = total_with_parent = 0
    killed_without_parent = total_without_parent = 0
    n_collections = 0
    tier_ids, tier_prod, evicted_ids = [], [], []

    for trace in traces:
        ce = trace.collection_events
        ids = ce.column("collection_id").values
        types = ce.column("type")
        submit = types == "SUBMIT"
        ending = types.isin(TERMINAL)
        has_parent = _has_parent_at(ce, submit, ending)
        killed = (types == "KILL")[ending]
        for kind in TERMINAL:
            count = int((types == kind).sum())
            if count:
                end_counts[kind] += count
        total_with_parent += int(has_parent.sum())
        killed_with_parent += int((killed & has_parent).sum())
        total_without_parent += int((~has_parent).sum())
        killed_without_parent += int((killed & ~has_parent).sum())

        # Each collection's tier is that of its latest SUBMIT (a later
        # cell's SUBMIT of the same id wins, as for one pooled log).
        submits = np.flatnonzero(submit)
        distinct, last = last_of_each(ids[submits])
        n_collections += len(distinct)
        tier_ids.append(distinct)
        tier_prod.append(ce.column("tier").isin(("prod", "monitoring"))[submits[last]])
        ie = trace.instance_events
        evicted_ids.append(ie.column("collection_id").values[ie.column("type") == "EVICT"])

    collections, last = last_of_each(np.concatenate(tier_ids or [np.zeros(0, np.int64)]))
    is_prod = np.concatenate(tier_prod or [np.zeros(0, bool)])[last]
    evicted, evictions = np.unique(
        np.concatenate(evicted_ids or [np.zeros(0, np.int64)]), return_counts=True)
    pos, known = lookup(evicted, collections)
    evicted_prod = known & is_prod[pos] if len(collections) else known
    prod_evicted = int(evicted_prod.sum())

    def ratio(a: float, b: float) -> float:
        return a / b if b > 0 else 0.0

    return TerminationReport(
        end_reason_counts=dict(end_counts),
        kill_rate_with_parent=ratio(killed_with_parent, total_with_parent),
        kill_rate_without_parent=ratio(killed_without_parent, total_without_parent),
        collections_with_evictions_fraction=ratio(len(evicted), n_collections),
        evicted_collections_nonprod_fraction=ratio(len(evicted) - prod_evicted,
                                                   len(evicted)),
        prod_collections_evicted_fraction=ratio(prod_evicted, int(is_prod.sum())),
        prod_evicted_single_eviction_fraction=ratio(
            int((evicted_prod & (evictions == 1)).sum()), prod_evicted),
    )
