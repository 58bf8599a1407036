"""Shared analysis primitives: per-job integrals, hourly tier series.

All heavy lifting is vectorized over the usage table's numpy columns —
the month-scale tables have millions of rows.
"""

from __future__ import annotations

from typing import Dict, Set, Tuple

import numpy as np

from repro import obs
from repro.table import Table
from repro.trace.dataset import TraceDataset
from repro.util.timeutil import HOUR_SECONDS

#: Paper tier stacking order (monitoring merged into prod upstream).
TIER_ORDER: Tuple[str, ...] = ("free", "beb", "mid", "prod")


def merge_monitoring_tier(tiers: np.ndarray) -> np.ndarray:
    """Fold 'monitoring' labels into 'prod' (the paper's convention)."""
    out = tiers.copy()
    out[out == "monitoring"] = "prod"
    return out


def alloc_set_ids(trace: TraceDataset) -> Set[int]:
    """Collection ids that are alloc sets."""
    ce = trace.collection_events
    ids = ce.column("collection_id").values
    kinds = ce.column("collection_type").values
    return {int(ids[i]) for i in range(len(ce)) if kinds[i] == "alloc_set"}


@obs.traced("analysis.job_usage_integrals")
def job_usage_integrals(trace: TraceDataset,
                        include_alloc_sets: bool = False) -> Table:
    """Per-collection resource-hour integrals (the section 7 quantity).

    Returns a table with ``collection_id``, ``tier``, ``in_alloc``,
    ``vertical_scaling``, ``ncu_hours`` and ``nmu_hours``.  Alloc sets
    are excluded by default because the paper's job-size analysis is
    about jobs.
    """
    iu = trace.instance_usage
    if len(iu) == 0:
        return Table({"collection_id": [], "tier": [], "in_alloc": [],
                      "vertical_scaling": [], "ncu_hours": [], "nmu_hours": []})
    ids = iu.column("collection_id").values
    hours = iu.column("duration").values / HOUR_SECONDS
    ncu = iu.column("avg_cpu").values * hours
    nmu = iu.column("avg_mem").values * hours

    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    starts = np.concatenate([[0], np.flatnonzero(np.diff(sorted_ids)) + 1])
    unique_ids = sorted_ids[starts]
    ncu_sums = np.add.reduceat(ncu[order], starts)
    nmu_sums = np.add.reduceat(nmu[order], starts)
    rep = order[starts]
    tiers = merge_monitoring_tier(iu.column("tier").values[rep])
    in_alloc = iu.column("in_alloc").values[rep]
    scaling = iu.column("vertical_scaling").values[rep]

    if not include_alloc_sets:
        allocs = alloc_set_ids(trace)
        keep = np.asarray([int(i) not in allocs for i in unique_ids], dtype=bool)
    else:
        keep = np.ones(len(unique_ids), dtype=bool)
    return Table({
        "collection_id": unique_ids[keep],
        "tier": tiers[keep],
        "in_alloc": in_alloc[keep],
        "vertical_scaling": scaling[keep],
        "ncu_hours": ncu_sums[keep],
        "nmu_hours": nmu_sums[keep],
    })


@obs.traced("analysis.hourly_tier_series")
def hourly_tier_series(trace: TraceDataset, resource: str = "cpu",
                       quantity: str = "usage") -> Dict[str, np.ndarray]:
    """Per-tier hourly series as fractions of cell capacity (figures 2/4).

    ``quantity`` is ``"usage"`` (average observed usage) or
    ``"allocation"`` (sum of limits).  For allocation, usage rows of
    tasks running *inside* alloc sets are excluded — their reservation is
    already counted through the alloc instance's limit, and counting both
    would double-book the machine.

    Returns {tier: array of length horizon_hours}.
    """
    if resource not in ("cpu", "mem"):
        raise ValueError(f"resource must be 'cpu' or 'mem', got {resource!r}")
    if quantity not in ("usage", "allocation"):
        raise ValueError(f"quantity must be 'usage' or 'allocation', got {quantity!r}")
    n_hours = int(np.ceil(trace.horizon / HOUR_SECONDS))
    capacity = trace.capacity_cpu if resource == "cpu" else trace.capacity_mem
    out = {tier: np.zeros(n_hours) for tier in TIER_ORDER}
    iu = trace.instance_usage
    if len(iu) == 0 or capacity <= 0:
        return out

    column = {"usage": {"cpu": "avg_cpu", "mem": "avg_mem"},
              "allocation": {"cpu": "limit_cpu", "mem": "limit_mem"}}[quantity][resource]
    values = iu.column(column).values * (iu.column("duration").values / HOUR_SECONDS)
    hour = (iu.column("start_time").values / HOUR_SECONDS).astype(np.int64)
    hour = np.clip(hour, 0, n_hours - 1)
    tiers = merge_monitoring_tier(iu.column("tier").values)
    mask_base = np.ones(len(iu), dtype=bool)
    if quantity == "allocation":
        mask_base = ~iu.column("in_alloc").values
    for tier in TIER_ORDER:
        mask = mask_base & (tiers == tier)
        if not mask.any():
            continue
        out[tier] = np.bincount(hour[mask], weights=values[mask],
                                minlength=n_hours) / capacity
    return out


def average_tier_fractions(trace: TraceDataset, resource: str = "cpu",
                           quantity: str = "usage") -> Dict[str, float]:
    """Whole-trace average of the hourly tier series (figures 3/5 bars)."""
    series = hourly_tier_series(trace, resource=resource, quantity=quantity)
    return {tier: float(np.mean(values)) for tier, values in series.items()}


def collection_metadata(trace: TraceDataset) -> Table:
    """One row per collection from its SUBMIT event (id, tier, type, ...)."""
    ce = trace.collection_events
    if len(ce) == 0:
        return ce.head(0)
    submits = ce.filter(ce.column("type") == "SUBMIT")
    return submits.distinct("collection_id")

