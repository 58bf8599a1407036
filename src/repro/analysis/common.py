"""Shared analysis primitives: per-job integrals, hourly tier series.

All heavy lifting is vectorized over the tables' numpy columns — the
month-scale tables have millions of rows.  String columns are read as
codes: a comparison with a literal goes through the column's sorted
vocabulary, and a relabelling (monitoring counts as prod) remaps the
small vocabulary, never the rows.

The intermediates several figures share — the hourly tier series, the
job usage integrals, the collection metadata and the scheduling delays
— are computed once per :class:`TraceDataset` by :func:`memoised`.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Sequence, Set, Tuple, TypeVar

import numpy as np

from repro import obs
from repro.table import Column, Table
from repro.trace.dataset import TraceDataset
from repro.util.timeutil import HOUR_SECONDS

#: Paper tier stacking order (monitoring merged into prod upstream).
TIER_ORDER: Tuple[str, ...] = ("free", "beb", "mid", "prod")

T = TypeVar("T")


def _freeze(value):
    """Make every array inside a memoised result read-only."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif isinstance(value, Table):
        for name in value.column_names:
            column = value.column(name)
            _freeze(column.codes if column.kind == "str" else column.values)
    elif isinstance(value, dict):
        for item in value.values():
            _freeze(item)
    return value


def memoised(trace: TraceDataset, key: Tuple[Hashable, ...],
             tables: Sequence[str], compute: Callable[[], T]) -> T:
    """``compute()``, once per ``trace`` and ``key``.

    The entry stays valid while each of ``tables`` (the tables
    ``compute`` reads) is the same object it was computed from; a trace
    whose table was replaced recomputes.  Arrays in the result are made
    read-only, since every caller shares them.
    """
    deps = tuple(trace.tables[name] for name in tables)
    entry = trace.analysis_memo.get(key)
    if entry is not None and all(a is b for a, b in zip(entry[0], deps)):
        return entry[1]
    value = _freeze(compute())
    trace.analysis_memo[key] = (deps, value)
    return value


def fold_monitoring(tiers: Column) -> Column:
    """A tier column with 'monitoring' relabelled 'prod' (the paper's
    convention), by remapping the vocabulary."""
    if len(tiers) == 0:
        return tiers
    folded = Column(["prod" if tier == "monitoring" else tier
                     for tier in tiers.vocabulary.tolist()])
    return folded[tiers.codes]


def tier_positions(tiers: Column) -> np.ndarray:
    """Each row's index into :data:`TIER_ORDER` (monitoring counts as
    prod; any other label is -1)."""
    position = {tier: i for i, tier in enumerate(TIER_ORDER)}
    position["monitoring"] = position["prod"]
    remap = np.array([position.get(tier, -1)
                      for tier in tiers.vocabulary.tolist()], dtype=np.int64)
    return remap[tiers.codes]


def split_by(labels: Column, values: np.ndarray) -> Dict[str, np.ndarray]:
    """``values`` grouped by the string label of each row, labels in
    order of first appearance, rows in order within each group."""
    codes, first = np.unique(labels.codes, return_index=True)
    return {labels.vocabulary[code]: values[labels.codes == code]
            for code in codes[np.argsort(first)]}


def lookup(keys: np.ndarray,
           distinct: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Where each of ``keys`` sits in the sorted distinct ``distinct``,
    and whether it is there at all (positions of absent keys are
    meaningless but in range)."""
    if len(distinct) == 0:
        return np.zeros(len(keys), dtype=np.int64), np.zeros(len(keys), dtype=bool)
    pos = np.minimum(np.searchsorted(distinct, keys), len(distinct) - 1)
    return pos, distinct[pos] == keys


def last_of_each(ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Sorted distinct ``ids`` and the index of each one's last occurrence."""
    distinct, from_end = np.unique(ids[::-1], return_index=True)
    return distinct, len(ids) - 1 - from_end


def _alloc_set_array(trace: TraceDataset) -> np.ndarray:
    """Sorted distinct collection ids that are alloc sets."""
    ce = trace.collection_events
    ids = ce.column("collection_id").values
    return np.unique(ids[ce.column("collection_type") == "alloc_set"])


def alloc_set_ids(trace: TraceDataset) -> Set[int]:
    """Collection ids that are alloc sets."""
    return set(_alloc_set_array(trace).tolist())


def is_alloc_set(trace: TraceDataset, ids: np.ndarray) -> np.ndarray:
    """Which of ``ids`` are alloc-set collection ids."""
    return np.isin(ids, _alloc_set_array(trace))


@obs.traced("analysis.job_usage_integrals")
def job_usage_integrals(trace: TraceDataset,
                        include_alloc_sets: bool = False) -> Table:
    """Per-collection resource-hour integrals (the section 7 quantity).

    Returns a table with ``collection_id``, ``tier``, ``in_alloc``,
    ``vertical_scaling``, ``ncu_hours`` and ``nmu_hours``.  Alloc sets
    are excluded by default because the paper's job-size analysis is
    about jobs.  Memoised per trace; the table's arrays are read-only.
    """
    return memoised(
        trace, ("job_usage_integrals", include_alloc_sets),
        ("instance_usage", "collection_events"),
        lambda: _job_usage_integrals(trace, include_alloc_sets))


def _job_usage_integrals(trace: TraceDataset,
                         include_alloc_sets: bool) -> Table:
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
    if include_alloc_sets:
        rep_kept = rep
        keep = slice(None)
    else:
        keep = ~is_alloc_set(trace, unique_ids)
        rep_kept = rep[keep]
    return Table({
        "collection_id": unique_ids[keep],
        "tier": fold_monitoring(iu.column("tier"))[rep_kept],
        "in_alloc": iu.column("in_alloc").values[rep_kept],
        "vertical_scaling": iu.column("vertical_scaling")[rep_kept],
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

    Returns {tier: array of length horizon_hours}; the arrays are
    memoised per trace and read-only.
    """
    if resource not in ("cpu", "mem"):
        raise ValueError(f"resource must be 'cpu' or 'mem', got {resource!r}")
    if quantity not in ("usage", "allocation"):
        raise ValueError(f"quantity must be 'usage' or 'allocation', got {quantity!r}")
    return dict(memoised(
        trace, ("hourly_tier_series", resource, quantity), ("instance_usage",),
        lambda: _hourly_tier_series(trace, resource, quantity)))


def _hourly_tier_series(trace: TraceDataset, resource: str,
                        quantity: str) -> Dict[str, np.ndarray]:
    n_hours = int(np.ceil(trace.horizon / HOUR_SECONDS))
    capacity = trace.capacity_cpu if resource == "cpu" else trace.capacity_mem
    iu = trace.instance_usage
    if len(iu) == 0 or capacity <= 0:
        return {tier: np.zeros(n_hours) for tier in TIER_ORDER}

    column = {"usage": {"cpu": "avg_cpu", "mem": "avg_mem"},
              "allocation": {"cpu": "limit_cpu", "mem": "limit_mem"}}[quantity][resource]
    values = iu.column(column).values * (iu.column("duration").values / HOUR_SECONDS)
    hour = (iu.column("start_time").values / HOUR_SECONDS).astype(np.int64)
    hour = np.clip(hour, 0, n_hours - 1)
    tier = tier_positions(iu.column("tier"))
    rows = tier >= 0
    if quantity == "allocation":
        rows &= ~iu.column("in_alloc").values
    # One weighted bincount over (tier, hour) cells; each cell sums its
    # rows in row order, exactly as a per-tier bincount would.
    sums = np.bincount(tier[rows] * n_hours + hour[rows], weights=values[rows],
                       minlength=len(TIER_ORDER) * n_hours)
    present = np.bincount(tier[rows], minlength=len(TIER_ORDER)) > 0
    series = sums.reshape(len(TIER_ORDER), n_hours)
    return {name: series[i] / capacity if present[i] else np.zeros(n_hours)
            for i, name in enumerate(TIER_ORDER)}


def average_tier_fractions(trace: TraceDataset, resource: str = "cpu",
                           quantity: str = "usage") -> Dict[str, float]:
    """Whole-trace average of the hourly tier series (figures 3/5 bars)."""
    series = hourly_tier_series(trace, resource=resource, quantity=quantity)
    return {tier: float(np.mean(values)) for tier, values in series.items()}


def collection_metadata(trace: TraceDataset) -> Table:
    """One row per collection from its SUBMIT event (id, tier, type, ...).

    Memoised per trace; the table's arrays are read-only.
    """
    return memoised(trace, ("collection_metadata",), ("collection_events",),
                    lambda: _collection_metadata(trace))


def _collection_metadata(trace: TraceDataset) -> Table:
    ce = trace.collection_events
    if len(ce) == 0:
        return ce.head(0)
    submits = ce.filter(ce.column("type") == "SUBMIT")
    return submits.distinct("collection_id")
