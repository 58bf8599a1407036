"""Per-user workload analysis.

Both traces attribute every collection to a (hashed) user, "used for
accounting and authentication purposes" (paper section 2).  The
submission population is itself heavy-tailed: a few internal frameworks
submit most jobs.  This module measures that concentration — a per-user
analogue of the hogs-and-mice story.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.analysis.common import collection_metadata, job_usage_integrals, lookup
from repro.table import Column
from repro.trace.dataset import TraceDataset


def _pooled(parts: Sequence[Tuple[Column, np.ndarray]]) -> Dict[str, float]:
    """Sum each user's weights across cells: users keyed by name in order
    of first appearance, each sum taken in row order, cell after cell."""
    index: Dict[str, int] = {}
    slots, weights = [], []
    for users, weight in parts:
        remap = np.array([index.setdefault(user, len(index))
                          for user in users.vocabulary.tolist()], dtype=np.int64)
        slots.append(remap[users.codes])
        weights.append(weight)
    if not index:
        return {}
    slot = np.concatenate(slots)
    sums = np.bincount(slot, weights=np.concatenate(weights), minlength=len(index))
    _, first = np.unique(slot, return_index=True)
    names = list(index)
    return {names[s]: float(sums[s]) for s in slot[np.sort(first)]}


def jobs_per_user(traces: Sequence[TraceDataset]) -> Dict[str, int]:
    """Number of jobs submitted per user, pooled across cells."""
    parts = []
    for trace in traces:
        ce = trace.collection_events
        mask = ((ce.column("type") == "SUBMIT")
                & (ce.column("collection_type") == "job"))
        parts.append((ce.column("user")[mask], np.ones(int(mask.sum()))))
    return {user: int(n) for user, n in _pooled(parts).items()}


def usage_per_user(traces: Sequence[TraceDataset]) -> Dict[str, float]:
    """NCU-hours consumed per user, pooled across cells."""
    parts = []
    for trace in traces:
        table = job_usage_integrals(trace)
        if len(table) == 0:
            continue
        # Attribute each job's integral to its submitting user.
        meta = collection_metadata(trace)
        meta_ids = meta.column("collection_id").values
        order = np.argsort(meta_ids)
        pos, found = lookup(table.column("collection_id").values, meta_ids[order])
        parts.append((meta.column("user")[order[pos[found]]],
                      table.column("ncu_hours").values[found]))
    return _pooled(parts)


def zipf_exponent(counts: Sequence[int]) -> float:
    """Slope of log(count) vs log(rank): the submission-popularity tail.

    A value near -1 is the classic Zipf law.  Requires at least five
    distinct contributors.
    """
    arr = np.sort(np.asarray(list(counts), dtype=float))[::-1]
    arr = arr[arr > 0]
    if arr.size < 5:
        raise ValueError("zipf_exponent needs at least 5 nonzero counts")
    ranks = np.arange(1, arr.size + 1, dtype=float)
    slope, _ = np.polyfit(np.log(ranks), np.log(arr), deg=1)
    return float(slope)


@dataclass(frozen=True)
class UserReport:
    """Submission/usage concentration statistics."""

    n_users: int
    top_user_job_share: float
    top10_user_job_share: float
    top10_user_usage_share: float
    zipf_slope: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "distinct users": self.n_users,
            "top user's share of jobs": self.top_user_job_share,
            "top-10 users' share of jobs": self.top10_user_job_share,
            "top-10 users' share of NCU-hours": self.top10_user_usage_share,
            "zipf slope (log count vs log rank)": self.zipf_slope,
        }


def user_report(traces: Sequence[TraceDataset]) -> UserReport:
    jobs = jobs_per_user(traces)
    usage = usage_per_user(traces)
    if not jobs:
        raise ValueError("no jobs in these traces")
    job_counts = np.sort(np.asarray(list(jobs.values()), dtype=float))[::-1]
    total_jobs = job_counts.sum()
    usage_values = np.sort(np.asarray(list(usage.values()), dtype=float))[::-1]
    total_usage = usage_values.sum()
    return UserReport(
        n_users=len(jobs),
        top_user_job_share=float(job_counts[0] / total_jobs),
        top10_user_job_share=float(job_counts[:10].sum() / total_jobs),
        top10_user_usage_share=(float(usage_values[:10].sum() / total_usage)
                                if total_usage > 0 else 0.0),
        zipf_slope=zipf_exponent(job_counts) if len(job_counts) >= 5 else 0.0,
    )
