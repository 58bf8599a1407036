"""Failure, resubmission and archetype analyses (the scenario-pack figures).

Three views of a fault-injected run, grounded in "A Deep Dive into the
Google Cluster Workload Traces" (failure characteristics, resubmission
behavior) and the per-user clustering literature:

* :func:`failure_rates_by_tier` — terminal instance-event rates per
  tier, normalized per task-hour: the Deep Dive's headline that
  low-tier work fails and is evicted far more often than production.
* :func:`resubmission_interval_ccdf` / :func:`resubmission_report` —
  the distribution of failure-to-resubmission delays and the chain
  structure (attempts, depths, per-user concentration).  These consume
  :class:`~repro.sim.cell.CellResult` objects: resubmission provenance
  lives in the simulator's ``resubmit_events`` side stream (the
  :class:`~repro.sim.events.ResubmitEvent` fields as columns),
  deliberately *not* a trace table — the real traces do
  not label resubmissions either (chains must be inferred there), so
  the trace schema stays faithful.
* :func:`archetype_usage_shares` — NCU-hours share per user archetype,
  attributed purely from user names (``hog_0001``, ``cron_0002``, ...;
  see :func:`repro.workload.archetypes.archetype_of_user`).
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro import obs
from repro.analysis.users import usage_per_user
from repro.sim.cell import CellResult
from repro.workload.archetypes import archetype_of_user
from repro.stats.ccdf import Ccdf, empirical_ccdf
from repro.trace.dataset import TraceDataset
from repro.util.timeutil import HOUR_SECONDS

#: Terminal instance-event types, in reporting order.
TERMINAL_TYPES = ("EVICT", "FAIL", "FINISH", "KILL")


@obs.traced("analysis.failure_rates_by_tier")
def failure_rates_by_tier(traces: Sequence[TraceDataset]
                          ) -> Dict[str, Dict[str, float]]:
    """Terminal instance-event rates per tier, per task-hour.

    For each tier: the number of EVICT/FAIL/FINISH/KILL instance events
    divided by the tier's total task running hours (from the usage
    table), plus the raw task-hours and new-task counts the rates are
    built from.  Pooled across cells.
    """
    event_counts: Dict[str, Dict[str, int]] = {}
    new_tasks: Dict[str, int] = {}
    task_hours: Dict[str, float] = {}
    for trace in traces:
        ie = trace.instance_events
        tiers = ie.column("tier").values
        types = ie.column("type").values
        is_new = ie.column("is_new").values
        for kind in TERMINAL_TYPES:
            mask = types == kind
            for tier in np.unique(tiers[mask]):
                per_tier = event_counts.setdefault(str(tier), {})
                tier_mask = mask & (tiers == tier)
                per_tier[kind] = per_tier.get(kind, 0) + int(tier_mask.sum())
        submit_mask = (types == "SUBMIT") & is_new
        for tier in np.unique(tiers[submit_mask]):
            count = int((submit_mask & (tiers == tier)).sum())
            new_tasks[str(tier)] = new_tasks.get(str(tier), 0) + count
        iu = trace.instance_usage
        u_tiers = iu.column("tier").values
        durations = iu.column("duration").values
        for tier in np.unique(u_tiers):
            hours = float(durations[u_tiers == tier].sum()) / HOUR_SECONDS
            task_hours[str(tier)] = task_hours.get(str(tier), 0.0) + hours

    out: Dict[str, Dict[str, float]] = {}
    for tier in sorted(set(event_counts) | set(new_tasks) | set(task_hours)):
        hours = task_hours.get(tier, 0.0)
        counts = event_counts.get(tier, {})
        row: Dict[str, float] = {
            "task_hours": hours,
            "new_tasks": float(new_tasks.get(tier, 0)),
        }
        for kind in TERMINAL_TYPES:
            count = counts.get(kind, 0)
            row[f"{kind.lower()}_events"] = float(count)
            row[f"{kind.lower()}_per_task_hour"] = (
                count / hours if hours > 0 else 0.0)
        out[tier] = row
    return out


@obs.traced("analysis.resubmission_intervals")
def resubmission_intervals(results: Sequence[CellResult]) -> np.ndarray:
    """Every resubmission's backoff delay (seconds), pooled across cells."""
    return np.concatenate([result.events.resubmit_events["delay"]
                           for result in results] or [np.empty(0)])


def resubmission_interval_ccdf(results: Sequence[CellResult]) -> Ccdf:
    """CCDF of failure-to-resubmission delays (the Deep Dive figure)."""
    intervals = resubmission_intervals(results)
    if intervals.size == 0:
        raise ValueError("no resubmissions in these results "
                         "(faults off, or no resubmit policy)")
    return empirical_ccdf(intervals)


@obs.traced("analysis.resubmission_report")
def resubmission_report(results: Sequence[CellResult]) -> dict:
    """Chain structure of resubmissions: attempts, depths, concentration."""
    attempts: Dict[int, int] = {}
    chain_depth: Dict[int, int] = {}
    per_user: Dict[str, int] = {}
    per_tier: Dict[str, int] = {}
    for result in results:
        stream = result.events.resubmit_events
        for attempt, root, user, tier in zip(
                stream["attempt"].tolist(),
                stream["root_collection_id"].tolist(),
                stream["user"], stream["tier"]):
            attempts[attempt] = attempts.get(attempt, 0) + 1
            chain_depth[root] = max(chain_depth.get(root, 0), attempt)
            per_user[user] = per_user.get(user, 0) + 1
            per_tier[tier] = per_tier.get(tier, 0) + 1
    total = sum(attempts.values())
    top_users = sorted(per_user.items(), key=lambda kv: (-kv[1], kv[0]))[:5]
    return {
        "resubmissions": total,
        "chains": len(chain_depth),
        "max_chain_depth": max(chain_depth.values(), default=0),
        "mean_chain_depth": (sum(chain_depth.values()) / len(chain_depth)
                             if chain_depth else 0.0),
        "attempts_histogram": {str(k): attempts[k] for k in sorted(attempts)},
        "by_tier": {tier: per_tier[tier] for tier in sorted(per_tier)},
        "top_users": [{"user": user, "resubmissions": count}
                      for user, count in top_users],
    }


@obs.traced("analysis.archetype_usage_shares")
def archetype_usage_shares(traces: Sequence[TraceDataset]
                           ) -> Dict[str, float]:
    """NCU-hours share per user archetype (``base`` = calibrated workload).

    Shares sum to 1 over all users with nonzero usage; attribution is
    purely by user-name prefix, so it works on any trace — including
    re-loaded ones — with no simulator state.
    """
    by_archetype: Dict[str, float] = {}
    for user, hours in usage_per_user(traces).items():
        kind = archetype_of_user(user) or "base"
        by_archetype[kind] = by_archetype.get(kind, 0.0) + hours
    total = sum(by_archetype.values())
    if total <= 0:
        return {}
    return {kind: by_archetype[kind] / total
            for kind in sorted(by_archetype)}


@obs.traced("analysis.machine_availability")
def machine_availability(traces: Sequence[TraceDataset],
                         horizon: float) -> Dict[str, float]:
    """Fleet availability under the machine-event log.

    Pairs each machine's REMOVE with its next ADD to integrate downtime
    (an unmatched REMOVE counts to the horizon), pooled across cells.
    """
    total_machine_seconds = 0.0
    down_seconds = 0.0
    outages = 0
    for trace in traces:
        n_machines = len(trace.machine_attributes)
        total_machine_seconds += n_machines * horizon
        me = trace.machine_events
        times = me.column("time").values
        machine_ids = me.column("machine_id").values
        types = me.column("type").values
        down_since: Dict[int, float] = {}
        order = np.lexsort((types, times))
        for i in order:
            machine, kind = int(machine_ids[i]), str(types[i])
            if kind == "REMOVE":
                down_since.setdefault(machine, float(times[i]))
            elif kind == "ADD" and machine in down_since:
                down_seconds += float(times[i]) - down_since.pop(machine)
                outages += 1
        for start in down_since.values():
            down_seconds += horizon - start
            outages += 1
    return {
        "outages": float(outages),
        "down_machine_hours": down_seconds / HOUR_SECONDS,
        "availability": (1.0 - down_seconds / total_machine_seconds
                         if total_machine_seconds > 0 else 1.0),
    }
