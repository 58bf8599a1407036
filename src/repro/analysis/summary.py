"""Trace comparison summary (paper Table 1)."""

from __future__ import annotations

from typing import Dict, List, Sequence, Union

from repro import obs
from repro.analysis.machines import fleet_summary
from repro.trace.dataset import TraceDataset
from repro.util.timeutil import DAY_SECONDS

Value = Union[int, float, str, bool]


def _priority_range(traces: Sequence[TraceDataset]) -> str:
    lo, hi = None, None
    for trace in traces:
        priorities = trace.collection_events.column("priority").values
        if len(priorities) == 0:
            continue
        p_lo, p_hi = int(priorities.min()), int(priorities.max())
        lo = p_lo if lo is None else min(lo, p_lo)
        hi = p_hi if hi is None else max(hi, p_hi)
    if lo is None:
        return "n/a"
    return f"{lo}-{hi}"


def era_summary(traces: Sequence[TraceDataset]) -> Dict[str, Value]:
    """One column of Table 1 for a set of same-era cells."""
    if not traces:
        raise ValueError("era_summary requires at least one trace")
    eras = {t.era for t in traces}
    if len(eras) != 1:
        raise ValueError(f"mixed eras: {sorted(eras)}")
    era = traces[0].era
    fleet = fleet_summary(traces)
    has_allocs = any(
        (t.collection_events.column("collection_type") == "alloc_set").any()
        for t in traces
    )
    has_parents = any(
        len(t.collection_events) > 0
        and (t.collection_events.column("parent_collection_id").values >= 0).any()
        for t in traces
    )
    has_queueing = any(
        (t.collection_events.column("type") == "QUEUE").any()
        for t in traces
    )
    has_autoscaling = any(
        (t.collection_events.column("vertical_scaling") != "none").any()
        for t in traces
    )
    return {
        "era": era,
        "duration_days": traces[0].horizon / DAY_SECONDS,
        "cells": len(traces),
        "machines": int(fleet["machines"]),
        "machines_per_cell": round(fleet["machines_per_cell"], 1),
        "hardware_platforms": int(fleet["hardware_platforms"]),
        "machine_shapes": int(fleet["machine_shapes"]),
        "priority_values": _priority_range(traces),
        "alloc_sets": has_allocs,
        "job_dependencies": has_parents,
        "batch_queueing": has_queueing,
        "vertical_scaling": has_autoscaling,
    }


@obs.traced("analysis.table1")
def table1(traces_2011: Sequence[TraceDataset],
           traces_2019: Sequence[TraceDataset]) -> List[Dict[str, Value]]:
    """Both Table 1 columns."""
    return [era_summary(traces_2011), era_summary(traces_2019)]
