"""Encode a simulation result into trace tables.

Each builder maps schema columns to value arrays; :func:`_build` orders
the mapping through :func:`repro.trace.schema.ordered_columns`, so a
builder that drifts from the canonical schema (missing, extra, or
reordered columns) fails loudly here instead of producing a malformed
trace for some later reader to trip over.
"""

from __future__ import annotations

import numpy as np

from repro.sim.cell import CellResult
from repro.sim.usage import AUTOPILOT_FROM_CODE, TIER_FROM_CODE
from repro.table import Column, Table
from repro.trace.dataset import TraceDataset
from repro.trace.schema import empty_table, ordered_columns


def _build(name: str, values: dict) -> Table:
    """Schema-ordered :class:`Table` (typed empty when there are no rows)."""
    table = Table(ordered_columns(name, values))
    if len(table) == 0:
        return empty_table(name)
    return table


#: Schema column -> simulator field, per event stream.  The event tables
#: are the frozen :class:`~repro.sim.events.EventColumns` arrays renamed.
_COLLECTION_EVENT_FIELDS = {
    "time": "time",
    "collection_id": "collection_id",
    "type": "event",
    "collection_type": "collection_type",
    "priority": "priority",
    "tier": "tier",
    "user": "user",
    "scheduler": "scheduler",
    "parent_collection_id": "parent_id",
    "alloc_collection_id": "alloc_collection_id",
    "vertical_scaling": "autopilot_mode",
    "constraint": "constraint",
    "num_instances": "num_instances",
}
_INSTANCE_EVENT_FIELDS = {
    "time": "time",
    "collection_id": "collection_id",
    "instance_index": "instance_index",
    "type": "event",
    "machine_id": "machine_id",
    "priority": "priority",
    "tier": "tier",
    "resource_request_cpu": "cpu_request",
    "resource_request_mem": "mem_request",
    "is_new": "is_new",
}
_MACHINE_EVENT_FIELDS = {
    "time": "time",
    "machine_id": "machine_id",
    "type": "event",
    "cpu_capacity": "cpu_capacity",
    "mem_capacity": "mem_capacity",
}


def _events_table(name: str, stream: dict, fields: dict) -> Table:
    return _build(name, {column: Column(stream[field])
                         for column, field in fields.items()})


def _instance_usage_table(result: CellResult) -> Table:
    u = result.usage
    n = len(u["window_start"])
    tier_strings = np.empty(n, dtype=object)
    for code, tier in TIER_FROM_CODE.items():
        tier_strings[u["tier_code"] == code] = tier.value
    autopilot_strings = np.empty(n, dtype=object)
    for code, mode in AUTOPILOT_FROM_CODE.items():
        autopilot_strings[u["autopilot_code"] == code] = mode
    return _build("instance_usage", {
        "start_time": Column(u["window_start"]),
        "duration": Column(u["duration"]),
        "collection_id": Column(u["collection_id"].astype(np.int64)),
        "instance_index": Column(u["instance_index"].astype(np.int64)),
        "machine_id": Column(u["machine_id"].astype(np.int64)),
        "tier": Column(tier_strings),
        "vertical_scaling": Column(autopilot_strings),
        "in_alloc": Column(u["in_alloc"].astype(bool)),
        "avg_cpu": Column(u["avg_cpu"]),
        "max_cpu": Column(u["max_cpu"]),
        "avg_mem": Column(u["avg_mem"]),
        "max_mem": Column(u["max_mem"]),
        "limit_cpu": Column(u["cpu_limit"]),
        "limit_mem": Column(u["mem_limit"]),
    })


def _machine_attributes_table(result: CellResult) -> Table:
    machines = result.machines
    return _build("machine_attributes", {
        "machine_id": [m.machine_id for m in machines],
        "cpu_capacity": [m.capacity.cpu for m in machines],
        "mem_capacity": [m.capacity.mem for m in machines],
        "platform": [m.platform for m in machines],
        "utc_offset_hours": [m.utc_offset_hours for m in machines],
    })


def encode_cell(result: CellResult) -> TraceDataset:
    """Build the five trace tables from one cell's simulation result.

    The empty-trace case (a cell that ran no work) still yields tables
    with the full schema, so downstream queries never special-case it.
    """
    capacity = result.capacity
    events = result.events
    tables = {
        "collection_events": _events_table(
            "collection_events", events.collection_events,
            _COLLECTION_EVENT_FIELDS),
        "instance_events": _events_table(
            "instance_events", events.instance_events, _INSTANCE_EVENT_FIELDS),
        "instance_usage": _instance_usage_table(result),
        "machine_events": _events_table(
            "machine_events", events.machine_events, _MACHINE_EVENT_FIELDS),
        "machine_attributes": _machine_attributes_table(result),
    }
    return TraceDataset(
        cell=result.config.name,
        era=result.config.era,
        horizon=result.config.horizon,
        sample_period=result.config.sample_period,
        utc_offset_hours=result.config.utc_offset_hours,
        capacity_cpu=capacity.cpu,
        capacity_mem=capacity.mem,
        tables=tables,
    )
