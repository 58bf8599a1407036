"""The simulator's event log — the raw material of trace generation.

Event vocabulary follows the 2019 trace: SUBMIT, QUEUE, ENABLE,
SCHEDULE, EVICT, FAIL, FINISH, KILL, UPDATE_RUNNING (limit changes by
Autopilot), plus machine ADD/REMOVE events.  Collection events and
instance events are recorded in separate streams, exactly as the trace
separates ``collection_events`` and ``instance_events`` tables.

:class:`EventLog` is the in-run recorder: cheap NamedTuple appends on
the hot path.  When a run ends, :meth:`EventLog.freeze` turns it into
:class:`EventColumns`, one typed array per field, which is what a
:class:`~repro.sim.cell.CellResult` carries: pickling it to a parent
process is a buffer copy, and the trace encoder wraps the arrays as
they are.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, List, NamedTuple, Optional, Sequence, get_type_hints

import numpy as np

_tuple_new = tuple.__new__


class EventType(enum.Enum):
    SUBMIT = "SUBMIT"
    QUEUE = "QUEUE"
    ENABLE = "ENABLE"
    SCHEDULE = "SCHEDULE"
    EVICT = "EVICT"
    FAIL = "FAIL"
    FINISH = "FINISH"
    KILL = "KILL"
    UPDATE_RUNNING = "UPDATE_RUNNING"

    @property
    def is_terminal(self) -> bool:
        return self in (EventType.EVICT, EventType.FAIL, EventType.FINISH, EventType.KILL)


#: Event types that terminate a collection or instance.
TERMINAL_EVENTS = frozenset(
    {EventType.EVICT, EventType.FAIL, EventType.FINISH, EventType.KILL}
)


# The event records are NamedTuples rather than frozen dataclasses:
# millions of them are constructed per month-scale run, and tuple
# construction is several times cheaper than a frozen dataclass's
# __init__ + object.__setattr__ per field.  Attribute access (the only
# way consumers read them) is unchanged.
class CollectionEvent(NamedTuple):
    time: float
    collection_id: int
    event: EventType
    collection_type: str      # "job" | "alloc_set"
    priority: int
    tier: str                 # "free" | "beb" | "mid" | "prod" | "monitoring"
    user: str
    scheduler: str            # "borg" | "batch"
    parent_id: int            # -1 when absent
    alloc_collection_id: int  # -1 when absent
    autopilot_mode: str       # "none" | "fully" | "constrained"
    constraint: str           # required machine platform; "" when absent
    num_instances: int


class InstanceEvent(NamedTuple):
    time: float
    collection_id: int
    instance_index: int
    event: EventType
    machine_id: int           # -1 when not placed
    priority: int
    tier: str
    cpu_request: float
    mem_request: float
    is_new: bool              # False for reschedules of previously-run work


class MachineEvent(NamedTuple):
    time: float
    machine_id: int
    event: str                # "ADD" | "REMOVE" | "UPDATE"
    cpu_capacity: float
    mem_capacity: float


class ResubmitEvent(NamedTuple):
    """Provenance of one resubmission: which failed job it retries.

    The resubmitted collection appears in the ordinary collection/
    instance streams as a brand-new SUBMIT (that is how the real trace
    shows resubmissions — fresh collection ids); this side stream is
    what lets analyses stitch chains back together.
    """

    time: float               # when the resubmission entered the cell
    collection_id: int        # the new (resubmitted) collection
    prev_collection_id: int   # the failed collection it retries
    root_collection_id: int   # the chain's original collection
    attempt: int              # 1-based resubmission attempt number
    delay: float              # backoff that preceded this resubmission
    user: str
    tier: str


class EventLog:
    """Append-only streams of collection, instance and machine events.

    The record constructors here spell ``tuple.__new__(Cls, (...))``
    instead of ``Cls(...)``: a NamedTuple's generated ``__new__`` is a
    Python-level wrapper around exactly that call, and these two methods
    are the hottest constructors in a run.  The resulting objects are
    ordinary ``CollectionEvent``/``InstanceEvent`` instances.
    """

    def __init__(self):
        self.collection_events: List[CollectionEvent] = []
        self.instance_events: List[InstanceEvent] = []
        self.machine_events: List[MachineEvent] = []
        self.resubmit_events: List[ResubmitEvent] = []

    def collection(self, time: float, collection, event: EventType) -> None:
        """Record a collection-level event."""
        parent_id = collection.parent_id
        alloc_id = collection.alloc_collection_id
        self.collection_events.append(
            _tuple_new(
                CollectionEvent,
                (
                    time,
                    collection.collection_id,
                    event,
                    # ._value_ is the member's plain value attribute; the
                    # public .value spelling routes through
                    # DynamicClassAttribute.__get__, a descriptor call the
                    # event hot path makes millions of times per run.
                    collection.collection_type._value_,
                    collection.priority,
                    collection.tier._value_,
                    collection.user,
                    collection.scheduler._value_,
                    parent_id if parent_id is not None else -1,
                    alloc_id if alloc_id is not None else -1,
                    collection.autopilot_mode,
                    collection.constraint,
                    collection.num_instances,
                ),
            )
        )

    def instance(self, time: float, instance, event: EventType,
                 machine_id: Optional[int] = None, is_new: bool = True) -> None:
        """Record an instance-level event."""
        request = instance.request
        # One collection fetch instead of three property hops: .priority
        # and .tier on Instance are delegating properties, and this is
        # the hottest event constructor in a run.
        collection = instance.collection
        self.instance_events.append(
            _tuple_new(
                InstanceEvent,
                (
                    time,
                    collection.collection_id,
                    instance.index,
                    event,
                    machine_id if machine_id is not None else -1,
                    collection.priority,
                    collection.tier._value_,
                    request.cpu,
                    request.mem,
                    is_new,
                ),
            )
        )

    def crash_loop(self, time: float, instance, machine_id: int) -> None:
        """Record FAIL + SUBMIT + SCHEDULE of one in-place restart.

        The crash-loop churn of figure 9 emits these three records per
        fire, millions of times per paper-scale run; sharing the field
        reads across the triple is worth ~2/3 of the constructor cost
        compared with three :meth:`instance` calls.  The records are
        byte-identical to that spelling.
        """
        collection = instance.collection
        request = instance.request
        cid = collection.collection_id
        index = instance.index
        priority = collection.priority
        tier = collection.tier._value_
        cpu = request.cpu
        mem = request.mem
        append = self.instance_events.append
        append(_tuple_new(InstanceEvent, (
            time, cid, index, EventType.FAIL, machine_id,
            priority, tier, cpu, mem, False)))
        append(_tuple_new(InstanceEvent, (
            time, cid, index, EventType.SUBMIT, -1,
            priority, tier, cpu, mem, False)))
        append(_tuple_new(InstanceEvent, (
            time, cid, index, EventType.SCHEDULE, machine_id,
            priority, tier, cpu, mem, False)))

    def machine(self, time: float, machine_id: int, event: str,
                cpu_capacity: float, mem_capacity: float) -> None:
        self.machine_events.append(
            MachineEvent(time, machine_id, event, cpu_capacity, mem_capacity)
        )

    def resubmit(self, time: float, collection_id: int,
                 prev_collection_id: int, root_collection_id: int,
                 attempt: int, delay: float, user: str, tier: str) -> None:
        """Record resubmission provenance (fault injection only)."""
        self.resubmit_events.append(
            ResubmitEvent(time, collection_id, prev_collection_id,
                          root_collection_id, attempt, delay, user, tier)
        )

    def __len__(self) -> int:
        return (len(self.collection_events) + len(self.instance_events)
                + len(self.machine_events) + len(self.resubmit_events))

    def freeze(self) -> EventColumns:
        """The log as typed columns: one dict of arrays per stream."""
        return EventColumns(
            collection_events=_freeze(CollectionEvent, self.collection_events),
            instance_events=_freeze(InstanceEvent, self.instance_events),
            machine_events=_freeze(MachineEvent, self.machine_events),
            resubmit_events=_freeze(ResubmitEvent, self.resubmit_events),
        )


#: Array dtype of each record field type.  An ``EventType`` field is
#: stored as its value string.
_DTYPES = {float: np.float64, int: np.int64, bool: np.bool_,
           str: object, EventType: object}
_event_value = attrgetter("_value_")


def _freeze(record_type, records: Sequence[tuple]) -> Dict[str, np.ndarray]:
    """Transpose ``records`` into ``{field: array}`` of ``record_type``.

    String columns are object arrays of the records' own ``str`` objects:
    ``np.fromiter`` never goes through a fixed-width ``<U`` array, which
    would box every element back as ``numpy.str_``.
    """
    n = len(records)
    fields = record_type._fields
    columns = zip(*records) if n else [()] * len(fields)
    out: Dict[str, np.ndarray] = {}
    hints = get_type_hints(record_type)
    for name, values in zip(fields, columns):
        if hints[name] is EventType:
            values = map(_event_value, values)
        out[name] = np.fromiter(values, dtype=_DTYPES[hints[name]], count=n)
    return out


@dataclass(frozen=True)
class EventColumns:
    """A finished run's event log as columns.

    Each stream maps the field names of its record type (``time``,
    ``collection_id``, ``event``, ...) to equal-length arrays: float64,
    int64 and bool for numbers, object arrays of ``str`` for strings and
    for the event kind (``EventType`` values, e.g. ``"SCHEDULE"``).  Row
    *i* of a stream is record *i* of the :class:`EventLog` it was frozen
    from.
    """

    collection_events: Dict[str, np.ndarray]
    instance_events: Dict[str, np.ndarray]
    machine_events: Dict[str, np.ndarray]
    resubmit_events: Dict[str, np.ndarray]
