"""Collection/instance state-transition counts (paper figure 7).

Figure 7 annotates the lifecycle state machine with how often each
transition was exercised in cell g, noting that "common paths are many
orders of magnitude more frequently exercised than the rarer ones".  We
rebuild the diagram by replaying each instance's (and collection's)
event sequence and counting state changes.
"""

from __future__ import annotations

from collections import Counter
from typing import List, Sequence, Tuple

import numpy as np

from repro.table import Column
from repro.trace.dataset import TraceDataset

#: State entered after each event type.
_EVENT_TO_STATE = {
    "SUBMIT": "PENDING",
    "QUEUE": "QUEUED",
    "ENABLE": "PENDING",
    "SCHEDULE": "RUNNING",
    "EVICT": "DEAD",    # instances are resubmitted afterwards
    "FAIL": "DEAD",
    "FINISH": "DEAD",
    "KILL": "DEAD",
    "UPDATE_RUNNING": "RUNNING",
}

Transition = Tuple[str, str]


def _count_stream(keys: Sequence[np.ndarray], events: Column,
                  times: np.ndarray) -> Counter:
    """Count state transitions within each entity's time-ordered events.

    ``keys`` identify the entity (collection id, or collection id and
    instance index).  Events that name no state are skipped.  Each
    entity starts in NONE; terminal events name the cause, not just
    DEAD, so figure 7's per-cause arrows are reconstructible, and an
    evicted instance's follow-up SUBMIT produces the DEAD(evict) ->
    PENDING resubmission arc naturally.
    """
    index = {"NONE": 0}
    remap = np.full(len(events.vocabulary), -1)
    for code, event in enumerate(events.vocabulary.tolist()):
        state = _EVENT_TO_STATE.get(event)
        if state is not None:
            label = state if state != "DEAD" else f"DEAD({event.lower()})"
            remap[code] = index.setdefault(label, len(index))
    labels = list(index)
    label_of = remap[events.codes]
    rows = np.flatnonzero(label_of >= 0)
    # Entity by entity; within one, by time, then by position in the log.
    order = rows[np.lexsort((rows, times[rows]) + tuple(k[rows] for k in reversed(keys)))]
    label_of = label_of[order]
    prev = np.zeros(len(order), dtype=np.int64)
    prev[1:] = label_of[:-1]
    for key in keys:
        k = key[order]
        prev[1:][k[1:] != k[:-1]] = 0
    moved = label_of != prev
    n = len(labels)
    pairs = np.bincount(prev[moved] * n + label_of[moved], minlength=n * n)
    return Counter({(labels[p // n], labels[p % n]): int(pairs[p])
                    for p in np.flatnonzero(pairs)})


def collection_transitions(trace: TraceDataset) -> Counter:
    """Transition counts over collection lifecycles."""
    ce = trace.collection_events
    return _count_stream([ce.column("collection_id").values], ce.column("type"),
                         ce.column("time").values)


def instance_transitions(trace: TraceDataset) -> Counter:
    """Transition counts over instance lifecycles (figure 7's bulk)."""
    ie = trace.instance_events
    return _count_stream([ie.column("collection_id").values,
                          ie.column("instance_index").values],
                         ie.column("type"), ie.column("time").values)


def transition_table(trace: TraceDataset) -> List[Tuple[str, str, int, int]]:
    """(from, to, collection_count, instance_count) rows, most common first."""
    coll = collection_transitions(trace)
    inst = instance_transitions(trace)
    keys = set(coll) | set(inst)
    rows = [(src, dst, coll.get((src, dst), 0), inst.get((src, dst), 0))
            for src, dst in keys]
    # Tie-break on the labels: ``keys`` is a set, so count-only sorting
    # would leave equal-total rows in hash-randomized order across runs.
    rows.sort(key=lambda r: (-(r[2] + r[3]), r[0], r[1]))
    return [r for r in rows if r[2] + r[3] > 0]
