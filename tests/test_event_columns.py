"""The frozen event log (``EventColumns``) and the ``CellResult`` it rides in.

Two contracts: row *i* of every frozen stream is record *i* of the live
:class:`~repro.sim.events.EventLog`, field by field (the equivalence
oracle for :meth:`EventLog.freeze`), and a pickled ``CellResult`` holds
no simulator object graph (the wire format ``run_cells`` workers ship).
"""

import dataclasses
import io
import pickle

import numpy as np
import pytest

from repro.sim.cell import CellResult
from repro.sim.events import EventColumns, EventLog, EventType
from repro.workload import small_test_scenario

STREAMS = ("collection_events", "instance_events", "machine_events",
           "resubmit_events")


@pytest.fixture(scope="module")
def faulty_run():
    """A run with all four streams non-empty: the finished simulator and
    its result."""
    sim = small_test_scenario(seed=11, faults="heavy",
                              archetype_mix="mixed").simulator()
    return sim, sim.run()


@pytest.mark.parametrize("stream", STREAMS)
def test_frozen_rows_equal_live_records(faulty_run, stream):
    sim, result = faulty_run
    records = getattr(sim.events, stream)
    columns = getattr(result.events, stream)
    assert records
    assert list(columns) == list(records[0]._fields)
    for name, values in columns.items():
        assert len(values) == len(records)
        for i, record in enumerate(records):
            expected = getattr(record, name)
            if isinstance(expected, EventType):
                expected = expected.value
            got = values[i]
            assert got == expected, (stream, i, name)
            assert type(got.item() if isinstance(got, np.generic) else got) \
                is type(expected), (stream, i, name)


@pytest.mark.parametrize("stream", STREAMS)
def test_frozen_dtypes(faulty_run, stream):
    _, result = faulty_run
    for name, values in getattr(result.events, stream).items():
        assert values.dtype in (np.float64, np.int64, np.bool_, object), name
        if values.dtype == object:
            assert {type(v) for v in values} == {str}, name


def test_event_kind_is_its_value_string(faulty_run):
    _, result = faulty_run
    kinds = set(result.events.instance_events["event"])
    assert kinds <= {e.value for e in EventType}
    assert "SCHEDULE" in kinds


def test_empty_log_freezes_to_typed_empty_columns():
    ie = EventLog().freeze().instance_events
    assert ie["time"].dtype == np.float64 and len(ie["time"]) == 0
    assert ie["machine_id"].dtype == np.int64
    assert ie["is_new"].dtype == np.bool_
    assert ie["event"].dtype == object


class _RecordingUnpickler(pickle.Unpickler):
    def __init__(self, data: bytes):
        super().__init__(io.BytesIO(data))
        self.globals = set()

    def find_class(self, module, name):
        self.globals.add((module, name))
        return super().find_class(module, name)


def test_pickled_result_holds_no_simulator_objects():
    assert "collections" not in {f.name for f in dataclasses.fields(CellResult)}
    result = small_test_scenario(seed=3).run()
    assert isinstance(result.events, EventColumns)
    unpickler = _RecordingUnpickler(pickle.dumps(result))
    back = unpickler.load()
    forbidden = {
        ("repro.sim.entities", "Collection"),
        ("repro.sim.entities", "Instance"),
        ("repro.sim.events", "CollectionEvent"),
        ("repro.sim.events", "InstanceEvent"),
        ("repro.sim.events", "MachineEvent"),
        ("repro.sim.events", "ResubmitEvent"),
        ("repro.sim.events", "EventType"),
        ("repro.sim.events", "EventLog"),
    }
    assert not unpickler.globals & forbidden, unpickler.globals & forbidden
    for stream in STREAMS:
        for name, values in getattr(result.events, stream).items():
            np.testing.assert_array_equal(getattr(back.events, stream)[name],
                                          values)
