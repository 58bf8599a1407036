"""Fork safety: worker-side obs metrics merge into the parent exactly once.

The store executor ships chunk tasks to worker processes; each worker
runs its task inside a fresh scoped registry and returns a
:class:`~repro.obs.snapshot.Snapshot` alongside the payload
(``traced_chunk_task``).  The parent merges each snapshot once, in task
order.  These tests pin the resulting invariants:

* parallel and serial runs agree on every work counter,
* nothing is double-counted (exactly one increment per chunk, even
  under ``fork`` start methods where the child inherits a *copy* of the
  parent registry),
* worker span trees graft under the parent's open ``store.scan`` span,
  so the merged structure equals the serial one.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.store import Agg, open_store, write_store


@pytest.fixture(scope="module")
def store_dir(trace_2019, tmp_path_factory):
    directory = tmp_path_factory.mktemp("obs_store") / "cell"
    with obs.scoped_registry():
        write_store(trace_2019, directory)
    return directory


#: The counters that must agree between serial and parallel execution.
WORK_COUNTERS = ("store.scans", "store.chunks_total", "store.chunks_skipped",
                 "store.chunks_decoded", "store.rows_decoded",
                 "store.rows_matched", "store.chunks_read", "store.bytes_read")


def _aggregate_run(store_dir, workers):
    """One instrumented aggregate over instance_usage; returns
    (result, counters, span structure).  A sum, not a count: an
    unfiltered count is answered from the manifest without reading any
    chunk, which would leave nothing to fan out."""
    store = open_store(store_dir)
    with obs.scoped_registry() as registry:
        result = store.scan("instance_usage").aggregate(
            Agg("sum", "duration"), workers=workers)
        snapshot = registry.snapshot()
    return result, snapshot.counters, snapshot.span_structure()


def test_parallel_counters_match_serial(store_dir):
    total_serial, serial, structure_serial = _aggregate_run(store_dir, None)
    total_parallel, parallel, structure_parallel = _aggregate_run(store_dir, 2)

    assert total_parallel == total_serial
    for name in WORK_COUNTERS:
        assert parallel.get(name, 0) == serial.get(name, 0), name

    # Worker span trees grafted under the open store.scan span: the
    # merged structure is indistinguishable from the serial run's.
    assert structure_parallel == structure_serial


def test_chunk_work_counted_exactly_once(store_dir):
    """Each surviving chunk is read and decoded exactly once — a fork
    that re-counted inherited parent state would inflate these."""
    store = open_store(store_dir)
    n_chunks = len(store.scan("instance_usage").surviving_chunks())
    assert n_chunks > 1  # the parallel path needs real fan-out

    _, counters, structure = _aggregate_run(store_dir, 2)
    assert counters["store.chunks_read"] == n_chunks
    assert counters["store.chunks_decoded"] == n_chunks
    assert counters["store.scans"] == 1

    def find(node, name):
        if node[0] == name:
            return node
        for child in node[2]:
            found = find(child, name)
            if found is not None:
                return found
        return None

    chunk_span = find(structure, "store.chunk")
    assert chunk_span is not None and chunk_span[1] == n_chunks


def test_traced_chunk_task_snapshot_is_the_task_delta(store_dir):
    """The worker-side wrapper's snapshot contains only its own task's
    metrics, regardless of what the ambient registry already held."""
    from repro.store.executor import traced_chunk_task

    store = open_store(store_dir)
    scan = store.scan("instance_usage")
    chunk = scan.surviving_chunks()[0]
    task = (str(store.chunk_path(chunk["file"])),
            tuple(store.manifest.column_names("instance_usage")),
            None, (), (Agg("count"),))

    obs.inc("store.chunks_read", 1000)  # pre-existing parent state
    before = obs.snapshot().counters["store.chunks_read"]
    (payload, rows_decoded, rows_matched), snapshot = traced_chunk_task(task)

    assert payload["count"] == rows_decoded == rows_matched == chunk["rows"]
    # The snapshot is exactly this one task's work...
    assert snapshot.counters["store.chunks_read"] == 1
    assert snapshot.span_structure() == ("root", 0, (("store.chunk", 1, ()),))
    # ...and running it did not touch the ambient registry.
    assert obs.snapshot().counters["store.chunks_read"] == before


def test_merge_is_idempotent_per_snapshot_not_global():
    """merge_snapshot adds counters per call — callers own exactly-once."""
    registry = obs.MetricsRegistry()
    child = obs.MetricsRegistry()
    child.inc("store.chunks_decoded", 3)
    snapshot = child.snapshot()
    registry.merge_snapshot(snapshot)
    registry.merge_snapshot(snapshot)
    assert registry.snapshot().counters["store.chunks_decoded"] == 6
