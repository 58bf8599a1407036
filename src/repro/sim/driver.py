"""Parallel multi-cell run driver.

Cell simulations are embarrassingly parallel: each
:class:`~repro.workload.scenarios.CellScenario` carries its own config,
fleet, workload and seed, and two cells never share mutable state.
:func:`run_cells` fans a batch of scenarios out over ``fork``-started
worker processes.  The scenario list travels in each worker's
``Process`` arguments, which ``fork`` hands over by copying the
parent's memory: no scenario is ever pickled.  The parent then deals
out cell *indices*, one at a time, over a pipe per worker, and each
worker sends back ``(result, snapshot, frames)`` for the cell it ran.
Where ``fork`` is unavailable the same batch runs serially.

Observability reuses the store executor's fork-safety pattern: every
worker runs its cell inside a *fresh* scoped :mod:`repro.obs` registry
and ships the resulting :class:`~repro.obs.Snapshot` home with the
payload, and the parent merges each snapshot exactly once, in scenario
order.  Counters, gauges and span trees therefore agree between
``workers=1`` and ``workers=N`` — and so do the simulated traces
themselves, because each cell's RNG is derived only from its scenario
seed (see the driver determinism test).

Results need no wire format of their own.  A
:class:`~repro.sim.cell.CellResult` is columnar data (the event log is
frozen into typed arrays when the run ends), so a worker pickles it as
array buffers and the parent gets back the same shape a serial run
returns.

Flight recording (``record=``) extends the same pattern: when a
:class:`~repro.obs.recorder.RunRecorder` is given, *every* cell —
serial or pooled — runs inside a fresh scoped registry, so the frames
each cell's :class:`~repro.obs.recorder.CellRecorder` samples are
exactly that cell's metrics delta, and the recorded frame payloads are
identical between serial and ``--workers N`` execution.  Serial cells
stream frames straight into the sink as they are sampled; pooled cells
collect frames worker-side and the parent appends the batches, in
scenario order, once every cell is in.
"""

from __future__ import annotations

import multiprocessing
import pickle
from multiprocessing.connection import Connection, wait
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.obs.recorder import CellRecorder, RunRecorder
from repro.sim.cell import CellResult

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.workload.scenarios import CellScenario

#: What a worker sends home per cell: the result, the cell's metrics
#: delta, and its flight-recorder frames (None when not recording).
CellPayload = Tuple[CellResult, obs.Snapshot, Optional[List[dict]]]


def _run_scoped(scenario: CellScenario,
                interval: Optional[float]) -> CellPayload:
    """Simulate one cell inside a fresh scoped registry.

    A forked worker begins with a copy of the parent's registry;
    recording into that copy and snapshotting it wholesale would
    re-count everything the parent had already recorded.  The fresh
    scoped registry makes the returned snapshot exactly the delta of
    this one cell run, so the parent can merge each snapshot once — no
    double counts, no drops.
    """
    recorder = None if interval is None \
        else CellRecorder(scenario.name, interval=interval)
    with obs.scoped_registry() as registry:
        result = scenario.run(recorder=recorder)
    frames = None if recorder is None else recorder.frames
    return result, registry.snapshot(), frames


def _worker(scenarios: Sequence[CellScenario], interval: Optional[float],
            conn: Connection) -> None:
    """Worker process body: run each cell index the parent sends until
    it sends None.

    A failure is sent home as the exception itself (or, when that does
    not pickle, as a ``RuntimeError`` naming it) for the parent to
    re-raise, and then raised here too, so the worker's traceback goes
    to its standard error and the worker exits.
    """
    for index in iter(conn.recv, None):
        try:
            payload = _run_scoped(scenarios[index], interval)
        except Exception as exc:
            try:
                conn.send((index, exc))
            except (pickle.PicklingError, TypeError, AttributeError):
                conn.send((index, RuntimeError(
                    f"cell {scenarios[index].name}: {exc!r}")))
            raise
        conn.send((index, payload))


def _run_forked(scenarios: Sequence[CellScenario], n: int,
                interval: Optional[float]) -> List[CellPayload]:
    """Run every scenario on ``n`` forked workers; payloads in input order.

    Each worker gets one index at a time, so a long cell never holds
    shorter ones back in a queue behind it.  A worker's exception is
    re-raised here, and no child outlives the call.
    """
    ctx = multiprocessing.get_context("fork")
    conns: List[Connection] = []
    procs = []
    for _ in range(n):
        parent_end, child_end = ctx.Pipe()
        proc = ctx.Process(target=_worker,
                           args=(scenarios, interval, child_end), daemon=True)
        proc.start()
        child_end.close()
        conns.append(parent_end)
        procs.append(proc)
    payloads: Dict[int, CellPayload] = {}
    try:
        next_index = 0
        for conn in conns:
            if next_index < len(scenarios):
                conn.send(next_index)
                next_index += 1
        while len(payloads) < len(scenarios):
            for conn in wait(conns):
                try:
                    index, payload = conn.recv()
                except EOFError:
                    raise RuntimeError(
                        "a run_cells worker exited without a result") from None
                if isinstance(payload, BaseException):
                    raise payload
                payloads[index] = payload
                if next_index < len(scenarios):
                    conn.send(next_index)
                    next_index += 1
        for conn in conns:
            conn.send(None)
        for proc in procs:
            proc.join()
    finally:
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
            proc.join()
        for conn in conns:
            conn.close()
    return [payloads[i] for i in range(len(scenarios))]


def run_cells(scenarios: Sequence[CellScenario],
              workers: Optional[int] = None,
              record: Optional[RunRecorder] = None) -> List[CellResult]:
    """Simulate cells, fanning out over processes when it pays off.

    ``workers=None`` or ``<= 1`` runs inline, and so does a platform
    without the ``fork`` start method; otherwise
    ``min(workers, len(scenarios))`` forked workers share the scenarios
    (see :func:`_run_forked`).  Results come back in input order
    regardless of completion order, and worker-side obs metrics are
    merged into this process's registry in scenario order (exactly once
    per cell), so metrics agree between serial and parallel runs.

    With ``record`` set, frames land in the recorder's sink in scenario
    order in both modes; the caller still owns
    :meth:`RunRecorder.finalize`/``close`` (the final frame should be
    sampled after trace encoding so it matches the obs report).
    """
    if not scenarios:
        # Zero cells is a legal (if degenerate) campaign/CLI input: no
        # workers — but a recording run still gets its sink flushed so
        # the frames file is complete and parseable.
        if record is not None:
            record.sink.flush()
        return []
    # ``workers`` <= 1 (including 0 and negatives) means serial, and the
    # worker count never exceeds the scenario count: requesting
    # ``--workers 8`` for 3 cells forks 3 processes, not 8 with 5 idle.
    serial = workers is None or workers <= 1 or len(scenarios) == 1 \
        or "fork" not in multiprocessing.get_all_start_methods()
    registry = obs.get_registry()
    if serial:
        if record is None:
            return [scenario.run() for scenario in scenarios]
        # Recording: scope one fresh registry per cell, so the sampled
        # frames are each cell's own delta (serial == pooled), and merge
        # the snapshots exactly once, in scenario order.
        results: List[CellResult] = []
        for scenario in scenarios:
            cell_rec = record.for_cell(scenario.name)
            with obs.scoped_registry() as scoped:
                results.append(scenario.run(recorder=cell_rec))
            registry.merge_snapshot(scoped.snapshot())
        record.sink.flush()
        return results
    n = min(workers, len(scenarios))
    obs.gauge("sim.pool_workers", n)
    obs.inc("sim.parallel_batches")
    payloads = _run_forked(scenarios, n,
                           None if record is None else record.interval)
    for scenario, (_, snapshot, frames) in zip(scenarios, payloads):
        registry.merge_snapshot(snapshot)
        if record is not None:
            record.merge_frames(frames, cell=scenario.name)
    if record is not None:
        record.sink.flush()
    return [result for result, _, _ in payloads]


def default_workers() -> int:
    """A sensible pool size: all-but-one CPU, at least one."""
    return max(1, (multiprocessing.cpu_count() or 2) - 1)
