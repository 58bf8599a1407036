"""Parallel multi-cell run driver.

Cell simulations are embarrassingly parallel: each
:class:`~repro.workload.scenarios.CellScenario` carries its own config,
fleet, workload and seed, and two cells never share mutable state.
:func:`run_cells` fans a batch of scenarios out over a
``multiprocessing`` pool (one task per cell, results in input order),
reusing the store executor's fork-safety pattern for observability:
every worker runs its scenario inside a *fresh* scoped
:mod:`repro.obs` registry and ships the resulting
:class:`~repro.obs.Snapshot` home with the payload, and the parent
merges each snapshot exactly once, in task order.  Counters, gauges and
span trees therefore agree between ``workers=1`` and ``workers=N`` —
and so do the simulated traces themselves, because each cell's RNG is
derived only from its scenario seed (see the driver determinism test).

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
collect frames worker-side and the parent appends each batch as its
cell completes (``imap`` keeps the merge in scenario order).
"""

from __future__ import annotations

import functools
import multiprocessing
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro import obs
from repro.obs.recorder import CellRecorder, RunRecorder
from repro.sim.cell import CellResult

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.workload.scenarios import CellScenario


def run_scenario(scenario: CellScenario,
                 recorder: Optional[CellRecorder] = None) -> CellResult:
    """Run one scenario to its horizon (the serial path / worker body)."""
    return scenario.run(recorder=recorder)


def traced_scenario_task(scenario: CellScenario) -> Tuple[CellResult,
                                                          obs.Snapshot]:
    """Worker-side wrapper: simulate one cell inside a fresh scoped
    registry and return its metrics delta alongside the result.

    Under ``fork`` start methods the worker begins with a copy of the
    parent's registry; recording into that copy and snapshotting it
    wholesale would re-count everything the parent had already recorded.
    The fresh scoped registry makes the returned snapshot exactly the
    delta of this one cell run, so the parent can merge each snapshot
    once — no double counts, no drops.
    """
    with obs.scoped_registry() as registry:
        result = run_scenario(scenario)
    return result, registry.snapshot()


def recorded_scenario_task(scenario: CellScenario, interval: float
                           ) -> Tuple[CellResult, obs.Snapshot, List[dict]]:
    """Worker-side wrapper for recorded runs: also return the cell's
    flight-recorder frames (collected in memory, merged by the parent
    in task order)."""
    cell_rec = CellRecorder(scenario.name, interval=interval)
    with obs.scoped_registry() as registry:
        result = run_scenario(scenario, recorder=cell_rec)
    return result, registry.snapshot(), cell_rec.frames


def run_cells(scenarios: Sequence[CellScenario],
              workers: Optional[int] = None,
              record: Optional[RunRecorder] = None) -> List[CellResult]:
    """Simulate cells, fanning out over processes when it pays off.

    ``workers=None`` or ``<= 1`` runs inline; otherwise a pool of
    ``min(workers, len(scenarios))`` processes maps over the scenarios
    with ``chunksize=1`` (cells are few and coarse — static chunking
    would serialize the longest cells behind each other).  Results come
    back in input order regardless of completion order, and worker-side
    obs metrics are merged into this process's registry in task order
    (exactly once per cell), so metrics agree between serial and
    parallel runs.

    With ``record`` set, frames land in the recorder's sink in scenario
    order in both modes; the caller still owns
    :meth:`RunRecorder.finalize`/``close`` (the final frame should be
    sampled after trace encoding so it matches the obs report).
    """
    if not scenarios:
        # Zero cells is a legal (if degenerate) campaign/CLI input: no
        # pool, no idle workers — but a recording run still gets its
        # sink flushed so the frames file is complete and parseable.
        if record is not None:
            record.sink.flush()
        return []
    # ``workers`` <= 1 (including 0 and negatives) means serial, and a
    # pool never exceeds the scenario count: requesting ``--workers 8``
    # for 3 cells spawns 3 processes, not 8 with 5 idle.
    serial = workers is None or workers <= 1 or len(scenarios) == 1
    if record is None:
        if serial:
            return [run_scenario(scenario) for scenario in scenarios]
        n = min(workers, len(scenarios))
        obs.gauge("sim.pool_workers", n)
        obs.inc("sim.parallel_batches")
        with multiprocessing.Pool(processes=n) as pool:
            traced = pool.map(traced_scenario_task, scenarios, chunksize=1)
        registry = obs.get_registry()
        for _, snapshot in traced:
            registry.merge_snapshot(snapshot)
        return [result for result, _ in traced]

    # Recording: scope one fresh registry per cell in every mode, so the
    # sampled frames are each cell's own delta (serial == pooled), and
    # merge the snapshots exactly once, in scenario order, as always.
    registry = obs.get_registry()
    results: List[CellResult] = []
    if serial:
        for scenario in scenarios:
            cell_rec = record.for_cell(scenario.name)
            with obs.scoped_registry() as scoped:
                results.append(run_scenario(scenario, recorder=cell_rec))
            registry.merge_snapshot(scoped.snapshot())
        record.sink.flush()
        return results
    n = min(workers, len(scenarios))
    obs.gauge("sim.pool_workers", n)
    obs.inc("sim.parallel_batches")
    task = functools.partial(recorded_scenario_task, interval=record.interval)
    with multiprocessing.Pool(processes=n) as pool:
        for scenario, (result, snapshot, frames) in zip(
                scenarios, pool.imap(task, scenarios, chunksize=1)):
            registry.merge_snapshot(snapshot)
            record.merge_frames(frames, cell=scenario.name)
            results.append(result)
    record.sink.flush()
    return results


def default_workers() -> int:
    """A sensible pool size: all-but-one CPU, at least one."""
    return max(1, (multiprocessing.cpu_count() or 2) - 1)
