"""Paper-scale simulation bench: one 2019 cell, 2k machines, one week.

A single cell at a meaningful fraction of the paper's scale (the real cells run ~12k machines for a month).  At this
size the run produces ~3.9M instance events and ~25M usage windows, so
each round takes on the order of a minute — the tests are marked
``slow`` and run once per invocation (``rounds=1``); deselect them with
``-m 'not slow'``.

Scenario construction is excluded from the timed region (it is
workload generation, not the engine under test), via ``pedantic``'s
``setup`` hook.  The test body takes no configuration knobs, so the
identical bench runs against older revisions — that is how the
``BENCH_history/`` *pre* entry for this bench was captured.
"""

from __future__ import annotations

import pytest

from repro.workload.scenarios import scenarios_2019

#: 1 cell x 2000 machines x 1 simulated week, 5-minute usage windows.
PAPER_SCALE = dict(seed=7, machines_per_cell=2000, horizon_hours=168.0,
                   arrival_scale=0.02, sample_period=300.0, cells=["a"])

#: The run is fully deterministic at fixed seed and must reproduce
#: exactly this event count (byte-level output is pinned by the
#: goldens; here we just pin the scenario identity so a silent scenario
#: drift can't masquerade as a speedup).
EXPECTED_EVENTS = 3_889_504


@pytest.mark.slow
def test_paper_week_baseline(benchmark):
    """The paper-week cell, end to end through ``CellScenario.run``."""
    def setup():
        # CellSim mutates the scenario's machines/workload in place, so
        # every round needs a scenario built from scratch.
        sc = scenarios_2019(**PAPER_SCALE)[0]
        return (sc,), {}

    result = benchmark.pedantic(lambda sc: sc.run(), setup=setup,
                                rounds=1, iterations=1, warmup_rounds=0)
    assert len(result.events.instance_events["time"]) == EXPECTED_EVENTS
