"""Shared fixtures: session-scoped small simulations and traces.

Simulations are the expensive part of the suite, so each scenario is run
once per session and shared by every test that only reads from it.  The
actual simulate-and-encode setup lives in :mod:`tests.trace_fixtures`,
shared with ``benchmarks/conftest.py`` and parametrized on cell size.
"""

from __future__ import annotations

import pytest

from repro.trace import encode_cell
from tests.trace_fixtures import FAULTY_SCALE, TEST_SCALE, build_run


@pytest.fixture(scope="session")
def run_2019():
    """One small 2019-era cell: ``(finished CellSim, CellResult)``."""
    return build_run("2019", TEST_SCALE)


@pytest.fixture(scope="session")
def result_2019(run_2019):
    """One small 2019-era cell simulation result."""
    return run_2019[1]


@pytest.fixture(scope="session")
def sim_2019(run_2019):
    """The simulator that produced ``result_2019``, for end-state checks."""
    return run_2019[0]


@pytest.fixture(scope="session")
def result_2011():
    """One small 2011-era cell simulation result."""
    return build_run("2011", TEST_SCALE)[1]


@pytest.fixture(scope="session")
def trace_2019(result_2019):
    return encode_cell(result_2019)


@pytest.fixture(scope="session")
def trace_2011(result_2011):
    return encode_cell(result_2011)


@pytest.fixture(scope="session")
def traces_2019(trace_2019):
    return [trace_2019]


@pytest.fixture(scope="session")
def result_2019_faulty():
    """The failure-heavy 2019 cell: heavy faults + mixed archetypes."""
    return build_run("2019", FAULTY_SCALE)[1]


@pytest.fixture(scope="session")
def trace_2019_faulty(result_2019_faulty):
    return encode_cell(result_2019_faulty)


@pytest.fixture(scope="session")
def traces_2011(trace_2011):
    return [trace_2011]
