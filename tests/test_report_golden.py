"""The whole paper report, pinned byte for byte.

``report.full_report`` over the session's seed-11 fixture traces must
render exactly ``tests/goldens/full_report.txt``, and so must the same
traces after a ``save_trace`` -> ``load_trace`` round trip through
either on-disk format.  A second test checks how the report reads the
event and usage tables: no reducer may turn one of their string columns
into a per-row object array (``Column.values``); reducers compare
codes and map the small vocabulary instead.

Regenerate the golden after an intentional output change with::

    REPRO_REGEN_GOLDENS=1 PYTHONPATH=src python -m pytest tests/test_report_golden.py

and commit it with the change that caused it.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.analysis import report
from repro.table import Column
from repro.trace import load_trace, save_trace

GOLDEN = Path(__file__).parent / "goldens" / "full_report.txt"

#: The tables whose string columns are per-row (events and usage).
PER_ROW_TABLES = ("collection_events", "instance_events", "instance_usage")


def _render(traces_2011, traces_2019) -> str:
    return report.full_report(traces_2011, traces_2019)


def test_full_report_matches_golden(traces_2011, traces_2019):
    text = _render(traces_2011, traces_2019)
    if os.environ.get("REPRO_REGEN_GOLDENS") == "1":
        GOLDEN.write_text(text, encoding="utf-8")
    assert text == GOLDEN.read_text(encoding="utf-8"), (
        f"full_report drifted from {GOLDEN}; regenerate with "
        "REPRO_REGEN_GOLDENS=1 only for an intentional change")


@pytest.mark.parametrize("fmt", ["store", "csv"])
def test_full_report_survives_save_load(tmp_path, fmt, trace_2011,
                                        trace_2019):
    loaded = {}
    for trace in (trace_2011, trace_2019):
        save_trace(trace, tmp_path / trace.cell, format=fmt)
        loaded[trace.cell] = load_trace(tmp_path / trace.cell)
    text = _render([loaded[trace_2011.cell]], [loaded[trace_2019.cell]])
    assert text == GOLDEN.read_text(encoding="utf-8")


def test_full_report_reads_no_per_row_strings(monkeypatch, trace_2011,
                                              trace_2019):
    # Fresh datasets over the same tables start with an empty analysis
    # memo, so every reducer runs here rather than returning a result an
    # earlier test computed.
    fresh = []
    for trace in (trace_2011, trace_2019):
        fresh.append(type(trace)(
            cell=trace.cell, era=trace.era, horizon=trace.horizon,
            sample_period=trace.sample_period,
            utc_offset_hours=trace.utc_offset_hours,
            capacity_cpu=trace.capacity_cpu,
            capacity_mem=trace.capacity_mem, tables=dict(trace.tables)))
    # A column derived by take/filter/sort shares its source's
    # vocabulary object, so the vocabulary identifies the table.
    watched = {id(t.column(name).vocabulary): f"{t_name}.{name}"
               for trace in fresh for t_name in PER_ROW_TABLES
               for t in [trace.tables[t_name]]
               for name in t.column_names if t.column(name).kind == "str"}
    original = Column.values
    offenders = []

    def values(self):
        if self._vocab is not None and id(self._vocab) in watched:
            offenders.append(watched[id(self._vocab)])
        return original.fget(self)

    monkeypatch.setattr(Column, "values", property(values))
    text = _render([fresh[0]], [fresh[1]])
    monkeypatch.undo()
    assert text == GOLDEN.read_text(encoding="utf-8")
    assert not offenders, sorted(set(offenders))
