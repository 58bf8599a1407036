"""Unit tests for ``repro.obs``: timers, spans, registry, reports, CLI."""

from __future__ import annotations

import json
import math
import pickle
import re

import pytest

from repro import obs
from repro.cli import main
from repro.obs.report import CORE_SECTIONS
from repro.obs.spans import SpanNode, SpanTree
from repro.obs.timing import (
    N_BUCKETS,
    TimingHistogram,
    bucket_bounds,
    bucket_index,
)


@pytest.fixture()
def registry():
    """A fresh registry installed as current for the duration of a test."""
    with obs.scoped_registry() as fresh:
        yield fresh


# -- timing histograms --------------------------------------------------------

class TestTimingHistogram:
    def test_bucket_index_edges(self):
        assert bucket_index(0.0) == 0
        assert bucket_index(1e-7) == 0            # underflow
        assert bucket_index(1e5) == N_BUCKETS - 1  # overflow
        # Every interior value lands in a bucket whose bounds contain it.
        for value in (1e-6, 3.7e-4, 0.01, 0.5, 1.0, 42.0, 9999.0):
            lo, hi = bucket_bounds(bucket_index(value))
            assert lo <= value < hi or math.isclose(value, lo)

    def test_observe_tracks_exact_count_sum_min_max(self):
        hist = TimingHistogram()
        for value in (0.5, 0.1, 2.0, 0.3):
            hist.observe(value)
        assert hist.count == 4
        assert hist.total == pytest.approx(2.9)
        assert hist.min == 0.1
        assert hist.max == 2.0
        assert hist.mean == pytest.approx(2.9 / 4)

    def test_percentiles_clamped_to_observed_range(self):
        hist = TimingHistogram()
        for value in (0.2, 0.4, 0.6, 0.8, 1.0):
            hist.observe(value)
        for p in (50.0, 95.0, 99.0):
            assert hist.min <= hist.percentile(p) <= hist.max
        # Percentiles are monotone in p.
        assert hist.percentile(50.0) <= hist.percentile(95.0) \
            <= hist.percentile(99.0)

    def test_percentile_relative_error_bounded(self):
        hist = TimingHistogram()
        values = [1e-4 * (1.1 ** i) for i in range(200)]
        for value in values:
            hist.observe(value)
        exact = sorted(values)[int(len(values) * 0.5) - 1]
        estimate = hist.percentile(50.0)
        assert abs(estimate - exact) / exact < 0.3

    def test_percentile_validates_range(self):
        hist = TimingHistogram()
        with pytest.raises(ValueError):
            hist.percentile(0.0)
        with pytest.raises(ValueError):
            hist.percentile(101.0)
        assert hist.percentile(50.0) == 0.0  # empty histogram

    def test_merge_equals_observing_everything(self):
        a, b, combined = TimingHistogram(), TimingHistogram(), TimingHistogram()
        for i, value in enumerate(v * 1e-3 for v in range(1, 51)):
            (a if i % 2 else b).observe(value)
            combined.observe(value)
        a.merge(b)
        assert a.count == combined.count
        assert a.total == pytest.approx(combined.total)
        assert a.min == combined.min and a.max == combined.max
        for p in (50.0, 95.0, 99.0):
            assert a.percentile(p) == pytest.approx(combined.percentile(p))

    def test_dict_round_trip(self):
        hist = TimingHistogram()
        for value in (1e-5, 0.02, 3.0):
            hist.observe(value)
        clone = TimingHistogram.from_dict(
            json.loads(json.dumps(hist.to_dict())))
        assert clone.to_dict() == hist.to_dict()
        assert clone.summary() == hist.summary()

    def test_unit_survives_dict_round_trip_and_merge(self):
        hist = TimingHistogram("count")
        for v in (3, 40):
            hist.observe(v)
        clone = TimingHistogram.from_dict(
            json.loads(json.dumps(hist.to_dict())))
        assert clone.unit == "count" and clone.to_dict() == hist.to_dict()
        clone.merge(hist)
        assert clone.unit == "count" and clone.count == 4
        with pytest.raises(ValueError, match="cannot merge"):
            TimingHistogram().merge(hist)
        with pytest.raises(ValueError, match="unknown histogram unit"):
            TimingHistogram("furlongs")

    def test_summary_keys(self):
        summary = TimingHistogram().summary()
        assert set(summary) == {"count", "sum", "mean", "min", "max",
                                "p50", "p95", "p99"}


# -- spans --------------------------------------------------------------------

class TestSpans:
    def test_nesting_aggregates_by_parent_and_name(self, registry):
        for _ in range(3):
            with obs.span("outer"):
                with obs.span("inner"):
                    pass
                with obs.span("inner"):
                    pass
        assert registry.snapshot().span_structure() == (
            "root", 0, (("outer", 3, (("inner", 6, ()),)),))

    def test_same_name_different_parents_are_distinct_nodes(self, registry):
        with obs.span("a"):
            with obs.span("shared"):
                pass
        with obs.span("b"):
            with obs.span("shared"):
                pass
        assert registry.snapshot().span_structure() == (
            "root", 0, (("a", 1, (("shared", 1, ()),)),
                        ("b", 1, (("shared", 1, ()),))))

    def test_sibling_order_is_first_entry_order(self, registry):
        with obs.span("late_alphabetically_z"):
            pass
        with obs.span("early_alphabetically_a"):
            pass
        structure = registry.snapshot().span_structure()
        assert [child[0] for child in structure[2]] == \
            ["late_alphabetically_z", "early_alphabetically_a"]

    def test_span_durations_accumulate(self, registry):
        with obs.span("timed"):
            pass
        with obs.span("timed"):
            pass
        node = registry.spans.root.children["timed"]
        assert node.count == 2
        assert node.total >= 0.0

    def test_span_feeds_a_same_named_timer(self, registry):
        with obs.span("store.scan"):
            pass
        assert registry.timer("store.scan").count == 1

    def test_exception_still_closes_span(self, registry):
        with pytest.raises(RuntimeError):
            with obs.span("fails"):
                raise RuntimeError("boom")
        assert registry.spans.current is registry.spans.root
        assert registry.spans.root.children["fails"].count == 1

    def test_mis_nesting_unwinds(self):
        tree = SpanTree()
        outer = tree.enter("outer")
        tree.enter("inner")  # never exited
        tree.exit(outer, 0.5)
        assert tree.current is tree.root
        assert outer.count == 1

    def test_node_merge_recursive(self):
        a, b = SpanNode("x"), SpanNode("x")
        a.child("c").count = 2
        b.child("c").count = 3
        b.child("d").count = 1
        b.count = 4
        a.merge(b)
        assert a.count == 4
        assert a.children["c"].count == 5
        assert a.children["d"].count == 1

    def test_node_dict_round_trip(self, registry):
        with obs.span("p"):
            with obs.span("q"):
                pass
        root = registry.spans.root
        clone = SpanNode.from_dict(json.loads(json.dumps(root.to_dict())))
        assert clone.structure() == root.structure()


# -- registry -----------------------------------------------------------------

class TestRegistry:
    def test_counter_handles_are_stable(self, registry):
        handle = obs.counter("events")
        handle.inc()
        handle.inc(5)
        obs.inc("events", 4)
        assert registry.snapshot().counters["events"] == 10
        assert obs.counter("events") is handle

    def test_gauge_last_value_wins(self, registry):
        obs.gauge("depth", 3)
        obs.gauge("depth", 7)
        assert registry.snapshot().gauges["depth"] == 7.0

    def test_observe_records_into_named_timer(self, registry):
        obs.observe("phase", 0.25)
        obs.observe("phase", 0.75)
        assert obs.timer("phase").count == 2

    def test_scoped_registry_isolates_and_restores(self):
        outer = obs.get_registry()
        obs.inc("outer_only")
        with obs.scoped_registry() as inner:
            assert obs.get_registry() is inner
            obs.inc("inner_only")
            assert "outer_only" not in inner.snapshot().counters
        assert obs.get_registry() is outer
        assert "inner_only" not in obs.snapshot().counters

    def test_reset_clears_everything(self, registry):
        obs.inc("c")
        obs.gauge("g", 1)
        obs.observe("t", 0.1)
        with obs.span("s"):
            pass
        obs.reset()
        snapshot = obs.snapshot()
        assert snapshot.counters == {} and snapshot.gauges == {} \
            and snapshot.timers == {}
        assert snapshot.span_structure() == ("root", 0, ())

    def test_snapshot_pickles(self, registry):
        obs.inc("n", 2)
        obs.observe("t", 0.5)
        with obs.span("s"):
            pass
        snapshot = pickle.loads(pickle.dumps(obs.snapshot()))
        assert snapshot.counters["n"] == 2
        assert snapshot.span_structure() == ("root", 0, (("s", 1, ()),))

    def test_merge_snapshot_semantics(self, registry):
        child = obs.MetricsRegistry()
        child.inc("n", 3)
        child.gauge("g", 9)
        child.observe("t", 0.5)
        with child.span("work"):
            pass
        obs.inc("n", 1)
        obs.gauge("g", 1)
        obs.observe("t", 1.5)
        registry.merge_snapshot(child.snapshot())
        merged = registry.snapshot()
        assert merged.counters["n"] == 4          # counters add
        assert merged.gauges["g"] == 9.0          # gauges: merge wins
        timer = registry.timer("t")
        assert timer.count == 2 and timer.min == 0.5 and timer.max == 1.5

    def test_merge_grafts_spans_under_open_span(self, registry):
        child = obs.MetricsRegistry()
        with child.span("store.chunk"):
            pass
        with obs.span("store.scan"):
            registry.merge_snapshot(child.snapshot())
        assert registry.snapshot().span_structure() == (
            "root", 0, (("store.scan", 1, (("store.chunk", 1, ()),)),))

    def test_merge_snapshot_keeps_value_units(self, registry):
        child = obs.MetricsRegistry()
        child.observe("sim.queue.depth", 7, unit="count")
        child.observe("store.payload", 4096, unit="bytes")
        registry.merge_snapshot(child.snapshot())
        merged = registry.snapshot().timers
        assert merged["sim.queue.depth"]["unit"] == "count"
        assert merged["store.payload"]["unit"] == "bytes"
        with pytest.raises(ValueError, match="holds count"):
            obs.observe("sim.queue.depth", 1.0)

    def test_traced_decorator(self, registry):
        calls = []

        @obs.traced("analysis.unit_test")
        def reducer(x):
            calls.append(x)
            return x * 2

        assert reducer(21) == 42
        assert reducer.__name__ == "reducer"
        assert registry.spans.root.children["analysis.unit_test"].count == 1


# -- run reports --------------------------------------------------------------

class TestRunReport:
    def test_core_sections_always_present(self, registry):
        report = obs.run_report(command="noop")
        assert set(CORE_SECTIONS) <= set(report["sections"])
        for name in CORE_SECTIONS:
            assert report["sections"][name] == \
                {"counters": {}, "gauges": {}, "timers": {}}

    def test_sections_group_by_first_dotted_component(self, registry):
        obs.inc("sim.events", 5)
        obs.gauge("store.pool_workers", 2)
        obs.observe("analysis.fig6", 0.1)
        obs.inc("bare_name")
        report = obs.run_report()
        assert report["sections"]["sim"]["counters"]["sim.events"] == 5
        assert report["sections"]["store"]["gauges"]["store.pool_workers"] == 2.0
        assert report["sections"]["analysis"]["timers"]["analysis.fig6"][
            "count"] == 1
        assert report["sections"]["other"]["counters"]["bare_name"] == 1

    def test_write_load_round_trip(self, registry, tmp_path):
        obs.inc("sim.events", 3)
        with obs.span("sim.run"):
            pass
        path = tmp_path / "report.json"
        written = obs.write_report(path, command="test", meta={"seed": 1})
        loaded = obs.load_report(path)
        assert loaded == json.loads(json.dumps(written))
        assert loaded["schema"] == obs.SCHEMA
        assert loaded["meta"] == {"seed": 1}
        assert loaded["spans"]["children"][0]["name"] == "sim.run"

    def test_load_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"schema": "something/else"}')
        with pytest.raises(ValueError, match="not a repro.obs run report"):
            obs.load_report(path)

    def test_render_contains_spans_and_metrics(self, registry):
        with obs.span("sim.run"):
            obs.inc("sim.events_processed", 12)
        text = obs.render_report(obs.run_report(command="simulate"))
        assert "command: simulate" in text
        assert "sim.run" in text
        assert "sim.events_processed" in text and "12" in text


# -- CLI ----------------------------------------------------------------------

class TestObsCli:
    @pytest.fixture(scope="class")
    def report_path(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("obs_cli")
        path = root / "report.json"
        with obs.scoped_registry():
            rc = main(["simulate", "--cells", "d", "--out", str(root / "t"),
                       "--machines", "10", "--hours", "2", "--scale", "0.01",
                       "--format", "store", "--obs-out", str(path)])
        assert rc == 0
        return path

    def test_simulate_obs_out_has_all_core_sections(self, report_path):
        report = obs.load_report(report_path)
        assert set(CORE_SECTIONS) <= set(report["sections"])
        sim = report["sections"]["sim"]
        assert sim["counters"]["sim.events_processed"] > 0
        store = report["sections"]["store"]
        assert store["counters"]["store.chunks_written"] > 0
        span_names = [c["name"] for c in report["spans"]["children"]]
        assert "sim.run" in span_names and "store.write" in span_names

    def test_query_obs_out(self, report_path, tmp_path, capsys):
        out = tmp_path / "query.json"
        with obs.scoped_registry():
            rc = main(["query", str(report_path.parent / "t" / "d"),
                       "instance_usage", "--agg", "mean:avg_cpu",
                       "--obs-out", str(out)])
        assert rc == 0
        report = obs.load_report(out)
        assert report["command"] == "query"
        assert report["sections"]["store"]["counters"]["store.scans"] == 1

    def test_stats_renders_text(self, report_path, capsys):
        assert main(["stats", str(report_path)]) == 0
        out = capsys.readouterr().out
        assert "repro.obs run report" in out
        assert "sim.run" in out

    def test_stats_renders_queue_depth_as_a_count(self, report_path, capsys):
        report = obs.load_report(report_path)
        depth = report["sections"]["sim"]["timers"][
            "sim.queue.pending_depth_dist"]
        assert depth["unit"] == "count" and depth["count"] > 0
        assert main(["stats", str(report_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        depth_line = next(line for line in lines
                          if "sim.queue.pending_depth_dist" in line)
        fields = dict(f.split("=") for f in depth_line.split()[1:])
        for key in ("p50", "p95", "p99", "sum"):
            float(fields[key])  # a plain number: no s/ms/us suffix
        # Span timers and span trees still render in seconds.
        round_line = next(line for line in lines
                          if line.split()[:1] == ["sim.round.admit"]
                          and "p50=" in line)
        assert re.search(r"p50=[\d.]+(s|ms|us) ", round_line)
        span_line = next(line for line in lines
                         if line.split()[:1] == ["sim.run"] and "total=" in line)
        assert re.search(r"total=[\d.]+(s|ms|us)$", span_line)

    def test_stats_json_round_trips(self, report_path, capsys):
        assert main(["stats", str(report_path), "--format", "json"]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert parsed == obs.load_report(report_path)

    def test_stats_rejects_non_report(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.json"
        bogus.write_text("{}")
        assert main(["stats", str(bogus)]) == 2
        assert "unsupported repro.obs schema" in capsys.readouterr().err
