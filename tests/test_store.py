"""Tests for repro.store: chunk format, manifest statistics, predicate
pushdown, the parallel executor, the chunk cache, and end-to-end
integration with the trace layer and the analysis reducers."""

import io
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.analysis.common import (
    alloc_set_ids,
    hourly_tier_series,
    job_usage_integrals,
)
from repro.store import (
    DEFAULT_CLUSTER_BY,
    Agg,
    And,
    Between,
    ChunkCache,
    Compare,
    IsIn,
    Manifest,
    Or,
    chunk_stats,
    merge_partials,
    open_store,
    partial_aggregate,
    read_chunk,
    read_chunk_header,
    write_chunk,
    write_store,
)
from repro.table import Table
from repro.trace import load_trace, save_trace
from repro.trace.dataset import SCHEMA_2019, TraceDataset
from repro.trace.schema import TIME_COLUMNS
from repro.util.errors import SchemaError


def _dataset(usage_rows=2000, chunk_seed=0):
    """A synthetic five-table dataset with a time-sorted usage table."""
    rng = np.random.default_rng(chunk_seed)
    n = usage_rows
    tables = {name: Table({c: [] for c in cols})
              for name, cols in SCHEMA_2019.items()}
    tables["instance_usage"] = Table({
        "start_time": np.sort(rng.uniform(0, 48 * 3600, n)),
        "duration": np.full(n, 300.0),
        "collection_id": rng.integers(1, 200, n),
        "instance_index": rng.integers(0, 8, n),
        "machine_id": rng.integers(0, 64, n),
        "tier": np.asarray(rng.choice(["prod", "beb", "mid", "free"], n),
                           dtype=object),
        "vertical_scaling": np.asarray(["none"] * n, dtype=object),
        "in_alloc": rng.integers(0, 2, n).astype(bool),
        "avg_cpu": rng.uniform(0, 1, n),
        "max_cpu": rng.uniform(0, 1, n),
        "avg_mem": rng.uniform(0, 1, n),
        "max_mem": rng.uniform(0, 1, n),
        "limit_cpu": rng.uniform(0, 2, n),
        "limit_mem": rng.uniform(0, 2, n),
    })
    return TraceDataset(cell="t", era="2019", horizon=48 * 3600.0,
                        sample_period=300.0, utc_offset_hours=0.0,
                        capacity_cpu=64.0, capacity_mem=64.0, tables=tables)


@pytest.fixture()
def store_dir(tmp_path):
    ds = _dataset()
    write_store(ds, tmp_path / "s", chunk_rows=128)
    return tmp_path / "s", ds


class TestChunkFormat:
    def test_roundtrip_all_kinds(self):
        table = Table({
            "f": [1.5, float("inf"), float("-inf"), float("nan"), -0.0],
            "i": [0, -1, 2**62, -(2**62), 7],
            "b": [True, False, True, True, False],
            "s": ["", "héllo", "ユーザー", "a,b\nc", "True"],
        })
        buf = io.BytesIO()
        write_chunk(table, buf)
        buf.seek(0)
        back = read_chunk(buf)
        assert back.column_names == table.column_names
        for name in table.column_names:
            assert back.column(name).kind == table.column(name).kind
            if name == "s":
                assert back.column(name).values.tolist() == table.column(name).values.tolist()
            else:
                np.testing.assert_array_equal(back.column(name).values,
                                              table.column(name).values)

    def test_projection_skips_columns(self, tmp_path):
        table = Table({"a": [1, 2], "b": ["x", "y"], "c": [0.5, 1.5]})
        path = tmp_path / "c.rsc"
        write_chunk(table, path)
        got = read_chunk(path, columns=["c", "a"])
        assert got.column_names == ["c", "a"]
        np.testing.assert_array_equal(got.column("a").values, [1, 2])

    def test_unknown_projection_column(self, tmp_path):
        path = tmp_path / "c.rsc"
        write_chunk(Table({"a": [1]}), path)
        with pytest.raises(SchemaError, match="no column"):
            read_chunk(path, columns=["nope"])

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.rsc"
        path.write_bytes(b"definitely not a chunk")
        with pytest.raises(SchemaError, match="magic"):
            read_chunk(path)

    def test_header_has_layout(self, tmp_path):
        path = tmp_path / "c.rsc"
        write_chunk(Table({"a": [1, 2, 3]}), path)
        header = read_chunk_header(path)
        assert header["rows"] == 3
        assert header["columns"][0]["kind"] == "int"

    def test_numeric_columns_are_readonly(self, tmp_path):
        # Numeric columns wrap the read buffer without a copy, so they
        # come back read-only; columns are immutable by convention.
        path = tmp_path / "c.rsc"
        write_chunk(Table({"f": [1.5, 2.5], "i": [1, 2]}), path)
        table = read_chunk(path)
        for name in ("f", "i"):
            values = table.column(name).values
            assert not values.flags.writeable
            with pytest.raises((ValueError, RuntimeError)):
                values[0] = 0


def _truncate(path, nbytes=3):
    data = path.read_bytes()
    path.write_bytes(data[:-nbytes])


def _string_payload(path):
    """A one-column chunk's bytes (mutable) and where its payload starts."""
    header = read_chunk_header(path)
    data = bytearray(path.read_bytes())
    return data, len(data) - header["columns"][0]["nbytes"]


def _write_raw_chunk(path, header, payload):
    blob = json.dumps(header).encode("utf-8")
    path.write_bytes(b"RSTORE2\n" + len(blob).to_bytes(8, "little") + blob
                     + payload)


class TestDamagedChunks:
    """A damaged chunk raises a SchemaError naming the chunk file; it
    never decodes into shortened or shifted values."""

    def test_truncated_string_column(self, tmp_path):
        path = tmp_path / "c.rsc"
        write_chunk(Table({"n": [1, 2, 3],
                           "user": ["alice", "bob", "carol"]}), path)
        _truncate(path)
        with pytest.raises(SchemaError, match=r"c\.rsc.*truncated"):
            read_chunk(path)
        # The intact column still decodes on its own.
        assert read_chunk(path, columns=["n"]).column("n").values.tolist() \
            == [1, 2, 3]

    def test_truncated_float_column(self, tmp_path):
        path = tmp_path / "c.rsc"
        write_chunk(Table({"s": ["x", "y"], "f": [0.5, 1.5]}), path)
        _truncate(path)
        with pytest.raises(SchemaError, match=r"c\.rsc.*truncated"):
            read_chunk(path)

    def test_decreasing_string_offsets(self, tmp_path):
        path = tmp_path / "c.rsc"
        write_chunk(Table({"s": ["ab", "cd"]}), path)
        data, start = _string_payload(path)
        # The payload opens with the vocabulary offsets [0, 2, 4] (then
        # the blob "abcd" and the codes): point the middle one past the
        # end.
        data[start + 8:start + 16] = (5).to_bytes(8, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(SchemaError, match="offsets"):
            read_chunk(path)

    def test_offsets_past_the_vocabulary_blob(self, tmp_path):
        path = tmp_path / "c.rsc"
        write_chunk(Table({"s": ["ab", "cd"]}), path)
        data, start = _string_payload(path)
        data[start + 16:start + 24] = (64).to_bytes(8, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(SchemaError, match=r"c\.rsc.*offsets do not tile"):
            read_chunk(path)

    def test_code_outside_vocabulary(self, tmp_path):
        path = tmp_path / "c.rsc"
        write_chunk(Table({"s": ["ab", "cd", "ab"]}), path)
        data, _ = _string_payload(path)
        data[-1] = 2  # the vocabulary has two entries
        path.write_bytes(bytes(data))
        with pytest.raises(SchemaError, match=r"c\.rsc.*code 2 is outside"):
            read_chunk(path)

    @pytest.mark.parametrize("blob", [b"cdab", b"abab"])
    def test_vocabulary_not_strictly_increasing(self, tmp_path, blob):
        path = tmp_path / "c.rsc"
        write_chunk(Table({"s": ["ab", "cd"]}), path)
        data, start = _string_payload(path)
        data[start + 24:start + 28] = blob
        path.write_bytes(bytes(data))
        with pytest.raises(SchemaError,
                           match=r"c\.rsc.*not strictly increasing"):
            read_chunk(path)

    def test_truncated_code_array(self, tmp_path):
        # The header agrees with the file, but the code array is one
        # row short.
        path = tmp_path / "c.rsc"
        write_chunk(Table({"s": ["ab", "cd", "ab"]}), path)
        header = read_chunk_header(path)
        payload = path.read_bytes()[-header["columns"][0]["nbytes"]:][:-1]
        header["columns"][0]["nbytes"] = len(payload)
        _write_raw_chunk(path, header, payload)
        with pytest.raises(SchemaError, match=r"c\.rsc.*code array"):
            read_chunk(path)

    def test_rejects_version_1_chunk(self, tmp_path):
        path = tmp_path / "c.rsc"
        write_chunk(Table({"s": ["ab"]}), path)
        data = bytearray(path.read_bytes())
        data[:8] = b"RSTORE1\n"
        path.write_bytes(bytes(data))
        with pytest.raises(SchemaError, match=r"c\.rsc.*RSTORE1"):
            read_chunk(path)

    @pytest.mark.parametrize("last", ["tier", "avg_cpu"])
    def test_truncated_chunk_in_store(self, tmp_path, last):
        write_store(_dataset(usage_rows=300), tmp_path / "s", chunk_rows=128)
        store = open_store(tmp_path / "s")
        path = store.chunk_path(store.manifest.chunks("instance_usage")[0]["file"])
        # Rewrite the chunk with ``last`` as its final column, then cut
        # into that column's payload.
        table = read_chunk(path)
        order = [c for c in table.column_names if c != last] + [last]
        write_chunk(table.select(*order), path)
        _truncate(path)
        with pytest.raises(SchemaError, match="truncated"):
            open_store(tmp_path / "s").read_table("instance_usage")


class TestDamagedStore:
    """A store whose chunk files disagree with its manifest is rejected
    by name, not read into a table the manifest contradicts."""

    @pytest.fixture()
    def usage_store(self, tmp_path):
        write_store(_dataset(usage_rows=300), tmp_path / "s", chunk_rows=128)
        return tmp_path / "s"

    def test_chunk_row_count_differs_from_manifest(self, usage_store):
        store = open_store(usage_store)
        path = store.chunk_path(store.manifest.chunks("instance_usage")[0]["file"])
        write_chunk(read_chunk(path).take(np.arange(10)), path)
        assert open_store(usage_store).scan("instance_usage").count() == 300
        where = r"instance_usage/chunk-00000\.rsc holds 10 rows.*lists 128"
        with pytest.raises(SchemaError, match=where):
            open_store(usage_store).read_table("instance_usage")
        scan = open_store(usage_store).scan("instance_usage").where(
            Compare("avg_cpu", ">=", 0.0))
        with pytest.raises(SchemaError, match=where):
            scan.count()
        with pytest.raises(SchemaError, match=where):
            scan.count(workers=2)

    def test_missing_chunk_file(self, usage_store):
        store = open_store(usage_store)
        store.chunk_path(store.manifest.chunks("instance_usage")[1]["file"]).unlink()
        with pytest.raises(SchemaError,
                           match=r"instance_usage/chunk-00001\.rsc is missing"):
            open_store(usage_store).read_table("instance_usage")

    def test_rejects_version_1_manifest(self, usage_store):
        manifest = usage_store / "manifest.json"
        data = json.loads(manifest.read_text())
        data["version"] = 1
        manifest.write_text(json.dumps(data))
        with pytest.raises(SchemaError, match="store version 1 is not supported"):
            open_store(usage_store)


class TestChunkStats:
    def test_min_max_per_kind(self):
        stats = chunk_stats(Table({
            "i": [3, -1, 7], "f": [0.5, 2.5, 1.0], "s": ["b", "a", "c"],
            "flag": [True, False, True],
        }))
        assert stats["i"] == {"min": -1, "max": 7}
        assert stats["f"] == {"min": 0.5, "max": 2.5}
        assert stats["s"] == {"min": "a", "max": "c"}
        assert "flag" not in stats  # booleans carry no pruning power

    def test_nan_aware_bounds(self):
        stats = chunk_stats(Table({"f": [float("nan"), 1.0, 3.0]}))
        assert stats["f"] == {"min": 1.0, "max": 3.0}

    def test_all_nan_column_has_no_stats(self):
        stats = chunk_stats(Table({"f": [float("nan")], "i": [1]}))
        assert "f" not in stats and "i" in stats

    def test_empty_table(self):
        assert chunk_stats(Table({"a": []})) == {}


class TestPredicates:
    STATS = {"x": {"min": 10, "max": 20}, "s": {"min": "b", "max": "d"}}

    @pytest.mark.parametrize("pred,expected", [
        (Compare("x", "==", 15), True),
        (Compare("x", "==", 25), False),
        (Compare("x", "<", 10), False),
        (Compare("x", "<", 11), True),
        (Compare("x", "<=", 10), True),
        (Compare("x", ">", 20), False),
        (Compare("x", ">=", 20), True),
        (Compare("x", "!=", 15), True),
        (Between("x", 21, 30), False),
        (Between("x", 0, 9), False),
        (Between("x", 18, 30), True),
        (IsIn("x", [1, 2, 3]), False),
        (IsIn("x", [1, 12]), True),
        (Compare("s", "==", "c"), True),
        (Compare("s", "==", "zzz"), False),
        (Compare("unknown", "==", 5), True),  # no stats -> cannot prune
    ])
    def test_maybe_matches(self, pred, expected):
        assert pred.maybe_matches(self.STATS) is expected

    def test_ne_prunes_constant_chunk(self):
        assert Compare("x", "!=", 5).maybe_matches({"x": {"min": 5, "max": 5}}) is False

    def test_and_or_combinators(self):
        yes = Compare("x", "==", 15)
        no = Compare("x", "==", 99)
        assert (yes & no).maybe_matches(self.STATS) is False
        assert (yes | no).maybe_matches(self.STATS) is True
        assert And(yes, yes).maybe_matches(self.STATS) is True
        assert Or(no, no).maybe_matches(self.STATS) is False

    def test_type_confusion_never_prunes(self):
        assert Compare("s", "<", 5).maybe_matches(self.STATS) is True

    def test_masks_match_numpy(self):
        table = Table({"x": [1, 5, 10, 5], "s": ["a", "b", "c", "a"]})
        np.testing.assert_array_equal(
            Compare("x", ">=", 5).mask(table), [False, True, True, True])
        np.testing.assert_array_equal(
            Between("x", 2, 9).mask(table), [False, True, False, True])
        np.testing.assert_array_equal(
            IsIn("s", ["a"]).mask(table), [True, False, False, True])
        np.testing.assert_array_equal(
            (Compare("x", "==", 5) & IsIn("s", ["b"])).mask(table),
            [False, True, False, False])
        np.testing.assert_array_equal(
            (Compare("x", "==", 1) | Compare("x", "==", 10)).mask(table),
            [True, False, True, False])

    def test_predicates_are_picklable(self):
        pred = (Between("t", 0, 10) & Compare("tier", "==", "prod")) | IsIn("p", [1, 2])
        clone = pickle.loads(pickle.dumps(pred))
        table = Table({"t": [5.0], "tier": ["prod"], "p": [9]})
        np.testing.assert_array_equal(clone.mask(table), pred.mask(table))

    def test_unknown_operator(self):
        with pytest.raises(ValueError, match="unknown operator"):
            Compare("x", "~=", 1)


class TestWriterReader:
    def test_exact_roundtrip_without_clustering(self, tmp_path):
        ds = _dataset(usage_rows=300)
        write_store(ds, tmp_path / "s", chunk_rows=64, cluster_by=None)
        store = open_store(tmp_path / "s")
        for name, table in ds.tables.items():
            back = store.read_table(name)
            assert back.column_names == table.column_names
            for c in table.column_names:
                assert back.column(c).kind == table.column(c).kind
                if back.column(c).kind == "str":
                    assert back.column(c).values.tolist() == table.column(c).values.tolist()
                else:
                    np.testing.assert_array_equal(back.column(c).values,
                                                  table.column(c).values)

    def test_default_clustering_sorts_by_time(self, tmp_path):
        ds = _dataset(usage_rows=300)
        # Shuffle usage rows, then check the store comes back time-sorted.
        shuffled = ds.instance_usage.take(
            np.random.default_rng(1).permutation(300))
        ds.tables["instance_usage"] = shuffled
        write_store(ds, tmp_path / "s", chunk_rows=64)
        back = open_store(tmp_path / "s").read_table("instance_usage")
        times = back.column("start_time").values
        assert (np.diff(times) >= 0).all()
        assert sorted(back.column("avg_cpu").values.tolist()) == \
            sorted(shuffled.column("avg_cpu").values.tolist())

    def test_default_clustering_matches_schema_time_columns(self):
        # The store restates the time-column rule so it need not import
        # the trace layer; it must still agree with the canonical schema.
        for name, columns in SCHEMA_2019.items():
            key = next((c for c in DEFAULT_CLUSTER_BY if c in columns), None)
            assert key == TIME_COLUMNS.get(name), name

    def test_store_package_imports_no_trace_module(self):
        # A fresh interpreter, so modules other tests imported don't count.
        code = ("import sys, repro.store; "
                "print(sorted(m for m in sys.modules "
                "if m == 'repro.trace' or m.startswith('repro.trace.')))")
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", code], check=True, env=env,
                             capture_output=True, text=True).stdout
        assert out.strip() == "[]"

    def test_empty_tables_have_no_chunks_but_keep_schema(self, store_dir):
        path, _ = store_dir
        store = open_store(path)
        assert store.manifest.chunks("machine_events") == []
        table = store.read_table("machine_events")
        assert len(table) == 0
        assert table.column_names == SCHEMA_2019["machine_events"]

    def test_crash_mid_write_leaves_no_store(self, tmp_path, monkeypatch):
        ds = _dataset(usage_rows=100)
        calls = {"n": 0}
        import repro.store.writer as writer_mod

        real = writer_mod.write_chunk

        def exploding(table, dest):
            calls["n"] += 1
            if calls["n"] > 1:
                raise OSError("disk full")
            return real(table, dest)

        monkeypatch.setattr(writer_mod, "write_chunk", exploding)
        with pytest.raises(OSError):
            write_store(ds, tmp_path / "s", chunk_rows=16)
        assert not (tmp_path / "s").exists()
        assert list(tmp_path.iterdir()) == []  # no temp litter either

    def test_crash_preserves_previous_store(self, tmp_path, monkeypatch):
        write_store(_dataset(usage_rows=50), tmp_path / "s", chunk_rows=32)
        import repro.store.writer as writer_mod

        def exploding(table, dest):
            raise OSError("disk full")

        monkeypatch.setattr(writer_mod, "write_chunk", exploding)
        with pytest.raises(OSError):
            write_store(_dataset(usage_rows=80), tmp_path / "s", chunk_rows=32)
        # The original store is still complete and loadable.
        assert open_store(tmp_path / "s").rows("instance_usage") == 50

    def test_bad_chunk_rows(self, tmp_path):
        with pytest.raises(ValueError, match="chunk_rows"):
            write_store(_dataset(10), tmp_path / "s", chunk_rows=0)

    def test_manifest_rejects_foreign_json(self, tmp_path):
        (tmp_path / "manifest.json").write_text(json.dumps({"format": "parquet"}))
        with pytest.raises(SchemaError, match="manifest"):
            Manifest.load(tmp_path)

    def test_manifest_rejects_newer_version(self, tmp_path):
        (tmp_path / "manifest.json").write_text(json.dumps(
            {"format": "repro-store", "version": 99, "chunk_rows": 1,
             "meta": {}, "tables": {}}))
        with pytest.raises(SchemaError, match="version"):
            Manifest.load(tmp_path)


class TestScan:
    def test_time_window_skips_chunks(self, store_dir):
        """The acceptance criterion: a time-windowed aggregate decodes
        strictly fewer chunks than exist in the table."""
        path, ds = store_dir
        store = open_store(path)
        scan = (store.scan("instance_usage")
                     .where(Between("start_time", 0, 4 * 3600))
                     .select("avg_cpu"))
        result = scan.aggregate(Agg("sum", "avg_cpu"), Agg("count"))
        stats = scan.last_stats
        assert stats.chunks_total == len(store.manifest.chunks("instance_usage"))
        assert 0 < stats.chunks_decoded < stats.chunks_total
        assert stats.chunks_skipped == stats.chunks_total - stats.chunks_decoded
        assert stats.skip_fraction > 0
        # And the pruned answer is the exact answer.
        mask = ds.instance_usage.column("start_time").values <= 4 * 3600
        expected = ds.instance_usage.column("avg_cpu").values[mask]
        assert result["count"] == int(mask.sum())
        assert result["sum(avg_cpu)"] == pytest.approx(expected.sum())

    def test_filtered_table_matches_in_memory(self, store_dir):
        path, ds = store_dir
        store = open_store(path)
        pred = Compare("tier", "==", "prod") & Between("start_time", 0, 10 * 3600)
        got = (store.scan("instance_usage").where(pred)
                    .select("start_time", "avg_cpu").to_table())
        iu = ds.instance_usage
        mask = (iu.column("tier").values == "prod") & \
            (iu.column("start_time").values <= 10 * 3600)
        assert len(got) == int(mask.sum())
        np.testing.assert_allclose(np.sort(got.column("avg_cpu").values),
                                   np.sort(iu.column("avg_cpu").values[mask]))

    def test_projection_narrows_decoding(self, store_dir):
        path, _ = store_dir
        store = open_store(path)
        scan = (store.scan("instance_usage")
                     .where(Compare("tier", "==", "prod"))
                     .select("avg_mem"))
        scan.to_table()
        decoded_keys = list(store.cache._entries)
        assert decoded_keys, "serial scans should populate the cache"
        for _, _, columns in decoded_keys:
            assert set(columns) == {"tier", "avg_mem"}

    def test_count_fast_path_decodes_nothing(self, store_dir):
        path, ds = store_dir
        store = open_store(path)
        scan = store.scan("instance_usage")
        assert scan.count() == len(ds.instance_usage)
        assert scan.last_stats.chunks_decoded == 0

    def test_unknown_table_and_column(self, store_dir):
        path, _ = store_dir
        store = open_store(path)
        with pytest.raises(SchemaError, match="no table"):
            store.scan("nope")
        with pytest.raises(SchemaError, match="no column"):
            store.scan("instance_usage").select("nope")

    def test_scan_composition_is_immutable(self, store_dir):
        path, _ = store_dir
        store = open_store(path)
        base = store.scan("instance_usage")
        narrowed = base.select("avg_cpu").where(Between("start_time", 0, 3600))
        assert base.predicate is None
        assert base.output_columns() != narrowed.output_columns()

    def test_empty_result_keeps_projection(self, store_dir):
        path, _ = store_dir
        store = open_store(path)
        got = (store.scan("instance_usage")
                    .where(Compare("start_time", ">", 1e12))
                    .select("avg_cpu", "tier").to_table())
        assert len(got) == 0
        assert got.column_names == ["avg_cpu", "tier"]
        assert got.column("tier").kind == "str"


class TestExecutor:
    EDGES = (0.0, 0.25, 0.5, 0.75, 1.0)

    def _aggs(self):
        return [Agg("count"), Agg("sum", "avg_cpu"), Agg("min", "avg_cpu"),
                Agg("max", "avg_cpu"), Agg("mean", "avg_cpu"),
                Agg("histogram", "avg_cpu", edges=self.EDGES)]

    def test_serial_parallel_and_ground_truth_agree(self, store_dir):
        path, ds = store_dir
        store = open_store(path)
        pred = Between("start_time", 2 * 3600, 20 * 3600)
        serial = store.scan("instance_usage").where(pred).aggregate(*self._aggs())
        parallel = store.scan("instance_usage").where(pred).aggregate(
            *self._aggs(), workers=3)
        iu = ds.instance_usage
        t = iu.column("start_time").values
        vals = iu.column("avg_cpu").values[(t >= 2 * 3600) & (t <= 20 * 3600)]
        for result in (serial, parallel):
            assert result["count"] == len(vals)
            assert result["sum(avg_cpu)"] == pytest.approx(vals.sum())
            assert result["min(avg_cpu)"] == pytest.approx(vals.min())
            assert result["max(avg_cpu)"] == pytest.approx(vals.max())
            assert result["mean(avg_cpu)"] == pytest.approx(vals.mean())
            np.testing.assert_array_equal(
                result["histogram(avg_cpu)"],
                np.histogram(np.clip(vals, 0, 1), bins=np.asarray(self.EDGES))[0])

    def test_histogram_partials_merge_by_addition(self):
        aggs = [Agg("histogram", "x", edges=[0, 1, 2])]
        p1 = partial_aggregate(Table({"x": [0.5, 1.5]}), aggs)
        p2 = partial_aggregate(Table({"x": [0.25, 0.75]}), aggs)
        merged = merge_partials([p1, p2], aggs)
        np.testing.assert_array_equal(merged["histogram(x)"], [3, 1])

    def test_empty_match_identities(self, store_dir):
        path, _ = store_dir
        store = open_store(path)
        result = (store.scan("instance_usage")
                       .where(Compare("start_time", ">", 1e12))
                       .aggregate(Agg("count"), Agg("sum", "avg_cpu"),
                                  Agg("min", "avg_cpu"), Agg("mean", "avg_cpu")))
        assert result["count"] == 0
        assert result["sum(avg_cpu)"] == 0.0
        assert result["min(avg_cpu)"] is None
        assert np.isnan(result["mean(avg_cpu)"])

    def test_numeric_aggregate_over_string_column_fails_cleanly(self):
        with pytest.raises(SchemaError, match="string column"):
            partial_aggregate(Table({"tier": ["prod", "beb"]}),
                              [Agg("sum", "tier")])

    def test_agg_validation(self):
        with pytest.raises(ValueError, match="unknown aggregate"):
            Agg("median", "x")
        with pytest.raises(ValueError, match="needs a column"):
            Agg("sum")
        with pytest.raises(ValueError, match="edges"):
            Agg("histogram", "x")

    def test_aggs_are_picklable(self):
        agg = Agg("histogram", "x", edges=[0, 1], alias="h")
        clone = pickle.loads(pickle.dumps(agg))
        assert clone.alias == "h" and clone.edges == (0, 1)


class TestChunkCache:
    def test_hit_miss_counters(self, store_dir):
        path, _ = store_dir
        store = open_store(path)
        scan = store.scan("instance_usage").select("avg_cpu")
        scan.to_table()
        first = store.cache.stats
        misses_after_cold = first.misses
        assert first.hits == 0 and misses_after_cold > 0
        scan.to_table()
        assert store.cache.stats.hits == misses_after_cold
        assert store.cache.stats.misses == misses_after_cold

    def test_lru_eviction(self):
        cache = ChunkCache(capacity=2)
        t = Table({"a": [1]})
        cache.put("k1", t)
        cache.put("k2", t)
        assert cache.get("k1") is t  # k1 now most-recent
        cache.put("k3", t)           # evicts k2
        assert cache.get("k2") is None
        assert cache.get("k1") is t
        assert cache.stats.evictions == 1

    def test_zero_capacity_never_stores(self):
        cache = ChunkCache(capacity=0)
        cache.put("k", Table({"a": [1]}))
        assert len(cache) == 0
        assert cache.get("k") is None

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            ChunkCache(capacity=-1)


class TestLazyDataset:
    def test_tables_decode_on_first_access(self, store_dir):
        path, ds = store_dir
        lazy = load_trace(path)
        assert lazy.loaded_tables == []
        assert len(lazy.instance_usage) == len(ds.instance_usage)
        assert lazy.loaded_tables == ["instance_usage"]
        assert "instance_usage" in repr(lazy)

    def test_metadata_round_trips(self, store_dir):
        path, ds = store_dir
        lazy = load_trace(path)
        assert lazy.cell == ds.cell
        assert lazy.era == ds.era
        assert lazy.horizon == ds.horizon
        assert lazy.capacity_cpu == ds.capacity_cpu

    def test_mapping_protocol(self, store_dir):
        path, _ = store_dir
        lazy = load_trace(path)
        assert set(lazy.tables) == set(SCHEMA_2019)
        assert len(lazy.tables) == len(SCHEMA_2019)

    def test_schema_mismatch_reports_all_tables(self, store_dir):
        path, _ = store_dir
        manifest = json.loads((path / "manifest.json").read_text())
        del manifest["tables"]["machine_events"]
        manifest["tables"]["machine_attributes"]["columns"] = [
            {"name": "bogus", "kind": "int"}]
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError) as err:
            load_trace(path)
        message = str(err.value)
        assert "machine_events" in message
        assert "machine_attributes" in message


class TestTraceIoIntegration:
    def test_save_load_store_format(self, tmp_path):
        ds = _dataset(usage_rows=150)
        save_trace(ds, tmp_path / "t", format="store", chunk_rows=64)
        assert (tmp_path / "t" / "manifest.json").exists()
        back = load_trace(tmp_path / "t")
        np.testing.assert_allclose(
            np.sort(back.instance_usage.column("avg_cpu").values),
            np.sort(ds.instance_usage.column("avg_cpu").values))

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown trace format"):
            save_trace(_dataset(10), tmp_path / "t", format="parquet")
        with pytest.raises(ValueError, match="unknown trace format"):
            load_trace(tmp_path, format="parquet")

    def test_autodetect_neither_format(self, tmp_path):
        with pytest.raises(SchemaError, match="no trace"):
            load_trace(tmp_path)


class TestStoreBackedAnalysis:
    """The analyses run unchanged on the lazy store-backed dataset."""

    def test_reducers_match_in_memory_trace(self, trace_2019, tmp_path):
        save_trace(trace_2019, tmp_path / "s", format="store", chunk_rows=512)
        lazy = load_trace(tmp_path / "s")

        expected = job_usage_integrals(trace_2019)
        got = job_usage_integrals(lazy)
        assert got.column_names == expected.column_names
        for c in expected.column_names:
            if expected.column(c).kind == "str":
                assert got.column(c).values.tolist() == expected.column(c).values.tolist()
            else:
                np.testing.assert_allclose(
                    got.column(c).values.astype(float),
                    expected.column(c).values.astype(float), err_msg=c)
        for quantity in ("usage", "allocation"):
            expected_series = hourly_tier_series(trace_2019, "cpu", quantity)
            got_series = hourly_tier_series(lazy, "cpu", quantity)
            assert set(got_series) == set(expected_series)
            for tier in expected_series:
                np.testing.assert_allclose(got_series[tier], expected_series[tier],
                                           err_msg=f"{quantity}/{tier}")
        assert alloc_set_ids(lazy) == alloc_set_ids(trace_2019)


# -- property test: exact value + dtype preservation --------------------------

_KIND_STRATEGIES = {
    "float": st.floats(allow_nan=True, allow_infinity=True, width=64),
    "int": st.integers(min_value=-2**62, max_value=2**62),
    "bool": st.booleans(),
    "str": st.text(max_size=12),
}


@st.composite
def _trace_tables(draw):
    tables = {}
    for name, columns in SCHEMA_2019.items():
        rows = draw(st.integers(min_value=0, max_value=25))
        data = {}
        for column in columns:
            kind = draw(st.sampled_from(sorted(_KIND_STRATEGIES)))
            values = draw(st.lists(_KIND_STRATEGIES[kind],
                                   min_size=rows, max_size=rows))
            if kind == "str":
                data[column] = np.asarray(values, dtype=object)
            else:
                data[column] = np.asarray(values)
        tables[name] = Table(data)
    return tables


class TestStoreRoundTripProperty:
    @settings(max_examples=25, deadline=None)
    @given(tables=_trace_tables(), chunk_rows=st.integers(1, 16))
    def test_store_preserves_values_and_dtypes(self, tmp_path_factory,
                                               tables, chunk_rows):
        ds = TraceDataset(cell="p", era="2019", horizon=100.0,
                          sample_period=1.0, utc_offset_hours=0.0,
                          capacity_cpu=1.0, capacity_mem=1.0,
                          tables=dict(tables))
        path = tmp_path_factory.mktemp("prop") / "s"
        write_store(ds, path, chunk_rows=chunk_rows, cluster_by=None)
        store = open_store(path)
        for name, table in ds.tables.items():
            back = store.read_table(name)
            assert back.column_names == table.column_names
            for c in table.column_names:
                original = table.column(c)
                restored = back.column(c)
                assert restored.kind == original.kind, (name, c)
                if original.kind == "str":
                    assert restored.values.tolist() == original.values.tolist()
                else:
                    np.testing.assert_array_equal(restored.values,
                                                  original.values)
