"""Unit tests for group-by aggregation and joins."""

import numpy as np
import pytest

from repro.table import Table
from repro.util.errors import SchemaError


@pytest.fixture
def usage():
    return Table({
        "tier": ["prod", "beb", "beb", "prod", "free"],
        "cell": ["a", "a", "b", "b", "a"],
        "cpu": [0.5, 0.1, 0.2, 0.3, 0.05],
    })


class TestGroupBy:
    def test_sum_by_single_key(self, usage):
        out = usage.group_by("tier").agg(total=("cpu", "sum")).sort("tier")
        assert out.column("tier").to_list() == ["beb", "free", "prod"]
        assert out.column("total").to_list() == pytest.approx([0.3, 0.05, 0.8])

    def test_multi_key(self, usage):
        out = usage.group_by("tier", "cell").agg(n=("cpu", "count"))
        assert len(out) == 5  # every (tier, cell) pair here is unique

    def test_multiple_aggregations(self, usage):
        out = usage.group_by("cell").agg(
            total=("cpu", "sum"), biggest=("cpu", "max"), n=("tier", "count"),
        ).sort("cell")
        assert out.column("n").to_list() == [3, 2]
        assert out.column("biggest").to_list() == pytest.approx([0.5, 0.3])

    def test_custom_callable(self, usage):
        out = usage.group_by("cell").agg(spread=("cpu", lambda a: float(a.max() - a.min())))
        assert set(out.column_names) == {"cell", "spread"}

    def test_mean_median_var_std(self):
        t = Table({"k": ["x", "x", "x"], "v": [1.0, 2.0, 3.0]})
        out = t.group_by("k").agg(m=("v", "mean"), md=("v", "median"),
                                  var=("v", "var"), sd=("v", "std"))
        assert out.column("m").to_list() == [2.0]
        assert out.column("md").to_list() == [2.0]
        assert out.column("var").to_list() == [1.0]
        assert out.column("sd").to_list() == [1.0]

    def test_first_last_nunique(self, usage):
        out = usage.group_by("cell").agg(
            first=("tier", "first"), last=("tier", "last"), k=("tier", "nunique"),
        ).sort("cell")
        assert out.column("first").to_list() == ["prod", "beb"]
        assert out.column("k").to_list() == [3, 2]

    def test_numeric_agg_on_strings_rejected(self, usage):
        with pytest.raises(SchemaError):
            usage.group_by("cell").agg(x=("tier", "sum"))

    def test_unknown_agg_name(self, usage):
        with pytest.raises(SchemaError, match="unknown aggregation"):
            usage.group_by("cell").agg(x=("cpu", "frobnicate"))

    def test_bad_spec_shape(self, usage):
        with pytest.raises(SchemaError):
            usage.group_by("cell").agg(x="cpu")

    def test_no_aggregations(self, usage):
        with pytest.raises(SchemaError):
            usage.group_by("cell").agg()

    def test_no_keys(self, usage):
        with pytest.raises(SchemaError):
            usage.group_by()

    def test_empty_table(self):
        t = Table({"k": [], "v": []})
        out = t.group_by("k").agg(total=("v", "sum"))
        assert len(out) == 0
        assert out.column_names == ["k", "total"]

    def test_size_shorthand(self, usage):
        out = usage.group_by("tier").size().sort("tier")
        assert out.column("count").to_list() == [2, 1, 2]

    def test_groups_returns_indices(self, usage):
        groups = usage.group_by("cell").groups()
        assert set(groups) == {("a",), ("b",)}
        assert groups[("a",)].tolist() == [0, 1, 4]

    def test_group_count_matches_unique_pairs(self):
        rng = np.random.default_rng(0)
        t = Table({
            "k1": [f"k{int(i)}" for i in rng.integers(0, 5, 200)],
            "k2": rng.integers(0, 7, 200),
            "v": rng.random(200),
        })
        out = t.group_by("k1", "k2").agg(n=("v", "count"))
        pairs = {(a, b) for a, b in zip(t.column("k1"), t.column("k2"))}
        assert len(out) == len(pairs)
        assert int(out.column("n").sum()) == 200


class TestJoin:
    def test_inner_join(self):
        left = Table({"id": [1, 2, 3], "x": [10.0, 20.0, 30.0]})
        right = Table({"id": [2, 3, 4], "y": ["b", "c", "d"]})
        out = left.join(right, on="id")
        assert out.column("id").to_list() == [2, 3]
        assert out.column("y").to_list() == ["b", "c"]

    def test_left_join_fills_missing(self):
        left = Table({"id": [1, 2], "x": [1.0, 2.0]})
        right = Table({"id": [2], "y": [9.0]})
        out = left.join(right, on="id", how="left").sort("id")
        y = out.column("y").to_list()
        assert np.isnan(y[0]) and y[1] == 9.0

    def test_left_join_fill_values_by_kind(self):
        left = Table({"id": [1]})
        right = Table({"id": [2], "s": ["x"], "i": [5], "b": [True]})
        out = left.join(right, on="id", how="left")
        assert out.column("s").to_list() == [""]
        assert out.column("i").to_list() == [-1]
        assert out.column("b").to_list() == [False]

    def test_one_to_many(self):
        left = Table({"id": [1], "x": [0.0]})
        right = Table({"id": [1, 1], "y": [1.0, 2.0]})
        assert len(left.join(right, on="id")) == 2

    def test_multi_key_join(self):
        left = Table({"a": [1, 1], "b": ["x", "y"], "v": [1.0, 2.0]})
        right = Table({"a": [1], "b": ["y"], "w": [9.0]})
        out = left.join(right, on=["a", "b"])
        assert out.column("v").to_list() == [2.0]

    def test_shared_column_suffixed(self):
        left = Table({"id": [1], "v": [1.0]})
        right = Table({"id": [1], "v": [2.0]})
        out = left.join(right, on="id")
        assert out.column("v").to_list() == [1.0]
        assert out.column("v_right").to_list() == [2.0]

    def test_unknown_join_type(self):
        t = Table({"id": [1]})
        with pytest.raises(SchemaError):
            t.join(t, on="id", how="outer")

    def test_missing_key_column(self):
        with pytest.raises(SchemaError):
            Table({"id": [1]}).join(Table({"other": [1]}), on="id")
