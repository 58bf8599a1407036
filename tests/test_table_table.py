"""Unit tests for the Table relational operators."""

import numpy as np
import pytest

from repro.table import Table, concat
from repro.util.errors import SchemaError


@pytest.fixture
def table():
    return Table({
        "tier": ["prod", "beb", "beb", "free"],
        "cpu": [0.5, 0.1, 0.2, 0.05],
        "tasks": [3, 1, 7, 2],
    })


class TestConstruction:
    def test_len_and_columns(self, table):
        assert len(table) == 4
        assert table.column_names == ["tier", "cpu", "tasks"]

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(SchemaError):
            Table({"a": [1, 2], "b": [1]})

    def test_empty_table(self):
        t = Table()
        assert len(t) == 0
        assert t.column_names == []

    def test_bad_column_name(self):
        with pytest.raises(SchemaError):
            Table({"": [1]})

    def test_from_rows(self):
        t = Table.from_rows([{"a": 1, "b": "x"}, {"a": 2, "b": "y"}])
        assert t.column("a").to_list() == [1, 2]
        assert t.column("b").to_list() == ["x", "y"]

    def test_from_rows_empty_with_schema(self):
        t = Table.from_rows([], columns=["a", "b"])
        assert t.column_names == ["a", "b"]
        assert len(t) == 0

    def test_from_rows_key_mismatch(self):
        with pytest.raises(SchemaError):
            Table.from_rows([{"a": 1}, {"b": 2}])


class TestAccess:
    def test_unknown_column_raises_with_suggestions(self, table):
        with pytest.raises(SchemaError, match="available"):
            table.column("nope")

    def test_contains(self, table):
        assert "cpu" in table
        assert "nope" not in table

    def test_row(self, table):
        assert table.row(0) == {"tier": "prod", "cpu": 0.5, "tasks": 3}

    def test_row_negative_index(self, table):
        assert table.row(-1)["tier"] == "free"

    def test_row_out_of_range(self, table):
        with pytest.raises(IndexError):
            table.row(4)

    def test_iter_rows(self, table):
        rows = list(table.iter_rows())
        assert len(rows) == 4 and rows[1]["tier"] == "beb"


class TestOperators:
    def test_select_orders_columns(self, table):
        assert table.select("cpu", "tier").column_names == ["cpu", "tier"]

    def test_drop(self, table):
        assert table.drop("tasks").column_names == ["tier", "cpu"]

    def test_drop_unknown_raises(self, table):
        with pytest.raises(SchemaError):
            table.drop("nope")

    def test_rename(self, table):
        t = table.rename({"cpu": "ncu"})
        assert "ncu" in t and "cpu" not in t

    def test_filter_expr(self, table):
        t = table.filter(table["tier"] == "beb")
        assert len(t) == 2
        assert t.column("cpu").to_list() == [0.1, 0.2]

    def test_filter_mask(self, table):
        t = table.filter(np.array([True, False, False, True]))
        assert t.column("tier").to_list() == ["prod", "free"]

    def test_filter_wrong_length_mask(self, table):
        with pytest.raises(SchemaError):
            table.filter(np.array([True]))

    def test_filter_non_boolean(self, table):
        with pytest.raises(SchemaError):
            table.filter(np.array([1, 2, 3, 4]))

    def test_compound_predicate(self, table):
        t = table.filter((table["tier"] == "beb") & (table["cpu"] > 0.15))
        assert len(t) == 1

    def test_take_and_head(self, table):
        assert table.take([2, 0]).column("tier").to_list() == ["beb", "prod"]
        assert len(table.head(2)) == 2

    def test_with_column_from_expr(self, table):
        t = table.with_column("double", table["cpu"] * 2)
        assert t.column("double").to_list() == [1.0, 0.2, 0.4, 0.1]

    def test_with_column_replaces(self, table):
        t = table.with_column("cpu", [1.0, 1.0, 1.0, 1.0])
        assert t.column("cpu").sum() == 4.0

    def test_with_column_wrong_length(self, table):
        with pytest.raises(SchemaError):
            table.with_column("x", [1.0])

    def test_sort_single_key(self, table):
        t = table.sort("cpu")
        assert t.column("cpu").to_list() == [0.05, 0.1, 0.2, 0.5]

    def test_sort_descending(self, table):
        t = table.sort("cpu", descending=True)
        assert t.column("cpu").to_list() == [0.5, 0.2, 0.1, 0.05]

    def test_sort_multi_key_stable(self, table):
        t = table.sort("tier", "tasks")
        assert t.column("tier").to_list() == ["beb", "beb", "free", "prod"]
        assert t.column("tasks").to_list()[:2] == [1, 7]

    def test_sort_no_keys(self, table):
        with pytest.raises(SchemaError):
            table.sort()

    def test_distinct(self):
        t = Table({"a": [1, 1, 2], "b": ["x", "x", "y"]})
        assert len(t.distinct()) == 2

    def test_distinct_subset(self):
        t = Table({"a": [1, 1, 2], "b": ["x", "y", "z"]})
        assert len(t.distinct("a")) == 2


class TestConcat:
    def test_concat_stacks(self):
        a = Table({"x": [1], "s": ["a"]})
        b = Table({"x": [2], "s": ["b"]})
        merged = concat([a, b])
        assert merged.column("x").to_list() == [1, 2]
        assert merged.column("s").to_list() == ["a", "b"]

    def test_concat_schema_mismatch(self):
        with pytest.raises(SchemaError):
            concat([Table({"x": [1]}), Table({"y": [1]})])

    def test_concat_empty_list(self):
        assert len(concat([])) == 0


class TestRendering:
    def test_to_string_contains_headers(self, table):
        text = table.to_string()
        assert "tier" in text and "prod" in text

    def test_to_string_truncates(self):
        t = Table({"x": list(range(100))})
        assert "more rows" in t.to_string(max_rows=5)

    def test_to_dict(self, table):
        assert table.to_dict()["tasks"] == [3, 1, 7, 2]
