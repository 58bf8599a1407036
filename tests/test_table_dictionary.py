"""Equivalence and property tests for dictionary-encoded string columns.

A string :class:`~repro.table.Column` holds unsigned codes into a sorted
vocabulary.  Every operation here is checked against a plain reference
over a Python list of ``str`` (the object-array semantics string
columns had before they were encoded): take, filter, sort, concat of
columns with different vocabularies, the comparison operators, isin,
unique, min and max, and a store round trip with its chunk statistics.
"""

from __future__ import annotations

import io
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.store import chunk_stats, read_chunk, write_chunk
from repro.table import Column, Table, concat
from repro.util.errors import SchemaError

# -- the reference: plain lists of str -----------------------------------------

OPS = {"eq": operator.eq, "ne": operator.ne, "lt": operator.lt,
       "le": operator.le, "gt": operator.gt, "ge": operator.ge}


def reference_sort_order(values):
    """Row order of the pre-dictionary ``Table.sort`` on one string column:
    a stable lexsort over a fixed-width ``<U`` copy of the values."""
    return np.lexsort([np.asarray([str(v) for v in values])]).tolist()


def reference_compare(values, op, scalar):
    return [OPS[op](v, scalar) for v in values]


def reference_unique(values):
    return sorted(set(values))


def string_column(xs):
    """``Column(xs)``; an empty list would make a float column."""
    return Column(xs) if xs else Column(np.empty(0, dtype=object))


# -- strategies ------------------------------------------------------------------

# ``<U`` arrays drop trailing NULs, so the sort reference cannot order
# "a" and "a\x00"; every other character, non-ASCII included, is fair.
_TEXT = st.text(alphabet=st.characters(exclude_categories=("Cs",),
                                       exclude_characters="\x00"),
                max_size=6)
_WORDS = st.one_of(_TEXT, st.sampled_from(["", "prod", "beb", "é", "ユーザー",
                                           "a,b\nc", "Z", "zz"]))
STRINGS = st.lists(_WORDS, max_size=60)


@st.composite
def many_distinct(draw):
    """More than 256 distinct values (a uint16 code dtype), shuffled, with
    duplicates."""
    n = draw(st.integers(257, 400))
    words = [f"w{i:04d}·" for i in range(n)]
    extra = draw(st.lists(st.sampled_from(words), max_size=50))
    return draw(st.permutations(words + extra))


VALUES = st.one_of(STRINGS, many_distinct())


# -- construction ----------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(VALUES)
def test_values_round_trip_as_plain_str(xs):
    col = string_column(xs)
    assert col.kind == "str"
    out = col.values.tolist()
    assert out == xs
    assert all(type(v) is str for v in out)
    distinct = len(set(xs))
    assert len(col.vocabulary) == distinct
    assert col.codes.dtype == (np.uint8 if distinct <= 256 else np.uint16)
    assert col.vocabulary.tolist() == sorted(set(xs))


def test_uint32_codes_past_65536_values():
    words = [f"{i:06d}" for i in range(70_000)]
    col = Column(words[::-1])
    assert col.codes.dtype == np.uint32
    assert col.values.tolist() == words[::-1]
    assert col.min() == words[0] and col.max() == words[-1]


def test_empty_string_column():
    col = Column(np.empty(0, dtype=object))
    assert col.kind == "str" and len(col) == 0
    assert col.values.tolist() == [] and col.unique() == []
    assert (col == "x").tolist() == []


# -- row operations --------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(VALUES, st.data())
def test_take_and_filter(xs, data):
    col = string_column(xs)
    if xs:
        idx = data.draw(st.lists(st.integers(0, len(xs) - 1), max_size=40))
        assert col[np.asarray(idx, dtype=np.int64)].values.tolist() \
            == [xs[i] for i in idx]
    mask = data.draw(st.lists(st.booleans(), min_size=len(xs),
                              max_size=len(xs)))
    got = Table({"s": col}).filter(np.asarray(mask, dtype=bool))
    assert got["s"].values.tolist() == [x for x, m in zip(xs, mask) if m]


@settings(max_examples=60, deadline=None)
@given(VALUES)
def test_sort_matches_fixed_width_key(xs):
    table = Table({"s": string_column(xs), "row": np.arange(len(xs))})
    assert table.sort("s")["row"].to_list() == reference_sort_order(xs)


@settings(max_examples=60, deadline=None)
@given(st.lists(VALUES, min_size=1, max_size=4))
def test_concat_merges_vocabularies(parts):
    tables = [Table({"s": string_column(p)}) for p in parts]
    merged = concat(tables)["s"]
    flat = [x for p in parts for x in p]
    assert merged.values.tolist() == flat
    assert merged.vocabulary.tolist() == sorted(set(flat))


# -- comparisons and reductions --------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(VALUES, _WORDS, st.sampled_from(sorted(OPS)), st.booleans())
def test_compare_with_scalar(xs, other, op, from_column):
    scalar = xs[0] if from_column and xs else other
    col = string_column(xs)
    got = getattr(operator, op)(col, scalar)
    assert isinstance(got, np.ndarray) and got.dtype == bool
    assert got.tolist() == reference_compare(xs, op, scalar)


@settings(max_examples=60, deadline=None)
@given(VALUES, st.lists(_WORDS, max_size=5))
def test_isin_unique_min_max(xs, probe):
    col = string_column(xs)
    wanted = set(probe) | set(xs[:2])
    assert col.isin(wanted).tolist() == [x in wanted for x in xs]
    assert col.unique() == reference_unique(xs)
    if xs:
        assert col.min() == min(xs) and col.max() == max(xs)
        assert type(col.min()) is str


@settings(max_examples=40, deadline=None)
@given(VALUES, st.data())
def test_operations_after_filter_ignore_unused_vocabulary(xs, data):
    # A filtered column keeps its parent's vocabulary; reductions must
    # read only the codes still present.
    mask = data.draw(st.lists(st.booleans(), min_size=len(xs),
                              max_size=len(xs)))
    kept = [x for x, m in zip(xs, mask) if m]
    col = Table({"s": string_column(xs)}).filter(np.asarray(mask, dtype=bool))["s"]
    assert col.unique() == reference_unique(kept)
    assert col.compact().vocabulary.tolist() == reference_unique(kept)
    if kept:
        assert col.min() == min(kept) and col.max() == max(kept)


# -- the store -------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(VALUES, st.data())
def test_store_round_trip_and_stats(xs, data):
    # A chunk of a filtered column: the writer drops unused vocabulary.
    mask = data.draw(st.lists(st.booleans(), min_size=len(xs),
                              max_size=len(xs)))
    kept = [x for x, m in zip(xs, mask) if m]
    table = Table({"s": string_column(xs), "n": np.arange(len(xs))}).filter(
        np.asarray(mask, dtype=bool))
    buf = io.BytesIO()
    write_chunk(table, buf)
    buf.seek(0)
    back = read_chunk(buf)["s"]
    assert back.values.tolist() == kept
    assert back.vocabulary.tolist() == reference_unique(kept)
    stats = chunk_stats(table)
    if kept:
        assert stats["s"] == {"min": min(kept), "max": max(kept)}
    else:
        assert stats == {}


@pytest.mark.parametrize("values", [["a", 1], [1, "a"], ["a", None],
                                    ["a", ["b"]], ["a", float("nan")]])
def test_ingestion_rejects_non_strings(values):
    with pytest.raises(SchemaError, match="unsupported column element"):
        Column(values)
    with pytest.raises(SchemaError, match="unsupported column element"):
        Column(np.asarray(values, dtype=object))
