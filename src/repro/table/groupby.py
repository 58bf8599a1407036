"""Group-by and aggregation for :class:`~repro.table.table.Table`.

Implementation: each key column is factorized to integer codes, the code
tuples are combined into a single group id with mixed-radix arithmetic,
and aggregations reduce over ``np.argsort``-contiguous slices.  This keeps
group-by O(n log n) and fully vectorized for numeric aggregations, which
matters because the hourly-utilization analyses group millions of usage
samples.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple, Union

import numpy as np

from repro.table.column import Column
from repro.util.errors import SchemaError

AggSpec = Tuple[str, Union[str, Callable[[np.ndarray], float]]]

_BUILTIN_AGGS: Dict[str, Callable[[np.ndarray], float]] = {
    "sum": lambda a: float(a.sum()),
    "mean": lambda a: float(a.mean()),
    "min": lambda a: a.min(),
    "max": lambda a: a.max(),
    "count": lambda a: int(len(a)),
    "median": lambda a: float(np.median(a)),
    "var": lambda a: float(a.var(ddof=1)) if len(a) > 1 else 0.0,
    "std": lambda a: float(a.std(ddof=1)) if len(a) > 1 else 0.0,
    "first": lambda a: a[0],
    "last": lambda a: a[-1],
    "nunique": lambda a: int(len(np.unique(a))) if a.dtype != object else len(set(a)),
}


def _factorize(column: Column) -> Tuple[np.ndarray, List]:
    """Map values to dense integer codes plus the code->value table.

    Numeric keys number their groups in value order; string keys in
    order of first appearance, computed from the column's codes.
    """
    if column.kind != "str":
        uniq, codes = np.unique(column.values, return_inverse=True)
        return codes.astype(np.int64), uniq.tolist()
    used, first, inverse = np.unique(column.codes, return_index=True,
                                     return_inverse=True)
    appearance = np.argsort(first)
    rank = np.empty(len(used), dtype=np.int64)
    rank[appearance] = np.arange(len(used))
    return rank[inverse], column.vocabulary[used[appearance]].tolist()


class GroupBy:
    """Deferred group-by; call :meth:`agg` to materialize."""

    def __init__(self, table, keys: List[str]):
        if not keys:
            raise SchemaError("group_by requires at least one key column")
        self._table = table
        self._keys = keys

    def agg(self, **aggregations: AggSpec):
        """Aggregate each group.

        Each keyword is an output column name mapped to a ``(source_column,
        aggregation)`` pair; the aggregation is a builtin name (``sum``,
        ``mean``, ``min``, ``max``, ``count``, ``median``, ``var``, ``std``,
        ``first``, ``last``, ``nunique``) or any callable reducing a numpy
        array to a scalar.

        >>> from repro.table import Table
        >>> t = Table({"k": ["a", "a", "b"], "v": [1.0, 2.0, 5.0]})
        >>> t.group_by("k").agg(total=("v", "sum")).sort("k").to_dict()
        {'k': ['a', 'b'], 'total': [3.0, 5.0]}
        """
        from repro.table.table import Table

        if not aggregations:
            raise SchemaError("agg requires at least one aggregation")

        n = len(self._table)
        if n == 0:
            data: Dict[str, list] = {k: [] for k in self._keys}
            for out_name in aggregations:
                data[out_name] = []
            return Table(data)

        # Combine per-key codes into one group id (mixed radix).
        combined = np.zeros(n, dtype=np.int64)
        key_uniques: List[List] = []
        key_codes: List[np.ndarray] = []
        for key in self._keys:
            codes, uniques = _factorize(self._table.column(key))
            key_codes.append(codes)
            key_uniques.append(uniques)
            combined = combined * max(len(uniques), 1) + codes

        order = np.argsort(combined, kind="stable")
        sorted_ids = combined[order]
        boundaries = np.flatnonzero(np.diff(sorted_ids)) + 1
        starts = np.concatenate([[0], boundaries])
        ends = np.concatenate([boundaries, [n]])
        rep_rows = order[starts]  # one representative row per group

        data = {}
        for i, key in enumerate(self._keys):
            data[key] = self._table.column(key)[rep_rows]

        for out_name, spec in aggregations.items():
            if not (isinstance(spec, tuple) and len(spec) == 2):
                raise SchemaError(
                    f"aggregation {out_name!r} must be a (column, agg) pair, got {spec!r}"
                )
            src, agg = spec
            fn = _BUILTIN_AGGS.get(agg) if isinstance(agg, str) else agg
            if fn is None:
                raise SchemaError(
                    f"unknown aggregation {agg!r}; builtins: {sorted(_BUILTIN_AGGS)}"
                )
            values = self._table.column(src).values[order]
            if values.dtype == object and isinstance(agg, str) and agg not in (
                "count", "first", "last", "nunique"
            ):
                raise SchemaError(f"aggregation {agg!r} is not defined for string column {src!r}")
            results = [fn(values[s:e]) for s, e in zip(starts, ends)]
            data[out_name] = Column(np.asarray(results) if not isinstance(results[0], str)
                                    else results)
        return Table(data)

    def size(self):
        """Shorthand for a pure group-size count (column ``count``)."""
        first_key = self._keys[0]
        return self.agg(count=(first_key, "count"))

    def groups(self) -> Dict[Tuple, np.ndarray]:
        """Map of key tuple -> row indices; for analyses needing raw groups."""
        n = len(self._table)
        out: Dict[Tuple, List[int]] = {}
        cols = [self._table.column(k).values for k in self._keys]
        for i in range(n):
            key = tuple(c[i] for c in cols)
            out.setdefault(key, []).append(i)
        return {k: np.asarray(v, dtype=np.int64) for k, v in out.items()}
