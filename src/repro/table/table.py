"""The relational :class:`Table` — the workhorse of every analysis.

A table is an ordered mapping of column names to equal-length
:class:`~repro.table.column.Column` objects.  All operators return new
tables; nothing mutates in place.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Union

import numpy as np

from repro.table.column import Column, concat_columns
from repro.util.errors import SchemaError

if TYPE_CHECKING:
    from repro.table.groupby import GroupBy


class Table:
    """An immutable-by-convention columnar table."""

    def __init__(self, columns: Mapping[str, Union[Column, Sequence, np.ndarray]] = ()):
        self._columns: Dict[str, Column] = {}
        length: Optional[int] = None
        for name, values in dict(columns).items():
            if not isinstance(name, str) or not name:
                raise SchemaError(f"column names must be non-empty strings, got {name!r}")
            column = values if isinstance(values, Column) else Column(values)
            if length is None:
                length = len(column)
            elif len(column) != length:
                raise SchemaError(
                    f"column {name!r} has {len(column)} rows, expected {length}"
                )
            self._columns[name] = column
        self._length = length or 0

    # -- construction --------------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Iterable[Mapping[str, object]], columns: Optional[List[str]] = None) -> "Table":
        """Build a table from an iterable of row dicts.

        All rows must share the same keys; ``columns`` fixes the column
        order (and is required for an empty iterable with a known schema).
        """
        rows = list(rows)
        if not rows:
            return cls({name: [] for name in (columns or [])})
        names = columns or list(rows[0].keys())
        data: Dict[str, list] = {name: [] for name in names}
        for i, row in enumerate(rows):
            if set(row.keys()) != set(names):
                raise SchemaError(f"row {i} keys {sorted(row)} != expected {sorted(names)}")
            for name in names:
                data[name].append(row[name])
        return cls(data)

    # -- basic protocol --------------------------------------------------------

    def __len__(self) -> int:
        return self._length

    @property
    def column_names(self) -> List[str]:
        return list(self._columns)

    def column(self, name: str) -> Column:
        """The named column; raises :class:`SchemaError` if absent."""
        try:
            return self._columns[name]
        except KeyError:
            raise SchemaError(
                f"no column {name!r}; available: {sorted(self._columns)}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._columns

    def __getitem__(self, name: str) -> Column:
        return self.column(name)

    def row(self, i: int) -> Dict[str, object]:
        """Row ``i`` as a dict (supports negative indices)."""
        if not -self._length <= i < self._length:
            raise IndexError(f"row {i} out of range for table of {self._length} rows")
        return {name: c[i] for name, c in self._columns.items()}

    def iter_rows(self) -> Iterator[Dict[str, object]]:
        for i in range(self._length):
            yield self.row(i)

    # -- relational operators ------------------------------------------------

    def select(self, *names: str) -> "Table":
        """Keep only the named columns, in the given order."""
        return Table({name: self.column(name) for name in names})

    def drop(self, *names: str) -> "Table":
        """Remove the named columns."""
        for name in names:
            self.column(name)  # raise early on unknown names
        return Table({n: c for n, c in self._columns.items() if n not in names})

    def rename(self, mapping: Mapping[str, str]) -> "Table":
        """Rename columns; unknown source names are an error."""
        for src in mapping:
            self.column(src)
        return Table({mapping.get(n, n): c for n, c in self._columns.items()})

    def filter(self, mask: Union[np.ndarray, Sequence[bool]]) -> "Table":
        """Rows where the boolean ``mask`` (e.g. ``t["tier"] == "prod"``) holds."""
        mask = np.asarray(mask)
        if mask.dtype != bool:
            raise SchemaError(f"filter predicate must be boolean, got dtype {mask.dtype}")
        if len(mask) != self._length:
            raise SchemaError(f"filter mask has {len(mask)} rows, table has {self._length}")
        return Table({n: c[mask] for n, c in self._columns.items()})

    def take(self, indices: Union[np.ndarray, Sequence[int]]) -> "Table":
        """Rows at the given positions, in the given order."""
        idx = np.asarray(indices, dtype=np.int64)
        return Table({n: c[idx] for n, c in self._columns.items()})

    def head(self, n: int = 10) -> "Table":
        return self.take(np.arange(min(n, self._length)))

    def with_column(self, name: str, values: Union[Column, Sequence, np.ndarray]) -> "Table":
        """Return a copy with ``name`` added (or replaced)."""
        column = values if isinstance(values, Column) else Column(values)
        if len(column) != self._length:
            raise SchemaError(
                f"new column {name!r} has {len(column)} rows, table has {self._length}"
            )
        data = dict(self._columns)
        data[name] = column
        return Table(data)

    def sort(self, *names: str, descending: bool = False) -> "Table":
        """Stable sort by one or more columns."""
        if not names:
            raise SchemaError("sort requires at least one column name")
        # numpy lexsort uses the *last* key as primary; feed keys reversed.
        order = np.lexsort([self.column(name).keys for name in reversed(names)])
        if descending:
            order = order[::-1]
        return self.take(order)

    def distinct(self, *names: str) -> "Table":
        """Unique rows (by the named columns, or all columns)."""
        subset = names or tuple(self._columns)
        seen = set()
        keep: List[int] = []
        cols = [self.column(n).keys for n in subset]
        for i in range(self._length):
            key = tuple(c[i] for c in cols)
            if key not in seen:
                seen.add(key)
                keep.append(i)
        return self.take(np.asarray(keep, dtype=np.int64))

    def group_by(self, *names: str) -> "GroupBy":
        """Start a group-by over the named key columns."""
        from repro.table.groupby import GroupBy

        return GroupBy(self, list(names))

    def join(self, other: "Table", on: Union[str, Sequence[str]], how: str = "inner",
             suffix: str = "_right") -> "Table":
        """Hash join with ``other`` on shared key column(s)."""
        from repro.table.join import join as _join

        return _join(self, other, on=on, how=how, suffix=suffix)

    # -- output ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, List]:
        return {n: c.to_list() for n, c in self._columns.items()}

    def to_string(self, max_rows: int = 20) -> str:
        """A fixed-width text rendering (used by the report driver)."""
        names = self.column_names
        if not names:
            return "(empty table)"
        shown = min(self._length, max_rows)

        def fmt(v) -> str:
            if isinstance(v, (float, np.floating)):
                return f"{v:.6g}"
            return str(v)

        rows = [[fmt(self._columns[n][i]) for n in names] for i in range(shown)]
        widths = [max(len(n), *(len(r[j]) for r in rows)) if rows else len(n)
                  for j, n in enumerate(names)]
        lines = ["  ".join(n.ljust(w) for n, w in zip(names, widths))]
        lines.append("  ".join("-" * w for w in widths))
        for r in rows:
            lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)))
        if shown < self._length:
            lines.append(f"... ({self._length - shown} more rows)")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"Table({self._length} rows x {len(self._columns)} cols: {self.column_names})"


def concat(tables: Sequence[Table]) -> Table:
    """Vertically stack tables with identical schemas."""
    tables = [t for t in tables if t is not None]
    if not tables:
        return Table()
    names = tables[0].column_names
    for t in tables[1:]:
        if t.column_names != names:
            raise SchemaError(
                f"concat schema mismatch: {t.column_names} != {names}"
            )
    return Table({name: concat_columns([t.column(name) for t in tables])
                  for name in names})
