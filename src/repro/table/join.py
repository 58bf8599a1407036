"""Hash joins for the table engine.

Supports inner and left joins on one or more key columns, matching the
JOIN shapes used by the paper's analyses (e.g. joining instance usage
samples against collection metadata to attribute usage to tiers).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from repro.table.column import Column
from repro.util.errors import SchemaError

_FILL = {"float": np.nan, "int": -1, "bool": False, "str": ""}


def join(left, right, on: Union[str, Sequence[str]], how: str = "inner",
         suffix: str = "_right"):
    """Join ``left`` and ``right`` on the ``on`` key column(s).

    ``how`` is ``"inner"`` or ``"left"``.  For a left join, unmatched rows
    fill right-side columns with NaN / -1 / "" / False by column kind.
    Non-key columns present on both sides get ``suffix`` appended on the
    right side.
    """
    from repro.table.table import Table

    if how not in ("inner", "left"):
        raise SchemaError(f"unsupported join type {how!r}; use 'inner' or 'left'")
    keys = [on] if isinstance(on, str) else list(on)
    if not keys:
        raise SchemaError("join requires at least one key column")
    for k in keys:
        left.column(k)
        right.column(k)

    # Build hash index over the right side.
    right_index: Dict[Tuple, List[int]] = {}
    right_keys = [right.column(k).values for k in keys]
    for i in range(len(right)):
        right_index.setdefault(tuple(c[i] for c in right_keys), []).append(i)

    left_rows: List[int] = []
    right_rows: List[int] = []  # -1 marks "no match" in a left join
    left_keys = [left.column(k).values for k in keys]
    for i in range(len(left)):
        matches = right_index.get(tuple(c[i] for c in left_keys))
        if matches:
            for j in matches:
                left_rows.append(i)
                right_rows.append(j)
        elif how == "left":
            left_rows.append(i)
            right_rows.append(-1)

    left_idx = np.asarray(left_rows, dtype=np.int64)
    right_idx = np.asarray(right_rows, dtype=np.int64)
    matched = right_idx >= 0

    data = {}
    for name in left.column_names:
        data[name] = left.column(name)[left_idx]

    for name in right.column_names:
        if name in keys:
            continue
        out_name = name if name not in data else f"{name}{suffix}"
        src = right.column(name)
        if matched.all():
            data[out_name] = src[right_idx]
            continue
        fill = _FILL[src.kind]
        values = np.empty(len(right_idx), dtype=src.values.dtype)
        values[:] = fill
        if matched.any():
            values[matched] = src.values[right_idx[matched]]
        data[out_name] = Column(values)

    return Table(data)
