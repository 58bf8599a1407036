"""The store manifest: schema, chunk index, and per-chunk statistics.

The manifest is the store's substitute for BigQuery partition metadata:
a single JSON document listing, for every table, its column schema and
every chunk file with per-column ``min``/``max`` statistics.  Scans
consult these statistics to skip whole chunks before decoding a single
value (the "clustering" half of the substitution — see DESIGN.md).

Statistics are kept for every non-boolean column (numeric min/max, and
lexicographic min/max for strings), which subsumes the four columns the
paper's queries partition on: ``time``, ``collection_id``, ``tier`` and
``priority``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Union

import numpy as np

from repro.table.table import Table
from repro.util.errors import SchemaError

MANIFEST_FILE = "manifest.json"
FORMAT_NAME = "repro-store"
FORMAT_VERSION = 2


def chunk_stats(table: Table) -> Dict[str, Dict[str, object]]:
    """Per-column ``{"min": ..., "max": ...}`` for one chunk's rows.

    Boolean columns are skipped (two values carry no pruning power);
    empty tables yield no statistics.
    """
    stats: Dict[str, Dict[str, object]] = {}
    if len(table) == 0:
        return stats
    for name in table.column_names:
        column = table.column(name)
        if column.kind == "bool":
            continue
        if column.kind == "str":
            stats[name] = {"min": str(column.min()), "max": str(column.max())}
        elif column.kind == "int":
            stats[name] = {"min": int(column.min()), "max": int(column.max())}
        else:
            # NaN-aware bounds: plain min/max would record NaN, and every
            # range test against NaN is False — the chunk would be pruned
            # even though its other rows match.  All-NaN columns get no
            # stats at all (nothing can be proven about them).
            lo = float(np.nanmin(column.values)) if not np.isnan(column.values).all() else None
            if lo is not None:
                stats[name] = {"min": lo, "max": float(np.nanmax(column.values))}
    return stats


class Manifest:
    """Parsed view of a store's ``manifest.json``."""

    def __init__(self, data: dict, root: Optional[Path] = None):
        if data.get("format") != FORMAT_NAME:
            raise SchemaError(
                f"not a {FORMAT_NAME} manifest (format={data.get('format')!r})"
            )
        if data.get("version") != FORMAT_VERSION:
            raise SchemaError(
                f"store version {data.get('version')!r} is not supported: "
                f"this reader understands version {FORMAT_VERSION} only "
                "(convert the trace again to rewrite the store)"
            )
        self.data = data
        self.root = root

    # -- construction --------------------------------------------------------

    @classmethod
    def new(cls, meta: dict, chunk_rows: int) -> "Manifest":
        return cls({
            "format": FORMAT_NAME,
            "version": FORMAT_VERSION,
            "chunk_rows": chunk_rows,
            "meta": dict(meta),
            "tables": {},
        })

    @classmethod
    def load(cls, directory: Union[str, os.PathLike]) -> "Manifest":
        root = Path(directory)
        path = root / MANIFEST_FILE
        if not path.exists():
            raise SchemaError(f"no store manifest at {path}")
        with open(path) as f:
            return cls(json.load(f), root=root)

    def save(self, directory: Union[str, os.PathLike]) -> None:
        with open(Path(directory) / MANIFEST_FILE, "w") as f:
            json.dump(self.data, f, indent=1)

    # -- registration (writer side) -----------------------------------------

    def add_table(self, name: str, columns: List[Dict[str, str]]) -> None:
        self.data["tables"][name] = {"columns": columns, "rows": 0, "chunks": []}

    def add_chunk(self, table: str, file: str, rows: int,
                  stats: Dict[str, Dict[str, object]]) -> None:
        entry = self.data["tables"][table]
        entry["chunks"].append({"file": file, "rows": rows, "stats": stats})
        entry["rows"] += rows

    # -- reader side ---------------------------------------------------------

    @property
    def meta(self) -> dict:
        return self.data["meta"]

    @property
    def chunk_rows(self) -> int:
        return self.data["chunk_rows"]

    @property
    def table_names(self) -> List[str]:
        return list(self.data["tables"])

    def table(self, name: str) -> dict:
        try:
            return self.data["tables"][name]
        except KeyError:
            raise SchemaError(
                f"store has no table {name!r}; available: {self.table_names}"
            ) from None

    def column_names(self, table: str) -> List[str]:
        return [c["name"] for c in self.table(table)["columns"]]

    def column_kinds(self, table: str) -> Dict[str, str]:
        return {c["name"]: c["kind"] for c in self.table(table)["columns"]}

    def chunks(self, table: str) -> List[dict]:
        return self.table(table)["chunks"]

    def rows(self, table: str) -> int:
        return self.table(table)["rows"]
