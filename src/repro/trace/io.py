"""Trace persistence: CSV-per-table directories and chunked stores.

Two on-disk formats share one API:

* ``format="csv"`` — one CSV per table plus a JSON metadata sidecar (the
  2011 trace's native shape).  Human-readable, diff-able, slow at scale.
* ``format="store"`` — the chunked columnar layout of
  :mod:`repro.store`: row-group chunks with manifest statistics,
  predicate-pushdown scans, and parallel aggregation (the 2019 trace's
  BigQuery shape).  ``load_trace`` returns a *lazily* backed
  :class:`StoreBackedTraceDataset` for this format — tables decode on
  first access.

Both writers stage into a temp directory and rename atomically, so a
killed run never leaves a half-written trace behind.
``convert_csv_to_store`` / ``convert_store_to_csv`` re-encode a trace
from one format to the other (``borg-repro convert``).

This is the one module that knows both layers: :mod:`repro.store`
imports nothing from :mod:`repro.trace`.
"""

from __future__ import annotations

import json
import os
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

from repro.store.manifest import MANIFEST_FILE
from repro.store.reader import TraceStore
from repro.store.writer import DEFAULT_CHUNK_ROWS, write_store
from repro.table import Table, read_csv, write_csv
from repro.trace.dataset import SCHEMA_2019, TraceDataset
from repro.util.errors import SchemaError
from repro.util.fs import atomic_directory

_META_FILE = "metadata.json"
FORMATS = ("csv", "store")


class _LazyTables(Mapping):
    """Mapping of table name -> Table that decodes on first access."""

    def __init__(self, store: TraceStore):
        self._store = store
        self._loaded: Dict[str, Table] = {}

    def __getitem__(self, name: str) -> Table:
        if name not in self._loaded:
            self._loaded[name] = self._store.read_table(name)
        return self._loaded[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._store.table_names)

    def __len__(self) -> int:
        return len(self._store.table_names)

    @property
    def loaded_tables(self) -> List[str]:
        """Names decoded so far (observability for tests and tuning)."""
        return sorted(self._loaded)


@dataclass
class StoreBackedTraceDataset(TraceDataset):
    """A TraceDataset whose tables decode lazily from a store.

    Every analysis works on it unchanged; each table is decoded only on
    first access.  ``store`` exposes the underlying :class:`TraceStore`
    (its scans and chunk-cache statistics).
    """

    store: Optional[TraceStore] = None

    def __post_init__(self):
        # Validate against the manifest instead of materializing tables;
        # report every mismatched table at once.
        problems = []
        for name, columns in SCHEMA_2019.items():
            if name not in self.store.manifest.table_names:
                problems.append(f"missing table {name!r}")
                continue
            got = self.store.manifest.column_names(name)
            if got != columns:
                problems.append(
                    f"table {name!r} has columns {got}, expected {columns}"
                )
        if problems:
            raise ValueError("; ".join(problems))

    @property
    def loaded_tables(self) -> List[str]:
        return self.tables.loaded_tables  # type: ignore[union-attr]

    def __repr__(self) -> str:
        sizes = {name: self.store.rows(name) for name in self.store.table_names}
        return (f"StoreBackedTraceDataset(cell={self.cell!r}, era={self.era}, "
                f"rows={sizes}, loaded={self.loaded_tables})")


def _trace_meta(trace: TraceDataset) -> dict:
    return {
        "cell": trace.cell,
        "era": trace.era,
        "horizon": trace.horizon,
        "sample_period": trace.sample_period,
        "utc_offset_hours": trace.utc_offset_hours,
        "capacity_cpu": trace.capacity_cpu,
        "capacity_mem": trace.capacity_mem,
    }


def save_trace(trace: TraceDataset, directory: Union[str, os.PathLike],
               format: str = "csv",
               chunk_rows: int = DEFAULT_CHUNK_ROWS) -> None:
    """Write ``trace`` under ``directory`` (replaced atomically).

    The whole trace is staged in a hidden sibling directory and renamed
    into place on success, so readers only ever see complete traces.
    """
    if format not in FORMATS:
        raise ValueError(f"unknown trace format {format!r}; use one of {FORMATS}")
    if format == "store":
        write_store(trace, directory, chunk_rows=chunk_rows)
        return
    with atomic_directory(directory) as tmp:
        for name, table in trace.tables.items():
            write_csv(table, tmp / f"{name}.csv")
        with open(tmp / _META_FILE, "w") as f:
            json.dump(_trace_meta(trace), f, indent=2)


def detect_format(directory: Union[str, os.PathLike]) -> Optional[str]:
    """Which trace format lives at ``directory`` (None when neither)."""
    path = Path(directory)
    if (path / MANIFEST_FILE).exists():
        return "store"
    if (path / _META_FILE).exists():
        return "csv"
    return None


def load_trace(directory: Union[str, os.PathLike],
               format: Optional[str] = None,
               cache_chunks: int = 64) -> TraceDataset:
    """Read a trace previously written by :func:`save_trace`.

    The format is auto-detected unless forced.  Store-backed traces come
    back as a lazy :class:`StoreBackedTraceDataset` (tables decode on
    first access); CSV traces load eagerly.
    """
    path = Path(directory)
    if format is None:
        format = detect_format(path)
        if format is None:
            raise SchemaError(
                f"no trace at {path} (neither {_META_FILE} nor {MANIFEST_FILE})"
            )
    elif format not in FORMATS:
        raise ValueError(f"unknown trace format {format!r}; use one of {FORMATS}")
    if format == "store":
        store = TraceStore(path, cache_chunks=cache_chunks)
        return StoreBackedTraceDataset(tables=_LazyTables(store), store=store,
                                       **store.meta)

    meta_path = path / _META_FILE
    if not meta_path.exists():
        raise SchemaError(f"no trace metadata at {meta_path}")
    with open(meta_path) as f:
        meta = json.load(f)
    tables = {}
    problems: List[str] = []
    for name, columns in SCHEMA_2019.items():
        csv_path = path / f"{name}.csv"
        if not csv_path.exists():
            problems.append(f"missing table file {csv_path.name}")
            continue
        table = read_csv(csv_path)
        if table.column_names != columns:
            problems.append(
                f"{csv_path.name}: columns {table.column_names} != schema {columns}"
            )
            continue
        tables[name] = table
    if problems:
        raise SchemaError(
            f"{path}: {len(problems)} table(s) failed to load: "
            + "; ".join(problems)
        )
    return TraceDataset(tables=tables, **meta)


def convert_csv_to_store(src: Union[str, os.PathLike],
                         dst: Union[str, os.PathLike],
                         chunk_rows: int = DEFAULT_CHUNK_ROWS) -> TraceStore:
    """Re-encode a CSV trace directory as a store; returns it opened."""
    write_store(load_trace(src, format="csv"), dst, chunk_rows=chunk_rows)
    return TraceStore(dst)


def convert_store_to_csv(src: Union[str, os.PathLike],
                         dst: Union[str, os.PathLike]) -> None:
    """Materialize a store back into the flat CSV layout."""
    save_trace(load_trace(src, format="store"), dst, format="csv")
