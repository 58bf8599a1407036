"""Reading a store: :class:`TraceStore`.

``TraceStore`` is the query entry point — open the manifest, build
:class:`~repro.store.scan.Scan` objects, materialize tables.  Decoded
chunks are served through an LRU :class:`~repro.store.cache.ChunkCache`,
so repeated analyses over the same store mostly hit memory.  The lazy
:class:`~repro.trace.dataset.TraceDataset` view over a store lives in
:mod:`repro.trace.io`, which knows both layers.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.store.cache import ChunkCache
from repro.store.manifest import Manifest
from repro.store.format import read_chunk
from repro.store.scan import Scan
from repro.table.column import Column
from repro.table.table import Table, concat

_EMPTY_ARRAYS = {
    "float": lambda: np.empty(0, dtype=np.float64),
    "int": lambda: np.empty(0, dtype=np.int64),
    "bool": lambda: np.empty(0, dtype=bool),
    "str": lambda: np.empty(0, dtype=object),
}


class TraceStore:
    """One on-disk chunked columnar store (one cell's trace)."""

    def __init__(self, directory: Union[str, os.PathLike],
                 cache_chunks: int = 64):
        self.path = Path(directory)
        self.manifest = Manifest.load(self.path)
        self.cache = ChunkCache(cache_chunks)

    # -- metadata ------------------------------------------------------------

    @property
    def meta(self) -> dict:
        return self.manifest.meta

    @property
    def table_names(self) -> List[str]:
        return self.manifest.table_names

    def rows(self, table: str) -> int:
        return self.manifest.rows(table)

    def chunk_path(self, file: str) -> Path:
        return self.path / file

    # -- chunk access (cached) ----------------------------------------------

    def load_chunk(self, table: str, chunk: dict,
                   columns: Optional[Sequence[str]] = None) -> Table:
        """Decode one chunk (projected), via the LRU cache.

        ``chunk`` is the table's manifest entry: a missing file, or a
        header whose row count differs from the entry's, raises
        :class:`SchemaError` naming the chunk file (under its table's
        directory).
        """
        file = chunk["file"]
        key = (table, file, tuple(columns) if columns is not None else None)
        cached = self.cache.get(key)
        if cached is not None:
            return cached
        decoded = read_chunk(self.chunk_path(file), columns, rows=chunk["rows"])
        self.cache.put(key, decoded)
        return decoded

    def empty_table(self, table: str,
                    columns: Optional[Sequence[str]] = None) -> Table:
        """A zero-row table with the manifest's column kinds preserved."""
        kinds = self.manifest.column_kinds(table)
        names = list(columns) if columns is not None \
            else self.manifest.column_names(table)
        return Table({n: Column(_EMPTY_ARRAYS[kinds[n]]()) for n in names})

    # -- queries -------------------------------------------------------------

    def scan(self, table: str) -> Scan:
        """A lazy scan over ``table`` (compose with select/where)."""
        self.manifest.table(table)  # raise early on unknown tables
        return Scan(self, table)

    def read_table(self, table: str,
                   columns: Optional[Sequence[str]] = None) -> Table:
        """Materialize a whole table (optionally projected)."""
        chunks = self.manifest.chunks(table)
        if not chunks:
            return self.empty_table(table, columns)
        wanted = tuple(columns) if columns is not None else None
        parts = [self.load_chunk(table, c, wanted) for c in chunks]
        return concat(parts)

    def __repr__(self) -> str:
        rows = {name: self.rows(name) for name in self.table_names}
        return f"TraceStore({str(self.path)!r}, rows={rows})"


def open_store(directory: Union[str, os.PathLike],
               cache_chunks: int = 64) -> TraceStore:
    """Open an existing store directory."""
    return TraceStore(directory, cache_chunks=cache_chunks)

