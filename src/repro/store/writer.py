"""Write a :class:`TraceDataset` as a chunked columnar store.

Each table is split into row groups of ``chunk_rows`` rows; every chunk
is one binary file (see :mod:`repro.store.format`) and the manifest
records its per-column min/max statistics.  The whole store is staged in
a temp directory and renamed into place atomically.

Tables whose rows arrive roughly time-ordered (every table the simulator
emits) get tight per-chunk time bounds for free, which is what makes
time-window pushdown effective; ``cluster_by`` can force a sort when
converting foreign data that is not already ordered.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Optional, Sequence, Tuple, Union

from repro import obs
from repro.store.format import CHUNK_SUFFIX, write_chunk
from repro.store.manifest import Manifest, chunk_stats
from repro.table.table import Table
from repro.util.fs import atomic_directory

#: Default rows per chunk.  Small enough that a 48-hour cell yields tens
#: of chunks (so pruning has something to skip), large enough that the
#: per-chunk overhead stays negligible.
DEFAULT_CHUNK_ROWS = 8192

#: Default clustering: the event and usage tables are stably sorted by
#: their time column before chunking, exactly like the clustered
#: BigQuery tables the 2019 trace ships as.  The simulator emits usage
#: rows grouped per instance (each group spanning the whole horizon), so
#: *without* this sort every chunk's time range covers the full trace
#: and time-window pushdown can never skip anything.  A table clusters
#: on its ``start_time`` column, else on its ``time`` column: the rule
#: ``repro.trace.schema.TIME_COLUMNS`` is derived by, restated here
#: because the store layer does not import the trace layer.
DEFAULT_CLUSTER_BY: Tuple[str, ...] = ("start_time", "time")


def write_store(trace, directory: Union[str, os.PathLike],
                chunk_rows: int = DEFAULT_CHUNK_ROWS,
                cluster_by: Optional[Sequence[str]] = DEFAULT_CLUSTER_BY) -> None:
    """Persist ``trace`` (a :class:`TraceDataset`) under ``directory``.

    Each table is stably sorted by the first ``cluster_by`` column it
    has before chunking (BigQuery-style clustering; tables with none of
    them keep their row order).  Pass ``None`` or ``()`` to preserve the
    exact input row order everywhere.
    """
    if chunk_rows < 1:
        raise ValueError(f"chunk_rows must be >= 1, got {chunk_rows}")
    meta = {
        "cell": trace.cell,
        "era": trace.era,
        "horizon": trace.horizon,
        "sample_period": trace.sample_period,
        "utc_offset_hours": trace.utc_offset_hours,
        "capacity_cpu": trace.capacity_cpu,
        "capacity_mem": trace.capacity_mem,
    }
    with obs.span("store.write"), atomic_directory(directory) as tmp:
        manifest = Manifest.new(meta, chunk_rows)
        for name, table in trace.tables.items():
            key = next((c for c in cluster_by or () if c in table), None)
            if key is not None and len(table) > 1:
                table = table.sort(key)
            _write_table(manifest, tmp, name, table, chunk_rows)
        manifest.save(tmp)


def _write_table(manifest: Manifest, root: Path, name: str, table: Table,
                 chunk_rows: int) -> None:
    columns = [{"name": n, "kind": table.column(n).kind}
               for n in table.column_names]
    manifest.add_table(name, columns)
    if len(table) == 0:
        return
    table_dir = root / name
    table_dir.mkdir()
    n_chunks = (len(table) + chunk_rows - 1) // chunk_rows
    for i in range(n_chunks):
        lo = i * chunk_rows
        hi = min(lo + chunk_rows, len(table))
        chunk = Table({n: table.column(n)[lo:hi] for n in table.column_names})
        file = f"{name}/chunk-{i:05d}{CHUNK_SUFFIX}"
        nbytes = write_chunk(chunk, root / file)
        registry = obs.get_registry()
        registry.inc("store.chunks_written")
        registry.inc("store.bytes_written", nbytes)
        registry.inc("store.rows_written", len(chunk))
        manifest.add_chunk(name, file, len(chunk), chunk_stats(chunk))
