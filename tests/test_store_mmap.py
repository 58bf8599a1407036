"""Chunk and store read edge cases on a mixed-kind chunk: a header-sized
file with the wrong magic, a projection naming a missing column, and a
store whose tables are all empty.

The store reads every chunk through one buffered path; these cases pin
its error messages and its handling of zero-row tables.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.store import open_store, read_chunk, write_chunk, write_store
from repro.table import Table
from repro.trace.dataset import SCHEMA_2019, TraceDataset
from repro.util.errors import SchemaError


@pytest.fixture()
def chunk_path(tmp_path):
    table = Table({
        "f": np.array([1.5, float("inf"), float("nan"), -0.0]),
        "i": np.array([1, -2, 2**62, 0]),
        "b": np.array([True, False, True, True]),
        "s": np.array(["", "héllo", "x" * 100, "tab\tsep"], dtype=object),
    })
    path = tmp_path / "chunk.rsc"
    write_chunk(table, path)
    return path, table


class TestMappedChunkReads:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bogus.rsc"
        path.write_bytes(b"NOTASTORECHUNK--" * 4)
        with pytest.raises(SchemaError, match="bad magic"):
            read_chunk(path)

    def test_unknown_projection_column(self, chunk_path):
        path, _ = chunk_path
        with pytest.raises(SchemaError, match="no column"):
            read_chunk(path, columns=["nope"])


EMPTY_TABLES = {name: Table({c: [] for c in cols})
                for name, cols in SCHEMA_2019.items()}


def test_empty_tables_map_cleanly(tmp_path):
    ds = TraceDataset(cell="t", era="2019", horizon=10.0, sample_period=1.0,
                      utc_offset_hours=0.0, capacity_cpu=1.0,
                      capacity_mem=1.0, tables=dict(EMPTY_TABLES))
    write_store(ds, tmp_path / "s", chunk_rows=16)
    store = open_store(tmp_path / "s")
    assert len(store.scan("instance_events").to_table()) == 0
