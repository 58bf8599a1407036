"""The on-disk chunk format: one binary file per row group.

A chunk file holds a horizontal slice of one trace table, encoded
column-by-column so that a reader can decode a *projection* (a subset of
columns) without touching the bytes of the others — the columnar half of
the BigQuery substitution (see DESIGN.md §9 note).

Layout::

    8 bytes   magic ``RSTORE1\\n``
    8 bytes   little-endian uint64: header length H
    H bytes   UTF-8 JSON header
    ...       column payloads, in header order

The JSON header records, per column, its ``name``, ``kind`` (one of the
four :class:`~repro.table.column.Column` kinds) and payload byte length,
so a reader can seek straight to any column.  Payload encodings:

* ``float`` — raw little-endian ``float64`` (``inf``/``nan`` round-trip
  exactly, unlike CSV text)
* ``int``   — raw little-endian ``int64``
* ``bool``  — one ``uint8`` per value
* ``str``   — ``n + 1`` little-endian ``int64`` offsets, then the
  concatenated UTF-8 bytes of all values

Reads are buffered (``open`` + ``read``/``seek``): every wanted payload
is copied into process memory once, and numeric columns wrap that copy
as read-only arrays without a second conversion.  A payload shorter
than its header says, or string offsets that do not tile the string
blob, raise :class:`~repro.util.errors.SchemaError` naming the chunk —
a damaged chunk never decodes into wrong values.
"""

from __future__ import annotations

import io
import json
import os
import struct
from typing import BinaryIO, List, Optional, Sequence, Union

import numpy as np

from repro import obs
from repro.table.column import KINDS, Column
from repro.table.table import Table
from repro.util.errors import SchemaError

MAGIC = b"RSTORE1\n"
CHUNK_SUFFIX = ".rsc"

_LEN = struct.Struct("<Q")

#: Bytes per value of the fixed-width payload kinds.
_WIDTH = {"float": 8, "int": 8, "bool": 1}


def _encode_column(column: Column) -> bytes:
    kind = column.kind
    values = column.values
    if kind == "float":
        return values.astype("<f8").tobytes()
    if kind == "int":
        return values.astype("<i8").tobytes()
    if kind == "bool":
        return values.astype(np.uint8).tobytes()
    blobs = [v.encode("utf-8") for v in values]
    offsets = np.zeros(len(blobs) + 1, dtype="<i8")
    np.cumsum([len(b) for b in blobs], out=offsets[1:])
    return offsets.tobytes() + b"".join(blobs)


def _decode_column(kind: str, rows: int, payload: bytes,
                   where: str) -> Column:
    # ``<f8``/``<i8`` ARE float64/int64 on every platform we target
    # (little-endian), so frombuffer's view needs no ``astype`` copy —
    # the Column wraps the (read-only) view directly; only ``bool``
    # genuinely converts (uint8 -> bool).
    if kind not in KINDS:
        raise SchemaError(f"{where}: column has unknown kind {kind!r}; "
                          f"this reader understands {KINDS}")
    if kind != "str":
        if len(payload) != rows * _WIDTH[kind]:
            raise SchemaError(f"{where}: {kind} payload holds "
                              f"{len(payload)} bytes, expected "
                              f"{rows * _WIDTH[kind]} for {rows} rows")
        if kind == "float":
            return Column(np.frombuffer(payload, dtype="<f8")
                          .astype(np.float64, copy=False))
        if kind == "int":
            return Column(np.frombuffer(payload, dtype="<i8")
                          .astype(np.int64, copy=False))
        return Column(np.frombuffer(payload, dtype=np.uint8).astype(bool))
    head = (rows + 1) * 8
    if len(payload) < head:
        raise SchemaError(f"{where}: str payload holds {len(payload)} bytes, "
                          f"too few for {rows + 1} offsets")
    offsets = np.frombuffer(payload, dtype="<i8", count=rows + 1)
    blob = payload[head:]
    if (offsets[0] != 0 or offsets[-1] != len(blob)
            or np.any(offsets[1:] < offsets[:-1])):
        raise SchemaError(f"{where}: str offsets do not tile the "
                          f"{len(blob)}-byte string blob")
    out = np.empty(rows, dtype=object)
    for i in range(rows):
        out[i] = blob[offsets[i]:offsets[i + 1]].decode("utf-8")
    return Column(out)


def write_chunk(table: Table, dest: Union[str, os.PathLike, BinaryIO]) -> int:
    """Serialize ``table`` as one chunk; returns the bytes written."""
    payloads = []
    header_cols = []
    for name in table.column_names:
        column = table.column(name)
        payload = _encode_column(column)
        payloads.append(payload)
        header_cols.append({"name": name, "kind": column.kind,
                            "nbytes": len(payload)})
    header = json.dumps({"rows": len(table), "columns": header_cols},
                        separators=(",", ":")).encode("utf-8")
    blob = MAGIC + _LEN.pack(len(header)) + header + b"".join(payloads)
    if hasattr(dest, "write"):
        dest.write(blob)
    else:
        with open(dest, "wb") as f:
            f.write(blob)
    return len(blob)


def read_chunk_header(source: Union[str, os.PathLike, BinaryIO]) -> dict:
    """The JSON header of a chunk file (no column payloads decoded)."""
    if hasattr(source, "read"):
        return _read_header(source)
    with open(source, "rb") as f:
        return _read_header(f)


def _read_header(f: BinaryIO) -> dict:
    magic = f.read(len(MAGIC))
    if magic != MAGIC:
        raise SchemaError(f"not a repro store chunk (bad magic {magic!r})")
    (header_len,) = _LEN.unpack(f.read(_LEN.size))
    return json.loads(f.read(header_len).decode("utf-8"))


def read_chunk(source: Union[str, os.PathLike, BinaryIO],
               columns: Optional[Sequence[str]] = None) -> Table:
    """Decode a chunk file into a :class:`Table`.

    ``columns``, if given, selects and orders a projection; the payloads
    of unrequested columns are skipped with seeks.
    """
    if hasattr(source, "read"):
        return _read_chunk(source, columns)
    with open(source, "rb") as f:
        return _read_chunk(f, columns)


def _read_chunk(f: BinaryIO, columns: Optional[Sequence[str]]) -> Table:
    where = f"chunk {getattr(f, 'name', '<stream>')}"
    header = _read_header(f)
    rows = header["rows"]
    available = {c["name"]: c for c in header["columns"]}
    wanted: List[str] = list(columns) if columns is not None else list(available)
    for name in wanted:
        if name not in available:
            raise SchemaError(
                f"chunk has no column {name!r}; available: {sorted(available)}"
            )
    # Single pass: seek past unwanted payloads, read wanted ones.
    decoded = {}
    bytes_read = 0
    wanted_set = set(wanted)
    for meta in header["columns"]:
        if meta["name"] in wanted_set:
            payload = f.read(meta["nbytes"])
            if len(payload) < meta["nbytes"]:
                raise SchemaError(
                    f"{where} is truncated: column {meta['name']!r} has "
                    f"{len(payload)} of {meta['nbytes']} payload bytes")
            bytes_read += len(payload)
            decoded[meta["name"]] = _decode_column(
                meta["kind"], rows, payload, f"{where}, column {meta['name']!r}")
        else:
            f.seek(meta["nbytes"], io.SEEK_CUR)
    registry = obs.get_registry()
    registry.inc("store.chunks_read")
    registry.inc("store.bytes_read", bytes_read)
    return Table({name: decoded[name] for name in wanted})
