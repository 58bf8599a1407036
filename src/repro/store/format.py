"""The on-disk chunk format: one binary file per row group.

A chunk file holds a horizontal slice of one trace table, encoded
column-by-column so that a reader can decode a *projection* (a subset of
columns) without touching the bytes of the others — the columnar half of
the BigQuery substitution (see DESIGN.md §9 note).

Layout::

    8 bytes   magic ``RSTORE2\\n``
    8 bytes   little-endian uint64: header length H
    H bytes   UTF-8 JSON header
    ...       column payloads, in header order

The JSON header records, per column, its ``name``, ``kind`` (one of the
four :class:`~repro.table.column.Column` kinds) and payload byte length,
so a reader can seek straight to any column; a ``str`` column also
records its vocabulary size ``vocab`` and code ``width`` in bytes.
Payload encodings:

* ``float`` — raw little-endian ``float64`` (``inf``/``nan`` round-trip
  exactly, unlike CSV text)
* ``int``   — raw little-endian ``int64``
* ``bool``  — one ``uint8`` per value
* ``str``   — dictionary-encoded, per chunk: ``vocab + 1`` little-endian
  ``int64`` offsets, the concatenated UTF-8 bytes of the chunk's sorted
  distinct values, then one little-endian unsigned code per row
  (``width`` 1, 2 or 4 bytes, the narrowest that holds ``vocab``
  codes).  Writing and reading loop over the vocabulary, never the rows:
  decoding is one fancy index, ``vocabulary[codes]``, done lazily by
  :attr:`Column.values`.

Reads are buffered (``open`` + ``read``/``seek``): every wanted payload
is copied into process memory once, and numeric columns and string
codes wrap that copy as read-only arrays without a second conversion.
A payload shorter than its header says, vocabulary offsets that do not
tile the vocabulary blob, a vocabulary that is not strictly increasing
or a code outside it raise :class:`~repro.util.errors.SchemaError`
naming the chunk — a damaged chunk never decodes into wrong values.
Chunks of an older layout (magic ``RSTORE1``) are rejected the same
way; there is one decode path.
"""

from __future__ import annotations

import io
import json
import os
import struct
from typing import BinaryIO, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import obs
from repro.table.column import KINDS, Column, code_dtype
from repro.table.table import Table
from repro.util.errors import SchemaError

MAGIC = b"RSTORE2\n"
CHUNK_SUFFIX = ".rsc"

_LEN = struct.Struct("<Q")

#: Bytes per value of the fixed-width payload kinds.
_WIDTH = {"float": 8, "int": 8, "bool": 1}


def _encode_column(column: Column) -> Tuple[bytes, dict]:
    """A column's payload plus the header fields beyond name and kind."""
    kind = column.kind
    if kind == "float":
        payload = column.values.astype("<f8").tobytes()
    elif kind == "int":
        payload = column.values.astype("<i8").tobytes()
    elif kind == "bool":
        payload = column.values.astype(np.uint8).tobytes()
    else:
        column = column.compact()
        blobs = [v.encode("utf-8") for v in column.vocabulary]
        offsets = np.zeros(len(blobs) + 1, dtype="<i8")
        np.cumsum([len(b) for b in blobs], out=offsets[1:])
        codes = column.codes
        payload = (offsets.tobytes() + b"".join(blobs)
                   + codes.astype(codes.dtype.newbyteorder("<"),
                                  copy=False).tobytes())
        return payload, {"nbytes": len(payload), "vocab": len(blobs),
                         "width": codes.dtype.itemsize}
    return payload, {"nbytes": len(payload)}


def _decode_column(meta: dict, rows: int, payload: bytes,
                   where: str) -> Column:
    # ``<f8``/``<i8`` ARE float64/int64 on every platform we target
    # (little-endian), so frombuffer's view needs no ``astype`` copy —
    # the Column wraps the (read-only) view directly; only ``bool``
    # genuinely converts (uint8 -> bool).
    kind = meta["kind"]
    if kind not in KINDS:
        raise SchemaError(f"{where}: column has unknown kind {kind!r}; "
                          f"this reader understands {KINDS}")
    if kind == "str":
        return _decode_strings(meta, rows, payload, where)
    if len(payload) != rows * _WIDTH[kind]:
        raise SchemaError(f"{where}: {kind} payload holds "
                          f"{len(payload)} bytes, expected "
                          f"{rows * _WIDTH[kind]} for {rows} rows")
    if kind == "float":
        return Column._typed(np.frombuffer(payload, dtype="<f8")
                             .astype(np.float64, copy=False))
    if kind == "int":
        return Column._typed(np.frombuffer(payload, dtype="<i8")
                             .astype(np.int64, copy=False))
    return Column._typed(np.frombuffer(payload, dtype=np.uint8).astype(bool))


def _decode_strings(meta: dict, rows: int, payload: bytes,
                    where: str) -> Column:
    size = meta.get("vocab")
    width = meta.get("width")
    if not isinstance(size, int) or size < 0 \
            or width != code_dtype(size).itemsize:
        raise SchemaError(f"{where}: str column header has vocabulary size "
                          f"{size!r} and code width {width!r}")
    head = (size + 1) * 8
    if len(payload) < head:
        raise SchemaError(f"{where}: str payload holds {len(payload)} bytes, "
                          f"too few for {size + 1} vocabulary offsets")
    offsets = np.frombuffer(payload, dtype="<i8", count=size + 1)
    if (offsets[0] != 0 or offsets[-1] > len(payload) - head
            or np.any(offsets[1:] < offsets[:-1])):
        raise SchemaError(f"{where}: str vocabulary offsets do not tile the "
                          f"vocabulary blob of a {len(payload)}-byte payload")
    blob_end = head + int(offsets[-1])
    if len(payload) - blob_end != rows * width:
        raise SchemaError(f"{where}: str code array holds "
                          f"{len(payload) - blob_end} bytes, expected "
                          f"{rows * width} for {rows} rows")
    blob = payload[head:blob_end]
    try:
        words = [blob[a:b].decode("utf-8")
                 for a, b in zip(offsets[:-1].tolist(), offsets[1:].tolist())]
    except UnicodeDecodeError as err:
        raise SchemaError(f"{where}: str vocabulary is not UTF-8 ({err})") \
            from None
    if any(a >= b for a, b in zip(words, words[1:])):
        raise SchemaError(f"{where}: str vocabulary is not strictly "
                          "increasing")
    codes = np.frombuffer(payload, dtype=code_dtype(size).newbyteorder("<"),
                          offset=blob_end).astype(code_dtype(size), copy=False)
    if rows and int(codes.max()) >= size:
        raise SchemaError(f"{where}: str code {int(codes.max())} is outside "
                          f"the {size}-entry vocabulary")
    vocab = np.empty(size, dtype=object)
    vocab[:] = words
    return Column._typed(codes, vocab)


def write_chunk(table: Table, dest: Union[str, os.PathLike, BinaryIO]) -> int:
    """Serialize ``table`` as one chunk; returns the bytes written."""
    payloads = []
    header_cols = []
    for name in table.column_names:
        column = table.column(name)
        payload, layout = _encode_column(column)
        payloads.append(payload)
        header_cols.append({"name": name, "kind": column.kind, **layout})
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
        if magic[:6] == MAGIC[:6]:
            raise SchemaError(
                f"chunk {getattr(f, 'name', '<stream>')} has layout "
                f"{magic[:7].decode('ascii', 'replace')}; this reader "
                f"understands {MAGIC[:7].decode('ascii')} only")
        raise SchemaError(f"not a repro store chunk (bad magic {magic!r})")
    (header_len,) = _LEN.unpack(f.read(_LEN.size))
    return json.loads(f.read(header_len).decode("utf-8"))


def read_chunk(source: Union[str, os.PathLike, BinaryIO],
               columns: Optional[Sequence[str]] = None,
               rows: Optional[int] = None) -> Table:
    """Decode a chunk file into a :class:`Table`.

    ``columns``, if given, selects and orders a projection; the payloads
    of unrequested columns are skipped with seeks.  ``rows``, if given,
    is the row count the store's manifest lists for the chunk: a header
    that disagrees, like a missing file, is a damaged store.
    """
    if hasattr(source, "read"):
        return _read_chunk(source, columns, rows)
    try:
        f = open(source, "rb")
    except FileNotFoundError:
        raise SchemaError(f"chunk {source} is missing") from None
    with f:
        return _read_chunk(f, columns, rows)


def _read_chunk(f: BinaryIO, columns: Optional[Sequence[str]],
                expected_rows: Optional[int]) -> Table:
    where = f"chunk {getattr(f, 'name', '<stream>')}"
    header = _read_header(f)
    rows = header["rows"]
    if expected_rows is not None and rows != expected_rows:
        raise SchemaError(f"{where} holds {rows} rows, but the store "
                          f"manifest lists {expected_rows}")
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
                meta, rows, payload, f"{where}, column {meta['name']!r}")
        else:
            f.seek(meta["nbytes"], io.SEEK_CUR)
    registry = obs.get_registry()
    registry.inc("store.chunks_read")
    registry.inc("store.bytes_read", bytes_read)
    return Table({name: decoded[name] for name in wanted})
