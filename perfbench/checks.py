"""Output checks: table digests, report structure and report digests.

None of these pin output bytes.  Table digests compare a trace with
itself after a store round trip; the report digest is compared only
with other runs of the same source tree at the same seed and scale.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

_MASK = np.uint64(0xFFFFFFFFFFFFFFFF)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def _mix(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer over a uint64 array (wrapping arithmetic)."""
    x = (x ^ (x >> np.uint64(30))) * _M1
    x = (x ^ (x >> np.uint64(27))) * _M2
    return x ^ (x >> np.uint64(31))


def _as_u64(values: np.ndarray) -> np.ndarray:
    if values.dtype == object:
        # hash() is salted per process; digests are compared in-process.
        return np.fromiter(map(hash, values), dtype=np.int64,
                           count=len(values)).view(np.uint64)
    if values.dtype == np.float64:
        return np.ascontiguousarray(values).view(np.uint64)
    return values.astype(np.int64).view(np.uint64)


def table_digest(table) -> Tuple[int, int]:
    """(rows, order-independent digest of the rows) of a repro Table.

    Each row hashes its column values together, so the digest tells a
    reordered table (the store clusters rows by time) from one whose
    values moved between rows.
    """
    n = len(table)
    rows = np.zeros(n, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for i, name in enumerate(table.column_names):
            salt = np.uint64(i + 1) * _GOLDEN
            rows = _mix(rows ^ _mix(_as_u64(table.column(name).values) + salt))
        return n, int(rows.sum(dtype=np.uint64) & _MASK)


def trace_digests(trace) -> Dict[str, Tuple[int, int]]:
    """Per table of a TraceDataset: (rows, digest)."""
    return {name: table_digest(trace.tables[name]) for name in trace.tables}


def report_sections(text: str) -> list:
    """Section titles of a rendered report (the framed header lines)."""
    lines = text.split("\n")
    rule = "=" * 72
    return [lines[i + 1] for i in range(len(lines) - 2)
            if lines[i] == rule and lines[i + 2] == rule and lines[i + 1]]


def source_digest(roots: List[Path]) -> str:
    """Digest of the Python sources under ``roots`` (the program and the
    benchmark, whose scales shape the report): keys the report digests."""
    h = hashlib.sha256()
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_report_digest(state_file: Path, key: str, digest: str) -> bool:
    """True when ``digest`` matches the one recorded under ``key`` by an
    earlier run (recording it when there is none yet)."""
    known: Dict[str, str] = {}
    if state_file.exists():
        known = json.loads(state_file.read_text())
    if key in known:
        return known[key] == digest
    known[key] = digest
    state_file.parent.mkdir(parents=True, exist_ok=True)
    tmp = state_file.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    tmp.replace(state_file)
    return True
