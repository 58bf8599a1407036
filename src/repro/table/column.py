"""Typed column: a thin, immutable-by-convention wrapper over numpy arrays.

Columns normalize their storage to one of four kinds:

* ``float`` — ``float64``
* ``int``   — ``int64``
* ``bool``  — ``bool``
* ``str``   — dictionary-encoded: narrow unsigned integer *codes*
  (``uint8``/``uint16``/``uint32``, chosen by vocabulary size) into a
  sorted object array of the distinct plain ``str`` values (the
  *vocabulary*).  Code order equals string order, so comparisons,
  ``min``/``max``, ``unique`` and sort keys work on the codes.

Input is validated once, by the public constructor: a string column's
dictionary-building pass is also its "every element is a ``str``"
check.  Table operations (take, filter, slice, sort, concat) and the
store decoder build columns from arrays that are already typed through
:meth:`Column._typed`, which checks nothing.  A string column's
vocabulary may hold values no row uses any more (after a filter, say);
every operation here reads only the codes present.

Comparison operators return plain boolean numpy arrays so they compose
with ``&``/``|``/``~`` and feed straight into :meth:`Table.filter`.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.util.errors import SchemaError

#: The four storage kinds every column normalizes to (public: the store
#: codec and the trace schema declare kinds against this set).
KINDS = ("float", "int", "bool", "str")
_KINDS = KINDS

#: Numeric dtypes a column stores as-is, by kind.
_NUMERIC = {np.dtype(np.float64): "float", np.dtype(np.int64): "int",
            np.dtype(bool): "bool"}


def code_dtype(vocab_size: int) -> np.dtype:
    """The narrowest unsigned code dtype for a vocabulary of this size."""
    if vocab_size <= 1 << 8:
        return np.dtype(np.uint8)
    if vocab_size <= 1 << 16:
        return np.dtype(np.uint16)
    return np.dtype(np.uint32)


def _coerce(values: Any) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Normalize arbitrary input into ``(data, vocabulary)``."""
    sequence = isinstance(values, (list, tuple))
    if sequence and values and isinstance(values[0], str):
        # Skip np.asarray: it would build a fixed-width ``<U`` array.
        return _encode_strings(values)
    arr = np.asarray(values)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1:
        raise SchemaError(f"columns must be 1-D, got shape {arr.shape}")
    if arr.dtype == bool:
        return arr, None
    # copy=False keeps an already-int64/float64 array as-is (columns are
    # immutable-by-convention).
    if np.issubdtype(arr.dtype, np.integer):
        return arr.astype(np.int64, copy=False), None
    if np.issubdtype(arr.dtype, np.floating):
        return arr.astype(np.float64, copy=False), None
    # Everything else (strings, mixed python objects) must be all
    # strings.  A ``<U`` array is read from its elements as plain
    # ``str``; a sequence is read from itself, because np.asarray turns
    # a number in a mixed sequence into a string.
    if arr.dtype == object:
        return _encode_strings(arr.tolist())
    return _encode_strings(values if sequence else arr.tolist())


def _reject(items: Iterable) -> SchemaError:
    bad = next((v for v in items if not isinstance(v, str)), None)
    return SchemaError(
        f"unsupported column element {bad!r} of type {type(bad).__name__}; "
        "columns hold floats, ints, bools, or strings"
    )


def _encode_strings(items: Sequence) -> Tuple[np.ndarray, np.ndarray]:
    """Codes and sorted vocabulary of ``items``, which must all be ``str``.

    The distinct values are collected in one C-level dict pass; checking
    their types checks every element, because no non-``str`` value
    equals a ``str``.
    """
    try:
        distinct = dict.fromkeys(items)
    except TypeError:  # an unhashable element: certainly not a str
        raise _reject(items) from None
    if not all(isinstance(v, str) for v in distinct):
        raise _reject(distinct)
    # str() turns a str subclass (numpy.str_) into a plain str.
    vocab = sorted(str(v) for v in distinct)
    lookup = {v: i for i, v in enumerate(vocab)}
    codes = np.fromiter(map(lookup.__getitem__, items),
                        dtype=code_dtype(len(vocab)), count=len(items))
    return codes, _object_array(vocab)


def concat_columns(columns: Sequence["Column"]) -> "Column":
    """Stack columns end to end.

    String columns merge their vocabularies: each part's codes are
    remapped into the sorted union with one ``searchsorted`` over its
    vocabulary and one fancy index over its codes.
    """
    if all(c._vocab is not None for c in columns):
        first = columns[0]._vocab
        if all(c._vocab is first for c in columns):
            return Column._typed(np.concatenate([c._data for c in columns]),
                                 first)
        merged = _object_array(sorted(dict.fromkeys(
            s for c in columns for s in c._vocab)))
        dtype = code_dtype(len(merged))
        parts = [np.searchsorted(merged, c._vocab).astype(dtype)[c._data]
                 for c in columns]
        return Column._typed(np.concatenate(parts), merged)
    if any(c._vocab is not None for c in columns):
        # Strings beside numbers: only all-string values (an empty
        # numeric part) pass the constructor's check.
        return Column(np.concatenate([c.values.astype(object)
                                      for c in columns]))
    return Column._result(np.concatenate([c._data for c in columns]))


def _object_array(items: Sequence) -> np.ndarray:
    out = np.empty(len(items), dtype=object)
    out[:] = items
    return out


class Column:
    """A single named-less column of homogeneous values."""

    __slots__ = ("_data", "_vocab")

    def __init__(self, values: Union["Column", Sequence, np.ndarray]):
        if isinstance(values, Column):
            self._data, self._vocab = values._data, values._vocab
        else:
            self._data, self._vocab = _coerce(values)

    @classmethod
    def _typed(cls, data: np.ndarray,
               vocab: Optional[np.ndarray] = None) -> "Column":
        """Wrap arrays that are already typed, with no checks.

        ``data`` is a 1-D float64/int64/bool array (``vocab`` None), or
        the unsigned codes of a string column into ``vocab``: a sorted
        object array of distinct plain ``str`` with every code below its
        length.  The caller guarantees these invariants.
        """
        column = cls.__new__(cls)
        column._data = data
        column._vocab = vocab
        return column

    @classmethod
    def _result(cls, data: np.ndarray) -> "Column":
        """Wrap a computed array: typed numeric results skip the checks."""
        if data.ndim == 1 and data.dtype in _NUMERIC:
            return cls._typed(data)
        return cls(data)

    # -- basic protocol ----------------------------------------------------

    @property
    def values(self) -> np.ndarray:
        """The values as a numpy array (do not mutate).

        Numeric kinds return their storage; a string column returns a
        fresh object array of plain ``str`` (``vocabulary[codes]``).
        """
        if self._vocab is None:
            return self._data
        return self._vocab[self._data]

    @property
    def codes(self) -> np.ndarray:
        """A string column's unsigned codes into :attr:`vocabulary`."""
        if self._vocab is None:
            raise SchemaError(f"a {self.kind} column has no string codes")
        return self._data

    @property
    def vocabulary(self) -> np.ndarray:
        """A string column's sorted object array of distinct values."""
        if self._vocab is None:
            raise SchemaError(f"a {self.kind} column has no vocabulary")
        return self._vocab

    @property
    def keys(self) -> np.ndarray:
        """An array ordered and equal like the values: a string column's
        codes (code order is string order), the data otherwise."""
        return self._data

    @property
    def kind(self) -> str:
        """One of ``float``, ``int``, ``bool``, ``str``."""
        if self._vocab is not None:
            return "str"
        return _NUMERIC[self._data.dtype]

    def __len__(self) -> int:
        return len(self._data)

    def __iter__(self):
        return iter(self.values)

    def __getitem__(self, idx):
        out = self._data[idx]
        if isinstance(idx, (int, np.integer)):
            return out if self._vocab is None else self._vocab[out]
        return Column._typed(out, self._vocab)

    def __eq__(self, other) -> np.ndarray:  # type: ignore[override]
        return self._compare(other, "eq")

    def __ne__(self, other) -> np.ndarray:  # type: ignore[override]
        return ~self._compare(other, "eq")

    def __lt__(self, other) -> np.ndarray:
        return self._compare(other, "lt")

    def __le__(self, other) -> np.ndarray:
        return self._compare(other, "le")

    def __gt__(self, other) -> np.ndarray:
        return self._compare(other, "gt")

    def __ge__(self, other) -> np.ndarray:
        return self._compare(other, "ge")

    def __hash__(self):  # columns are not hashable (they define __eq__ as elementwise)
        raise TypeError("Column is not hashable")

    def _compare(self, other, op: str) -> np.ndarray:
        if self._vocab is not None and isinstance(other, str):
            return self._compare_codes(other, op)
        lhs = self.values
        rhs = other.values if isinstance(other, Column) else other
        if op == "eq":
            return np.asarray(lhs == rhs, dtype=bool)
        if op == "lt":
            return np.asarray(lhs < rhs, dtype=bool)
        if op == "le":
            return np.asarray(lhs <= rhs, dtype=bool)
        if op == "gt":
            return np.asarray(lhs > rhs, dtype=bool)
        if op == "ge":
            return np.asarray(lhs >= rhs, dtype=bool)
        raise AssertionError(op)

    def _compare_codes(self, value: str, op: str) -> np.ndarray:
        # Rows below ``lo`` hold strings < value, rows at or above ``hi``
        # strings > value; ``hi - lo`` is 1 if value is in the vocabulary.
        lo = int(np.searchsorted(self._vocab, value, side="left"))
        hi = int(np.searchsorted(self._vocab, value, side="right"))
        codes = self._data
        if op == "eq":
            return codes == lo if hi > lo else np.zeros(len(codes), dtype=bool)
        if op == "lt":
            return codes < lo
        if op == "le":
            return codes < hi
        if op == "gt":
            return codes >= hi
        if op == "ge":
            return codes >= lo
        raise AssertionError(op)

    # -- arithmetic --------------------------------------------------------

    def _binop(self, other, fn) -> "Column":
        rhs = other.values if isinstance(other, Column) else other
        return Column._result(fn(self.values, rhs))

    def __add__(self, other) -> "Column":
        return self._binop(other, np.add)

    def __radd__(self, other) -> "Column":
        return Column._result(np.add(other, self.values))

    def __sub__(self, other) -> "Column":
        return self._binop(other, np.subtract)

    def __rsub__(self, other) -> "Column":
        return Column._result(np.subtract(other, self.values))

    def __mul__(self, other) -> "Column":
        return self._binop(other, np.multiply)

    def __rmul__(self, other) -> "Column":
        return Column._result(np.multiply(other, self.values))

    def __truediv__(self, other) -> "Column":
        return self._binop(other, np.true_divide)

    def __rtruediv__(self, other) -> "Column":
        return Column._result(np.true_divide(other, self.values))

    def __neg__(self) -> "Column":
        return Column._result(np.negative(self.values))

    # -- membership & null-ish helpers --------------------------------------

    def isin(self, values: Iterable) -> np.ndarray:
        """Boolean mask of rows whose value is in ``values``."""
        vals = list(values)
        if self._vocab is not None:
            lookup = set(vals)
            hit = np.fromiter((v in lookup for v in self._vocab), dtype=bool,
                              count=len(self._vocab))
            return hit[self._data]
        return np.isin(self._data, vals)

    def compact(self) -> "Column":
        """This string column over only the vocabulary values it uses."""
        used = np.flatnonzero(np.bincount(self.codes,
                                          minlength=len(self._vocab)))
        if len(used) == len(self._vocab):
            return self
        remap = np.zeros(len(self._vocab), dtype=code_dtype(len(used)))
        remap[used] = np.arange(len(used))
        return Column._typed(remap[self._data], self._vocab[used])

    # -- reductions ----------------------------------------------------------

    def _numeric(self) -> np.ndarray:
        if self._vocab is not None:
            raise SchemaError("numeric reduction on a string column")
        return self._data

    def sum(self) -> float:
        return float(self._numeric().sum())

    def mean(self) -> float:
        return float(self._numeric().mean())

    def min(self):
        if len(self._data) == 0:
            raise SchemaError("min of empty column")
        low = self._data.min()
        return low if self._vocab is None else self._vocab[low]

    def max(self):
        if len(self._data) == 0:
            raise SchemaError("max of empty column")
        high = self._data.max()
        return high if self._vocab is None else self._vocab[high]

    def var(self) -> float:
        """Unbiased (ddof=1) sample variance; 0 for singleton columns."""
        arr = self._numeric()
        if len(arr) < 2:
            return 0.0
        return float(arr.var(ddof=1))

    def median(self) -> float:
        return float(np.median(self._numeric()))

    def percentile(self, q: float) -> float:
        """The q-th percentile (q in [0, 100])."""
        if not 0 <= q <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        return float(np.percentile(self._numeric(), q))

    def unique(self) -> List:
        """Sorted unique values."""
        if self._vocab is not None:
            return self.compact()._vocab.tolist()
        return np.unique(self._data).tolist()

    def to_list(self) -> List:
        return self.values.tolist()

    def astype(self, kind: str) -> "Column":
        """Cast to another supported kind."""
        if kind not in _KINDS:
            raise SchemaError(f"unknown column kind {kind!r}")
        if kind == "str":
            return Column([str(v) for v in self.values])
        if kind == "bool":
            return Column(self.values.astype(bool))
        if kind == "int":
            return Column(self.values.astype(np.int64))
        return Column(self.values.astype(np.float64))

    def __repr__(self) -> str:
        preview = ", ".join(repr(v) for v in self[:6].values)
        suffix = ", ..." if len(self) > 6 else ""
        return f"Column<{self.kind}>[{preview}{suffix}] (n={len(self)})"
