"""The SQL value domain and its three-valued-logic operations.

Values are represented by plain Python objects:

========  ==============================
SQL       Python
========  ==============================
NULL      ``None``
boolean   ``bool``
int       ``int``
float     ``float``
text      ``str``
array     ``list``
row       :class:`Row`
========  ==============================

All comparison helpers in this module implement SQL semantics: any comparison
involving NULL yields NULL (``None``), and the boolean connectives follow
Kleene three-valued logic.  :func:`sort_key` provides a total order used by
ORDER BY / window frames, where NULL sorts last (PostgreSQL's default of
``NULLS LAST`` for ascending order).
"""

from __future__ import annotations

from itertools import repeat
from operator import neg
from typing import Any, Iterable, Sequence

from .errors import ExecutionError, TypeError_

Value = Any  # NULL | bool | int | float | str | list | Row


class Row:
    """A composite (record) value, e.g. the paper's ``coord`` type.

    A row holds an ordered tuple of field values and, optionally, the field
    names of its declared composite type.  Rows compare field-by-field, which
    is what makes predicates such as ``location = p.loc`` in the paper's
    ``walk()`` function work.
    """

    __slots__ = ("values", "names", "type_name")

    def __init__(self, values: Sequence[Value], names: Sequence[str] | None = None,
                 type_name: str | None = None):
        self.values = tuple(values)
        self.names = tuple(names) if names is not None else None
        self.type_name = type_name
        if self.names is not None and len(self.names) != len(self.values):
            raise TypeError_(
                f"row has {len(self.values)} fields but {len(self.names)} names")

    def field(self, name: str) -> Value:
        """Return the value of field *name* (case-insensitive)."""
        if self.names is None:
            raise ExecutionError(f"row value has no named fields (wanted {name!r})")
        lowered = name.lower()
        for field_name, value in zip(self.names, self.values):
            if field_name.lower() == lowered:
                return value
        raise ExecutionError(f"row value has no field {name!r}; has {self.names}")

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __getitem__(self, index: int) -> Value:
        return self.values[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Row):
            return NotImplemented
        return self.values == other.values

    def __hash__(self) -> int:
        return hash(self.values)

    def __repr__(self) -> str:
        inner = ", ".join(repr(v) for v in self.values)
        return f"({inner})"


def is_null(value: Value) -> bool:
    """True when *value* is SQL NULL."""
    return value is None


def comparison_class(value: Value) -> str:
    """SQL comparability class: values compare only within one class.

    bool is an int subclass in Python but a distinct SQL type; all numerics
    share one class; everything else classes by Python type.  Shared by
    ``_comparable`` and the hash-join key type check
    (:mod:`repro.sql.executor.hashjoin`), so the two join strategies raise
    on exactly the same operand combinations.
    """
    if type(value) is int:  # the common key; never a bool
        return "num"
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, (int, float)):
        return "num"
    if isinstance(value, Row):
        return "row"
    if isinstance(value, list):
        return "arr"
    return type(value).__name__


def key_class(value: Value):
    """Comparability class of an index/join-key value.

    Index lookups on incomparable types would silently find nothing where a
    scan-and-compare raises; recording each key's class at build time lets
    probes raise the same type error instead.  Refines
    :func:`comparison_class` in one way: rows class by arity, since
    :func:`compare` rejects rows of different arity too.  Shared by the
    hash-join build table and :class:`repro.sql.storage.SortedIndex`.
    """
    kind = comparison_class(value)
    if kind == "row":
        return ("row", len(value))
    return kind


def _comparable(a: Value, b: Value) -> None:
    """Raise unless *a* and *b* belong to mutually comparable SQL types."""
    if comparison_class(a) != comparison_class(b):
        raise TypeError_(f"cannot compare {type(a).__name__} with {type(b).__name__}")


def compare(a: Value, b: Value) -> int | None:
    """Three-valued comparison: -1 / 0 / +1, or None when either side is NULL.

    Rows compare lexicographically field by field; a NULL field makes the
    whole comparison NULL unless an earlier field already decided it.
    """
    if type(a) is int and type(b) is int:
        # Exact-int fast path (``type() is`` excludes bool): the dominant
        # case in machine-state inner loops, where the generic class checks
        # below would double the cost of every comparison.
        return (a > b) - (a < b)
    if a is None or b is None:
        return None
    if isinstance(a, Row) and isinstance(b, Row):
        if len(a) != len(b):
            raise TypeError_("cannot compare rows of different arity")
        for fa, fb in zip(a, b):
            part = compare(fa, fb)
            if part is None:
                return None
            if part != 0:
                return part
        return 0
    if isinstance(a, list) and isinstance(b, list):
        for fa, fb in zip(a, b):
            part = compare(fa, fb)
            if part is None:
                return None
            if part != 0:
                return part
        return (len(a) > len(b)) - (len(a) < len(b))
    _comparable(a, b)
    # IEEE NaN breaks trichotomy (every ordered comparison is False, which
    # would make NaN compare equal to everything below).  PostgreSQL orders
    # float NaN equal to itself and greater than every other number.
    a_nan = isinstance(a, float) and a != a
    b_nan = isinstance(b, float) and b != b
    if a_nan or b_nan:
        if a_nan and b_nan:
            return 0
        return 1 if a_nan else -1
    if a < b:
        return -1
    if a > b:
        return 1
    return 0


def sql_eq(a: Value, b: Value) -> bool | None:
    c = compare(a, b)
    return None if c is None else c == 0


def sql_ne(a: Value, b: Value) -> bool | None:
    c = compare(a, b)
    return None if c is None else c != 0


def sql_lt(a: Value, b: Value) -> bool | None:
    c = compare(a, b)
    return None if c is None else c < 0


def sql_le(a: Value, b: Value) -> bool | None:
    c = compare(a, b)
    return None if c is None else c <= 0


def sql_gt(a: Value, b: Value) -> bool | None:
    c = compare(a, b)
    return None if c is None else c > 0


def sql_ge(a: Value, b: Value) -> bool | None:
    c = compare(a, b)
    return None if c is None else c >= 0


def sql_and(a: bool | None, b: bool | None) -> bool | None:
    """Kleene AND: false dominates NULL."""
    if a is False or b is False:
        return False
    if a is None or b is None:
        return None
    return True


def sql_or(a: bool | None, b: bool | None) -> bool | None:
    """Kleene OR: true dominates NULL."""
    if a is True or b is True:
        return True
    if a is None or b is None:
        return None
    return False


def sql_not(a: bool | None) -> bool | None:
    return None if a is None else not a


_SORT_RANK = {bool: 0, int: 1, float: 1, str: 2, list: 3, Row: 4}


def sort_key(value: Value):
    """A total-order key: NULLs sort last, then by value within a type."""
    if type(value) is int:  # the common key; never a bool
        return (0, 1, value)
    if value is None:
        return (1, 0, 0)
    if isinstance(value, Row):
        return (0, 4, tuple(sort_key(v) for v in value))
    if isinstance(value, list):
        return (0, 3, tuple(sort_key(v) for v in value))
    if isinstance(value, bool):
        return (0, 0, value)
    if isinstance(value, float) and value != value:
        # IEEE NaN breaks trichotomy (every ordered comparison is False),
        # which would leave sorted structures — ORDER BY output, the
        # bisect invariant of SortedIndex — silently inconsistent.  Mirror
        # compare(): all NaNs are one equality class, greater than every
        # other number (1.5 slots after the numeric rank, before text).
        return (0, 1.5, 0)
    return (0, _SORT_RANK[type(value)], value)


def desc_sort_key(value: Value):
    """:func:`sort_key`'s order exactly reversed (NULLs first), as a key
    that still sorts ascending.

    Ranks are negated, and a boolean, a number or a NaN is inverted *by
    value* (``-v`` is exact for ints of any size and for floats, infinities
    and ``-0.0`` included), so the key is a plain tuple that compares in C.
    Text, arrays and ROWs have no negation: their payload is wrapped in
    :class:`_Reversed`, which is therefore only ever compared with another
    one of the same rank.
    """
    if type(value) is int:
        return (1, -1, -value)
    if value is None:
        return (0, 0, 0)
    _, rank, payload = sort_key(value)
    return (1, -rank, -payload if rank < 2 else _Reversed(payload))


def sort_keys(col: Sequence[Value], descending: bool = False,
              nulls_first: bool | None = None) -> list:
    """The sort key of every value of *col*: :func:`sort_key`'s, or
    :func:`desc_sort_key`'s when *descending*.  An explicit NULLS FIRST /
    LAST (*nulls_first*; None = the direction's default) only moves the
    NULLs' own key to the other side of everything else's.

    A column of exact ints is keyed by ``zip`` alone, to the same keys the
    scalar functions give - so keys made a chunk at a time (TopN) compare
    across chunks whichever way each was keyed.
    """
    if set(map(type, col)) == {int}:
        if descending:
            return list(zip(repeat(1), repeat(-1), map(neg, col)))
        return list(zip(repeat(0), repeat(1), col))
    scalar = desc_sort_key if descending else sort_key
    if nulls_first is None or nulls_first == descending:
        return list(map(scalar, col))
    null = (-1, 0, 0) if nulls_first else (2, 0, 0)
    return [null if value is None else scalar(value) for value in col]


def row_sort_key(values: Iterable[Value], descending: Sequence[bool]):
    """Sort key for a tuple of ORDER BY expressions with per-key direction:
    NULLs sort last for ascending keys and first for descending keys,
    matching PostgreSQL defaults.
    """
    return tuple(desc_sort_key(value) if desc else sort_key(value)
                 for value, desc in zip(values, descending))


class _Reversed:
    """Wrapper inverting the order of a key that cannot be negated (the
    text, array or ROW payload of a :func:`desc_sort_key`)."""

    __slots__ = ("key",)

    def __init__(self, key):
        self.key = key

    def __lt__(self, other: "_Reversed") -> bool:
        return other.key < self.key

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Reversed) and other.key == self.key

    def __hash__(self) -> int:
        return hash(self.key)


def value_byte_size(value: Value) -> int:
    """Approximate on-disk size of a value, PostgreSQL-flavoured.

    Used by the buffer-page model behind Table 2.  Sizes follow PostgreSQL's
    storage: 1 byte for bool, 8 for ints/floats (we store bigint/double
    precision), ``1 + len`` for short text (varlena header), 4 bytes per NULL
    bitmap entry approximated as 0 here (the per-row header is charged by the
    storage layer, not per value).
    """
    if value is None:
        return 0
    if isinstance(value, bool):
        return 1
    if isinstance(value, int):
        return 8
    if isinstance(value, float):
        return 8
    if isinstance(value, str):
        # Char count approximates byte count (exact for ASCII); computing
        # the true UTF-8 length would make accounting O(len) per append.
        return 1 + len(value)
    if isinstance(value, list):
        return 24 + sum(value_byte_size(v) for v in value)
    if isinstance(value, Row):
        return 24 + sum(value_byte_size(v) for v in value)
    raise TypeError_(f"unsized value type: {type(value).__name__}")


def render_value(value: Value) -> str:
    """Render a value the way psql would (approximately)."""
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, str):
        return value
    if isinstance(value, Row):
        return "(" + ",".join(render_value(v) for v in value) + ")"
    if isinstance(value, list):
        return "{" + ",".join(render_value(v) for v in value) + "}"
    return str(value)


def hashable_value(value: Value):
    """A hashable stand-in for *value* preserving SQL equality classes.

    Used wherever values become dict/set keys — DISTINCT, GROUP BY, and the
    hash-join build table — so composite ROWs and arrays (unhashable as
    Python objects) hash by content, and booleans never collide with the
    integers they equal in Python.
    """
    if type(value) is int:  # the common key; never a bool
        return value
    if isinstance(value, Row):
        return ("row",) + tuple(hashable_value(v) for v in value)
    if isinstance(value, list):
        return ("arr",) + tuple(hashable_value(v) for v in value)
    if value is None:
        return ("null",)
    if isinstance(value, bool):
        return ("bool", value)
    if isinstance(value, float) and value != value:
        # All NaNs are one equality class (see compare()); Python's
        # NaN != NaN would otherwise split them across dict keys.
        return ("nan",)
    return value


def hashable_row(row) -> tuple:
    return tuple(hashable_value(v) for v in row)
