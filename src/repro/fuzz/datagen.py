"""Seeded random table contents for the differential fuzzer.

Values are drawn from small per-type pools so that duplicates — the food
of GROUP BY, DISTINCT, hash builds and merge-join group buffering — occur
constantly, with NULLs sprinkled into most columns (each column draws its
own NULL rate, see :data:`_NULL_RATES`) and, for *extreme* schemas, the boundary values that historically break engines: IEEE NaN and
infinities (which must order as one equality class above every number),
signed 64-bit limits, and integers just past them (exact in this engine's
Python ints, unrepresentable in SQLite's int64).

Rows are fed to the engine through parameterized INSERTs rather than
rendered literals: NaN has no SQL literal, and parameter binding keeps the
loaded value bit-identical to the generated one in both the engine and the
SQLite cross-check.
"""

from __future__ import annotations

import math
import random

from .schema import SchemaSpec, TableSpec

_INT64_MAX = 2**63 - 1
_INT64_MIN = -(2**63)

_INT_POOL = (0, 1, -1, 2, 3, -3, 5, 7, -17, 41, 100, 999)
_INT_POOL_EXTREME = _INT_POOL + (
    2**31 - 1, -(2**31), _INT64_MAX, _INT64_MIN, 2**63, -(2**70))
_FLOAT_POOL = (0.0, -0.0, 0.5, -2.75, 1.0, 3.25, 1e-3, 1e10, -123.5)
_FLOAT_POOL_EXTREME = _FLOAT_POOL + (
    math.inf, -math.inf, math.nan, 1e308, 5e-324)
_TEXT_POOL = ("", "a", "b", "ab", "B", "zz", "a b", "quo'te", "%_x")
_BOOL_POOL = (True, False)

#: Per-value NULL probability, drawn once per column: mostly high enough
#: that three-valued logic paths (NULL join keys, NULL ORDER BY keys, NULL
#: aggregates) run in most cases, and 0 for one column in three — at a flat
#: 0.15 an int column of 20 rows is NULL-free 4% of the time, so the
#: vectorized core's typed columns (``HeapTable.columns``: every value an
#: exact int) almost never met the row = vector oracle.
_NULL_RATES = (0.0, 0.15, 0.3)


def _pool(dtype: str, extreme: bool):
    if dtype == "int":
        return _INT_POOL_EXTREME if extreme else _INT_POOL
    if dtype == "float":
        return _FLOAT_POOL_EXTREME if extreme else _FLOAT_POOL
    if dtype == "text":
        return _TEXT_POOL
    return _BOOL_POOL


def generate_rows(rng: random.Random, table: TableSpec,
                  extreme: bool) -> list[tuple]:
    """Rows for one table: sometimes empty, duplicate-heavy otherwise."""
    if rng.random() < 0.08:
        return []
    count = rng.randint(1, 36)
    null_rates = [rng.choice(_NULL_RATES) for _ in table.columns]
    rows: list[tuple] = []
    for _ in range(count):
        if rows and rng.random() < 0.25:
            rows.append(rng.choice(rows))  # exact duplicate row
            continue
        row = []
        for column, null_rate in zip(table.columns, null_rates):
            if rng.random() < null_rate:
                row.append(None)
            else:
                row.append(rng.choice(_pool(column.dtype, extreme)))
        rows.append(tuple(row))
    return rows


def generate_data(rng: random.Random,
                  schema: SchemaSpec) -> dict[str, list[tuple]]:
    """Contents for every table of *schema*, keyed by table name."""
    return {t.name: generate_rows(rng, t, schema.extreme)
            for t in schema.tables}


def value_sqlite_safe(value) -> bool:
    """True when SQLite *represents* this value losslessly: NaN binds as
    NULL and ints outside signed-64-bit range refuse to bind at all.
    Infinities round-trip but turn engine-side NaN arithmetic (inf - inf)
    into SQLite NULLs.  Used by the oracle's known-dialect classifier to
    explain engine results SQLite could never produce."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return True
    if isinstance(value, float):
        return math.isfinite(value)
    return _INT64_MIN <= value <= _INT64_MAX


def value_sqlite_arithmetic_safe(value) -> bool:
    """Stricter gate for *input* data to the SQLite cross-check.

    SQLite does not raise on int64 overflow in ``+ - *`` — it silently
    degrades to floating point, so ``(-2^63) - ((-2^63) + (-3))`` is
    ``0.0`` there and exact ``3`` on this engine's Python bigints (fuzz
    seed 2001579).  Bounding input ints to 32 bits keeps every expression
    the generator can build (sums over tens of rows, products of a few
    terms) inside int64 on SQLite's side; the engine-vs-engine matrix
    still sweeps the full 64-bit-and-beyond range."""
    if isinstance(value, int) and not isinstance(value, bool):
        return -(2**31) <= value <= 2**31
    return value_sqlite_safe(value)


def data_sqlite_safe(data: dict[str, list[tuple]]) -> bool:
    """Whether a case's contents are eligible for the SQLite oracle."""
    return all(value_sqlite_arithmetic_safe(v)
               for rows in data.values() for row in rows for v in row)
