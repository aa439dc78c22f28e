"""Seeded random schema generation for the differential fuzzer.

A :class:`SchemaSpec` is the structural half of a fuzz case: a handful of
tables with typed columns (the engine's four storable scalar types) plus a
few sorted indexes, so that every access path the planner can choose —
range scans, sort elimination, Top-N — has raw material to fire on.

Generation is a pure function of the :class:`random.Random` stream handed
in: the same seed always yields byte-identical DDL, which is what makes a
failing case reproducible from its seed alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: (engine type name, comparability class, dtype) — dtype distinguishes
#: int from float inside the "num" class because integer division and
#: modulo only apply to exact ints.
COLUMN_TYPES = (
    ("int", "num", "int"),
    ("double precision", "num", "float"),
    ("text", "text", "text"),
    ("boolean", "bool", "bool"),
)

#: Draw weights for the four column types: keys and join columns are
#: mostly ints, which is also where the paper's workloads live.
_TYPE_WEIGHTS = (5, 2, 3, 1)


@dataclass(frozen=True)
class ColumnSpec:
    """One typed column of a generated table."""

    name: str
    type_name: str        # engine DDL spelling
    cls: str              # comparability class: 'num' | 'text' | 'bool'
    dtype: str            # 'int' | 'float' | 'text' | 'bool'


@dataclass(frozen=True)
class IndexSpec:
    """One generated CREATE INDEX: name plus (column, DESC?) pairs."""

    name: str
    table: str
    columns: tuple[tuple[str, bool], ...]

    def create_sql(self) -> str:
        cols = ", ".join(f"{name} DESC" if desc else name
                         for name, desc in self.columns)
        return f"CREATE INDEX {self.name} ON {self.table}({cols})"


@dataclass(frozen=True)
class TableSpec:
    """One generated table: columns plus any indexes declared over it."""

    name: str
    columns: tuple[ColumnSpec, ...]
    indexes: tuple[IndexSpec, ...] = ()

    def create_sql(self) -> str:
        cols = ", ".join(f"{c.name} {c.type_name}" for c in self.columns)
        return f"CREATE TABLE {self.name}({cols})"

    def columns_of_class(self, cls: str) -> list[ColumnSpec]:
        return [c for c in self.columns if c.cls == cls]

    def columns_of_dtype(self, dtype: str) -> list[ColumnSpec]:
        return [c for c in self.columns if c.dtype == dtype]


@dataclass(frozen=True)
class SchemaSpec:
    """The full structural spec of one fuzz case."""

    tables: tuple[TableSpec, ...]
    #: When set, the data generator mixes in boundary values (NaN,
    #: infinities, exact-int limits) that probe the engine's edges but
    #: disqualify the case from the SQLite cross-check.
    extreme: bool = False

    def statements(self) -> list[str]:
        out = [t.create_sql() for t in self.tables]
        for table in self.tables:
            out.extend(ix.create_sql() for ix in table.indexes)
        return out


def generate_schema(rng: random.Random) -> SchemaSpec:
    """Draw a random schema: 1-3 tables, 2-5 columns, 0-2 indexes each.

    Every table gets at least one int column so join keys, range
    predicates and deterministic ORDER BY tiebreaks always exist.
    """
    tables = []
    for t in range(rng.randint(1, 3)):
        columns = [ColumnSpec(f"c0_{t}", "int", "num", "int")]
        for i in range(1, rng.randint(2, 5)):
            type_name, cls, dtype = rng.choices(
                COLUMN_TYPES, weights=_TYPE_WEIGHTS)[0]
            columns.append(ColumnSpec(f"c{i}_{t}", type_name, cls, dtype))
        name = f"t{t}"
        indexes = []
        for i in range(rng.randint(0, 2)):
            width = rng.randint(1, min(2, len(columns)))
            picked = rng.sample(columns, width)
            indexes.append(IndexSpec(
                name=f"ix{i}_{t}", table=name,
                columns=tuple((c.name, rng.random() < 0.25)
                              for c in picked)))
        tables.append(TableSpec(name, tuple(columns), tuple(indexes)))
    return SchemaSpec(tuple(tables), extreme=rng.random() < 0.5)
