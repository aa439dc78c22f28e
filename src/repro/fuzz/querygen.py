"""Grammar-driven random SQL and PL/pgSQL generation.

The generator emits the workload shapes the paper's pipeline (and this
engine's planner) actually distinguishes: single-table filters and
projections, inner/left/cross joins, range and BETWEEN predicates, ORDER
BY / LIMIT / OFFSET, GROUP BY with aggregates and HAVING, scalar and
EXISTS subqueries (correlated and not), set operations, and loop-bearing
PL/pgSQL functions in the gcd/sum-loop family that the compiler turns into
``WITH RECURSIVE`` trampolines.

Two properties make the output usable as an oracle workload:

* **Type discipline** — every expression carries its comparability class
  and exact dtype, so generated comparisons never mix classes (which the
  engine rejects but SQLite happily coerces) and integer division/modulo
  only applies to exact ints (where both dialects truncate toward zero).
* **Determinism discipline** — ORDER BY is rendered over output ordinals;
  LIMIT/OFFSET is only attached when the ordering covers *every* output
  column, which pins the result list up to fully-equal rows.  A partial
  ordering is recorded as metadata so the oracle can fall back to
  bag-comparison plus a sortedness check instead of a false row-order
  mismatch.

Queries carry a second rendering for the SQLite cross-check, identical but
for explicit ``NULLS LAST`` / ``NULLS FIRST`` (SQLite's defaults are the
mirror image of PostgreSQL's); constructs SQLite lacks (UDF calls,
``greatest``/``least``) mark the query engine-only.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Optional

from .datagen import generate_data
from .schema import SchemaSpec, TableSpec, generate_schema

# ---------------------------------------------------------------------------
# Generated artifacts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Query:
    """One generated statement plus the metadata its oracle needs."""

    sql: str
    #: SQLite rendering, or None when the query is engine-only.
    sqlite_sql: Optional[str]
    #: 'none' (compare bags), 'partial' (bags + sortedness on the keys),
    #: or 'total' (ordering covers all output columns: compare lists).
    order: str = "none"
    #: (0-based output position, descending) per ORDER BY key.
    order_keys: tuple[tuple[int, bool], ...] = ()
    #: Set when the SQL contains the ``{f}`` function-name placeholder;
    #: the oracle formats it with the interpreted and compiled names.
    function: Optional[str] = None
    #: Set when the outcome may rightly depend on the plan (a full sort
    #: evaluates calls a streaming LIMIT never reaches; a volatile call
    #: draws in scan order): the oracle then compares the compiled twin
    #: with the interpreter under each configuration, each statement run
    #: from the same RNG state, instead of every run with the baseline.
    per_config: bool = False
    #: The name of the :data:`SHAPES` row that drew the query.
    shape: Optional[str] = None

    def variants(self, compiled: dict
                 ) -> list[tuple[str, Optional[str], str]]:
        """The statements this query stands for, as ``(label, function
        name or None, sql)``: the query itself (label ``plain``), or its
        call of the interpreted function (``interp``) and, where
        *compiled* maps that function to a twin, of the twin
        (``compiled``)."""
        if self.function is None:
            return [("plain", None, self.sql)]
        twin = f"{self.function}_c" if compiled.get(self.function) else None
        names = [("interp", self.function), ("compiled", twin)]
        return [(label, name, self.sql.format(f=name))
                for label, name in names if name]


@dataclass(frozen=True)
class Modification:
    """One generated UPDATE or DELETE over a single table.  The oracle
    runs it on a fresh copy of the table under every configuration, so
    whichever target scan a configuration picks must change the same
    rows."""

    sql: str
    #: SQLite rendering (the same text), or None when engine-only.
    sqlite_sql: Optional[str]
    table: str
    #: ``SELECT count(*)`` over the same table and WHERE: what the
    #: statement's affected-row count must equal.
    count_sql: str
    #: The name of the :data:`SHAPES` row that drew the statement.
    shape: Optional[str] = None


@dataclass(frozen=True)
class FunctionSpec:
    """One generated PL/pgSQL function (interpreted name; the oracle
    registers the compiled twin as ``<name>_c``)."""

    name: str
    arity: int
    source: str


@dataclass(frozen=True)
class Case:
    """A complete fuzz case: schema, data, functions, checked queries."""

    seed: int
    schema: SchemaSpec
    data: dict[str, list[tuple]]
    functions: tuple[FunctionSpec, ...]
    queries: tuple[Query, ...]
    modifications: tuple[Modification, ...] = ()

    def setup_statements(self) -> list[str]:
        return self.schema.statements()

    def statement_count(self) -> int:
        """Statements a written-out reproducer needs: one CREATE TABLE and
        (when non-empty) one INSERT per table, one CREATE INDEX per index,
        one CREATE FUNCTION per function, plus the checked queries and
        modifications."""
        count = (len(self.queries) + len(self.modifications)
                 + len(self.functions))
        for table in self.schema.tables:
            count += 1 + len(table.indexes)
            if self.data.get(table.name):
                count += 1
        return count

    def script(self) -> str:
        """A canonical, byte-stable rendering of the whole case (used by
        the determinism tests and ``--dump``; data rows appear as comments
        because they load through parameter binding, not literals)."""
        lines = [f"-- case seed {self.seed}"]
        for statement in self.setup_statements():
            lines.append(statement + ";")
        for table in self.schema.tables:
            for row in self.data.get(table.name, []):
                lines.append(f"-- INSERT INTO {table.name} VALUES {row!r}")
        for fn in self.functions:
            lines.append(fn.source.strip() + ";")
        for query in self.queries:
            lines.append(f"-- order={query.order} keys={query.order_keys} "
                         f"shape={query.shape}")
            lines.append(query.sql + ";")
        for modification in self.modifications:
            lines.append(f"-- on a fresh copy shape={modification.shape}")
            lines.append(modification.sql + ";")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class _Expr:
    """A rendered scalar expression with its type facts."""

    text: str
    cls: str                  # 'num' | 'text' | 'bool'
    dtype: str                # 'int' | 'float' | 'text' | 'bool'
    sqlite_ok: bool = True


# ---------------------------------------------------------------------------
# Expression generation
# ---------------------------------------------------------------------------

_CMP_OPS = ("=", "<>", "<", "<=", ">", ">=")

#: Constant ranges over an int column ``{c}`` (QueryGen.range_aggregate):
#: most of the int pool, or the gap between two of its values.
_WIDE_RANGES = ("{c} >= -17", "{c} < 100", "{c} BETWEEN -3 AND 999",
                "{c} >= 0 AND {c} < 1000", "{c} > -1 AND {c} <= 41")
_NARROW_RANGES = ("{c} > 7 AND {c} < 41", "{c} BETWEEN 8 AND 40",
                  "{c} > 100 AND {c} < 999")


class _ExprGen:
    """Class- and dtype-aware expression generator over a FROM context.

    *ctx* is a list of ``(alias, TableSpec)``; column references render as
    ``alias.column``.  Depth bounds recursion; the ``allow_subquery`` hook
    lets the query generator lend out subquery construction.
    """

    def __init__(self, rng: random.Random, ctx, subquery_fn=None,
                 exists_fn=None):
        self.rng = rng
        self.ctx = ctx
        self.subquery_fn = subquery_fn
        self.exists_fn = exists_fn

    # -- leaves ---------------------------------------------------------

    def columns(self, cls: Optional[str] = None,
                dtype: Optional[str] = None) -> list[_Expr]:
        out = []
        for alias, table in self.ctx:
            for c in table.columns:
                if cls is not None and c.cls != cls:
                    continue
                if dtype is not None and c.dtype != dtype:
                    continue
                out.append(_Expr(f"{alias}.{c.name}", c.cls, c.dtype))
        return out

    def int_literal(self, lo: int = -20, hi: int = 20) -> _Expr:
        value = self.rng.randint(lo, hi)
        text = str(value) if value >= 0 else f"({value})"
        return _Expr(text, "num", "int")

    def float_literal(self) -> _Expr:
        value = self.rng.choice((0.0, 0.5, 1.5, -2.75, 100.25, 1e-3))
        text = repr(value) if value >= 0 else f"({value!r})"
        return _Expr(text, "num", "float")

    def text_literal(self) -> _Expr:
        value = self.rng.choice(("", "a", "b", "ab", "zz", "quo'te"))
        return _Expr("'" + value.replace("'", "''") + "'", "text", "text")

    def literal(self, cls: str, dtype: Optional[str] = None) -> _Expr:
        if cls == "text":
            return self.text_literal()
        if cls == "bool":
            return _Expr(self.rng.choice(("true", "false")), "bool", "bool")
        if dtype == "float" or (dtype is None and self.rng.random() < 0.3):
            return self.float_literal()
        return self.int_literal()

    # -- scalar expressions --------------------------------------------

    def scalar(self, depth: int = 2) -> _Expr:
        cls = self.rng.choices(("num", "text", "bool"),
                               weights=(6, 3, 1))[0]
        if cls == "text":
            return self.text_expr(depth)
        if cls == "bool":
            candidates = self.columns(cls="bool")
            if candidates:
                return self.rng.choice(candidates)
            return self.num_expr(depth)
        return self.num_expr(depth)

    def num_expr(self, depth: int = 2) -> _Expr:
        roll = self.rng.random()
        columns = self.columns(cls="num")
        if depth <= 0 or roll < 0.35:
            if columns and self.rng.random() < 0.75:
                return self.rng.choice(columns)
            return self.literal("num")
        if roll < 0.70:
            a = self.num_expr(depth - 1)
            b = self.num_expr(depth - 1)
            op = self.rng.choice(("+", "-", "*", "/", "%"))
            if op == "%" and not (a.dtype == "int" and b.dtype == "int"):
                op = "+"   # modulo only over exact ints (dialect-portable)
            if op in ("/", "%"):
                # Guard the divisor: engines disagree on division by zero
                # (error here, NULL in SQLite); NULLIF makes both NULL.
                text = f"({a.text} {op} nullif({b.text}, 0))"
            else:
                text = f"({a.text} {op} {b.text})"
            dtype = "int" if a.dtype == "int" and b.dtype == "int" else "float"
            return _Expr(text, "num", dtype,
                         sqlite_ok=a.sqlite_ok and b.sqlite_ok)
        if roll < 0.78:
            inner = self.num_expr(depth - 1)
            return _Expr(f"abs({inner.text})", "num", inner.dtype,
                         sqlite_ok=inner.sqlite_ok)
        if roll < 0.84:
            inner = self.text_expr(depth - 1)
            return _Expr(f"length({inner.text})", "num", "int",
                         sqlite_ok=inner.sqlite_ok)
        if roll < 0.90:
            when = self.predicate(depth - 1)
            then = self.num_expr(depth - 1)
            other = self.num_expr(depth - 1)
            dtype = then.dtype if then.dtype == other.dtype else "float"
            return _Expr(
                f"(CASE WHEN {when.text} THEN {then.text} "
                f"ELSE {other.text} END)", "num", dtype,
                sqlite_ok=when.sqlite_ok and then.sqlite_ok and other.sqlite_ok)
        if roll < 0.95:
            a = self.num_expr(depth - 1)
            b = self.num_expr(depth - 1)
            fn = self.rng.choice(("greatest", "least"))
            dtype = a.dtype if a.dtype == b.dtype else "float"
            # greatest/least exist in PostgreSQL (and here) but not SQLite.
            return _Expr(f"{fn}({a.text}, {b.text})", "num", dtype,
                         sqlite_ok=False)
        if self.subquery_fn is not None:
            sub = self.subquery_fn(self)
            if sub is not None:
                return sub
        return self.rng.choice(columns) if columns else self.int_literal()

    def text_expr(self, depth: int = 2) -> _Expr:
        columns = self.columns(cls="text")
        roll = self.rng.random()
        if depth <= 0 or roll < 0.45:
            if columns and self.rng.random() < 0.7:
                return self.rng.choice(columns)
            return self.text_literal()
        if roll < 0.65:
            a = self.text_expr(depth - 1)
            b = self.text_expr(depth - 1)
            return _Expr(f"({a.text} || {b.text})", "text", "text",
                         sqlite_ok=a.sqlite_ok and b.sqlite_ok)
        if roll < 0.80:
            inner = self.text_expr(depth - 1)
            fn = self.rng.choice(("upper", "lower"))
            return _Expr(f"{fn}({inner.text})", "text", "text",
                         sqlite_ok=inner.sqlite_ok)
        if roll < 0.90:
            inner = self.text_expr(depth - 1)
            start = self.rng.randint(1, 3)
            count = self.rng.randint(0, 4)
            return _Expr(f"substr({inner.text}, {start}, {count})",
                         "text", "text", sqlite_ok=inner.sqlite_ok)
        inner = self.text_expr(depth - 1)
        return _Expr(f"replace({inner.text}, 'a', 'zz')", "text", "text",
                     sqlite_ok=inner.sqlite_ok)

    # -- predicates -----------------------------------------------------

    def predicate(self, depth: int = 2) -> _Expr:
        roll = self.rng.random()
        if depth > 0 and roll < 0.22:
            a = self.predicate(depth - 1)
            b = self.predicate(depth - 1)
            op = self.rng.choice(("AND", "OR"))
            return _Expr(f"({a.text} {op} {b.text})", "bool", "bool",
                         sqlite_ok=a.sqlite_ok and b.sqlite_ok)
        if depth > 0 and roll < 0.28:
            inner = self.predicate(depth - 1)
            return _Expr(f"(NOT {inner.text})", "bool", "bool",
                         sqlite_ok=inner.sqlite_ok)
        if depth > 0 and roll < 0.36 and self.exists_fn is not None:
            exists = self.exists_fn(self)
            if exists is not None:
                return exists
        return self.comparison(depth)

    def comparison(self, depth: int = 2) -> _Expr:
        roll = self.rng.random()
        if roll < 0.42:
            left = self.num_expr(max(depth - 1, 0))
            right = (self.rng.choice(self.columns(cls="num"))
                     if self.columns(cls="num") and self.rng.random() < 0.4
                     else self.literal("num"))
            op = self.rng.choice(_CMP_OPS)
            return _Expr(f"({left.text} {op} {right.text})", "bool", "bool",
                         sqlite_ok=left.sqlite_ok and right.sqlite_ok)
        if roll < 0.55:
            subject = (self.rng.choice(self.columns(cls="num"))
                       if self.columns(cls="num") else self.int_literal())
            lo, hi = sorted((self.rng.randint(-10, 30),
                             self.rng.randint(-10, 30)))
            negate = "NOT " if self.rng.random() < 0.25 else ""
            return _Expr(f"({subject.text} {negate}BETWEEN {lo} AND {hi})",
                         "bool", "bool", sqlite_ok=subject.sqlite_ok)
        if roll < 0.68:
            subject = self.scalar(max(depth - 1, 0))
            negate = " NOT" if self.rng.random() < 0.4 else ""
            return _Expr(f"({subject.text} IS{negate} NULL)", "bool", "bool",
                         sqlite_ok=subject.sqlite_ok)
        if roll < 0.80:
            columns = self.columns()
            if columns:
                subject = self.rng.choice(columns)
                items = [self.literal(subject.cls, subject.dtype).text
                         for _ in range(self.rng.randint(1, 3))]
                if self.rng.random() < 0.25:
                    # A NULL in the list: x NOT IN (.., NULL) is never
                    # true — prime three-valued-logic territory.
                    items.append("NULL")
                negate = " NOT" if self.rng.random() < 0.3 else ""
                return _Expr(
                    f"({subject.text}{negate} IN ({', '.join(items)}))",
                    "bool", "bool", sqlite_ok=subject.sqlite_ok)
        if roll < 0.84:
            columns = self.columns(cls="text")
            if columns:
                subject = self.rng.choice(columns)
                pattern = self.rng.choice(
                    ("a%", "%b", "%a%", "_", "%", "ab", "%_x", ""))
                op = self.rng.choice(("LIKE", "NOT LIKE", "ILIKE"))
                # Engine LIKE is case-sensitive (PostgreSQL), SQLite's is
                # not: engine-only.
                return _Expr(f"({subject.text} {op} '{pattern}')",
                             "bool", "bool", sqlite_ok=False)
        if roll < 0.88:
            columns = self.columns(cls="text")
            if columns:
                subject = self.rng.choice(columns)
                op = self.rng.choice(_CMP_OPS)
                lit = self.text_literal()
                return _Expr(f"({subject.text} {op} {lit.text})",
                             "bool", "bool")
        if roll < 0.94:
            columns = self.columns(cls="bool")
            if columns:
                subject = self.rng.choice(columns)
                word = self.rng.choice(("true", "false"))
                return _Expr(f"({subject.text} = {word})", "bool", "bool")
        left = (self.rng.choice(self.columns(cls="num"))
                if self.columns(cls="num") else self.int_literal())
        return _Expr(f"({left.text} >= {self.int_literal().text})",
                     "bool", "bool", sqlite_ok=left.sqlite_ok)


# ---------------------------------------------------------------------------
# Query generation
# ---------------------------------------------------------------------------


class QueryGen:
    """Draws whole statements over a schema and its data.  The methods
    that are rows of :data:`SHAPES` return what they drew and leave the
    functions it calls in :attr:`functions`."""

    def __init__(self, rng: random.Random, schema: SchemaSpec,
                 data: dict[str, list[tuple]]):
        self.rng = rng
        self.schema = schema
        self.data = data
        self.functions: tuple[FunctionSpec, ...] = ()
        self._sub_alias = 0

    # -- helpers --------------------------------------------------------

    def _table(self) -> TableSpec:
        return self.rng.choice(self.schema.tables)

    def _subquery(self, outer: _ExprGen) -> Optional[_Expr]:
        """A scalar subquery (aggregate, hence at most one row), sometimes
        correlated with the outer context on a same-class column pair.  A
        share of them join a second table on a same-class equality and are
        always correlated, on one side of the join only: the side a hash
        join must probe, not build, when the subquery is re-opened per
        outer row."""
        table = self._table()
        self._sub_alias += 1
        alias = f"x{self._sub_alias}"
        num_cols = table.columns_of_class("num")
        if num_cols and self.rng.random() < 0.7:
            agg_col = self.rng.choice(num_cols)
            agg = self.rng.choice(("min", "max", "sum"))
            select = f"{agg}({alias}.{agg_col.name})"
            dtype = agg_col.dtype
        else:
            select = "count(*)"
            dtype = "int"
        source = f"{table.name} {alias}"
        sides = [(alias, table)]
        if self.rng.random() < 0.2:
            other = self._table()
            partner = f"y{self._sub_alias}"
            # Every generated table has an int column, so a pair exists.
            mine, theirs = self.rng.choice(
                [(c, o) for c in table.columns for o in other.columns
                 if c.cls == o.cls])
            source += (f" JOIN {other.name} {partner} "
                       f"ON {alias}.{mine.name} = {partner}.{theirs.name}")
            sides.append((partner, other))
        joined = len(sides) > 1
        side_alias, side = self.rng.choice(sides)
        where = ""
        sqlite_ok = True
        if joined or self.rng.random() < 0.6:
            pairs = [(o, c) for _, t in outer.ctx for o in t.columns
                     for c in side.columns if o.cls == c.cls]
            if pairs and (joined or self.rng.random() < 0.6):
                outer_col, inner_col = self.rng.choice(pairs)
                outer_alias = next(a for a, t in outer.ctx
                                   if outer_col in t.columns)
                op = self.rng.choice(("=", "<", ">"))
                where = (f" WHERE {side_alias}.{inner_col.name} {op} "
                         f"{outer_alias}.{outer_col.name}")
            else:
                inner = _ExprGen(self.rng, [(side_alias, side)])
                pred = inner.predicate(1)
                where = f" WHERE {pred.text}"
                sqlite_ok = pred.sqlite_ok
        return _Expr(f"(SELECT {select} FROM {source}{where})",
                     "num", dtype, sqlite_ok=sqlite_ok)

    def _exists_subquery(self, outer: _ExprGen) -> Optional[_Expr]:
        """``[NOT] EXISTS (SELECT 1 FROM t x WHERE ...)``, correlated with
        the outer context on a same-class column pair when one exists."""
        table = self._table()
        self._sub_alias += 1
        alias = f"e{self._sub_alias}"
        sqlite_ok = True
        pairs = [(o, c) for _, t in outer.ctx for o in t.columns
                 for c in table.columns if o.cls == c.cls]
        if pairs and self.rng.random() < 0.7:
            outer_col, inner_col = self.rng.choice(pairs)
            outer_alias = next(a for a, t in outer.ctx
                               if outer_col in t.columns)
            op = self.rng.choice(("=", "<", ">", "<>"))
            where = (f" WHERE {alias}.{inner_col.name} {op} "
                     f"{outer_alias}.{outer_col.name}")
        else:
            inner = _ExprGen(self.rng, [(alias, table)])
            pred = inner.predicate(1)
            where = f" WHERE {pred.text}"
            sqlite_ok = pred.sqlite_ok
        negate = "NOT " if self.rng.random() < 0.3 else ""
        return _Expr(
            f"({negate}EXISTS (SELECT 1 FROM {table.name} {alias}{where}))",
            "bool", "bool", sqlite_ok=sqlite_ok)

    def _order_clause(self, n_output: int, total: bool):
        """An ORDER BY over output ordinals.  *total* permutes all output
        positions (list-comparable result); otherwise a proper subset is
        used and recorded for bag + sortedness checking."""
        positions = list(range(n_output))
        self.rng.shuffle(positions)
        if not total and n_output > 1:
            positions = positions[:self.rng.randint(1, n_output - 1)]
        keys = tuple((p, self.rng.random() < 0.35) for p in positions)
        engine = ", ".join(f"{p + 1} DESC" if desc else f"{p + 1}"
                           for p, desc in keys)
        # SQLite's NULLS defaults mirror PostgreSQL's, so the cross-check
        # rendering pins them to the engine's behaviour explicitly.
        lite = ", ".join(
            f"{p + 1} DESC NULLS FIRST" if desc else f"{p + 1} NULLS LAST"
            for p, desc in keys)
        return f" ORDER BY {engine}", f" ORDER BY {lite}", keys

    def _finish(self, engine_body: str, lite_body: Optional[str],
                n_output: int, function: Optional[str] = None,
                orderable: bool = True, per_config: bool = False) -> Query:
        order = "none"
        keys: tuple = ()
        engine_tail = lite_tail = ""
        if orderable and self.rng.random() < 0.62:
            total = self.rng.random() < 0.6 or n_output == 1
            engine_tail, lite_tail, keys = self._order_clause(
                n_output, total)
            order = "total" if total else "partial"
            if order == "total" and self.rng.random() < 0.45:
                if self.rng.random() < 0.85:
                    limit = self.rng.randint(0, 7)
                    engine_clause = f" LIMIT {limit}"
                    lite_clause = engine_clause
                    if self.rng.random() < 0.4:
                        offset = f" OFFSET {self.rng.randint(0, 3)}"
                        engine_clause += offset
                        lite_clause += offset
                else:
                    # OFFSET without LIMIT: SQLite's grammar needs the
                    # LIMIT -1 spelling for the same meaning.
                    offset = self.rng.randint(0, 3)
                    engine_clause = f" OFFSET {offset}"
                    lite_clause = f" LIMIT -1 OFFSET {offset}"
                engine_tail += engine_clause
                lite_tail += lite_clause
        sql = engine_body + engine_tail
        sqlite_sql = (lite_body + lite_tail
                      if lite_body is not None and function is None else None)
        return Query(sql=sql, sqlite_sql=sqlite_sql, order=order,
                     order_keys=keys, function=function,
                     per_config=per_config)

    # -- statement shapes ----------------------------------------------

    def simple_select(self) -> Query:
        table = self._table()
        gen = _ExprGen(self.rng, [("a", table)], self._subquery,
                        self._exists_subquery)
        items = [gen.scalar(2) for _ in range(self.rng.randint(1, 3))]
        distinct = "DISTINCT " if self.rng.random() < 0.15 else ""
        select = ", ".join(e.text for e in items)
        where = ""
        sqlite_ok = all(e.sqlite_ok for e in items)
        if self.rng.random() < 0.7:
            pred = gen.predicate(2)
            where = f" WHERE {pred.text}"
            sqlite_ok = sqlite_ok and pred.sqlite_ok
        body = f"SELECT {distinct}{select} FROM {table.name} a{where}"
        return self._finish(body, body if sqlite_ok else None, len(items))

    def join_select(self) -> Query:
        """Two tables, sometimes three, joined on same-class column pairs;
        above them plain select items (``_finish`` adds ORDER BY .. LIMIT
        tails) or an aggregate.  A small share of inner joins pair columns
        of *different* classes: every plan must then fail alike, the
        vectorized core's batch hash join by falling back to the row engine
        (``vector fallbacks`` in the summary line)."""
        left = self._table()
        right = self._table()
        ctx = [("a", left), ("b", right)]
        kind = self.rng.choices(("JOIN", "LEFT JOIN", "CROSS JOIN", ","),
                                weights=(5, 4, 1, 2))[0]
        third = self._table() if self.rng.random() < 0.3 else None
        if third is not None:
            ctx.append(("c", third))
        gen = _ExprGen(self.rng, ctx, self._subquery,
                        self._exists_subquery)
        pairs = [(lc, rc) for lc in left.columns for rc in right.columns
                 if lc.cls == rc.cls]
        mixed = [(lc, rc) for lc in left.columns for rc in right.columns
                 if lc.cls != rc.cls]
        on = ""
        where_parts = []
        sqlite_ok = True
        # No filter beside a mixed pair: a pushed-down one could empty a
        # side and spare one plan the comparison another still makes.
        cross_class = kind == "JOIN" and bool(mixed) \
            and self.rng.random() < 0.08
        if cross_class:
            lc, rc = self.rng.choice(mixed)
            on = f" ON a.{lc.name} = b.{rc.name}"
            sqlite_ok = False  # SQLite compares across classes
        elif kind in ("JOIN", "LEFT JOIN"):
            if not pairs:
                kind = "CROSS JOIN"
            else:
                lc, rc = self.rng.choice(pairs)
                on = f" ON a.{lc.name} = b.{rc.name}"
                if self.rng.random() < 0.3:
                    extra = gen.predicate(1)
                    if extra.sqlite_ok:
                        on += f" AND {extra.text}"
        elif kind == "," and pairs:
            lc, rc = self.rng.choice(pairs)
            where_parts.append(f"a.{lc.name} = b.{rc.name}")
        from_clause = (f"{left.name} a{kind}{on} {right.name} b"
                       if kind == ","
                       else f"{left.name} a {kind} {right.name} b{on}")
        if third is not None:
            alias, table = self.rng.choice(ctx[:2])
            # Every generated table has an int column, so a pair exists.
            oc, tc = self.rng.choice(
                [(oc, tc) for oc in table.columns for tc in third.columns
                 if oc.cls == tc.cls])
            from_clause += (f" JOIN {third.name} c "
                            f"ON {alias}.{oc.name} = c.{tc.name}")
        if self.rng.random() < 0.25:
            return self._aggregate_over(ctx, from_clause, gen, where_parts,
                                        sqlite_ok, filtered=not cross_class)
        items = [gen.scalar(2) for _ in range(self.rng.randint(1, 3))]
        sqlite_ok = sqlite_ok and all(e.sqlite_ok for e in items)
        if not cross_class and self.rng.random() < 0.4:
            pred = gen.predicate(1)
            where_parts.append(pred.text)
            sqlite_ok = sqlite_ok and pred.sqlite_ok
        where = f" WHERE {' AND '.join(where_parts)}" if where_parts else ""
        body = (f"SELECT {', '.join(e.text for e in items)} "
                f"FROM {from_clause}{where}")
        return self._finish(body, body if sqlite_ok else None, len(items))

    def aggregate_select(self) -> Query:
        table = self._table()
        gen = _ExprGen(self.rng, [("a", table)], self._subquery,
                        self._exists_subquery)
        return self._aggregate_over([("a", table)], f"{table.name} a", gen,
                                    [], True)

    def _aggregate_over(self, ctx, from_clause: str, gen: _ExprGen,
                        where_parts: list, sqlite_ok: bool,
                        filtered: bool = True) -> Query:
        """Aggregates, grouped or not, over *from_clause* (whose relations
        are *ctx*); *where_parts* are conjuncts the caller already needs."""
        columns = [f"{alias}.{c.name}" for alias, t in ctx for c in t.columns]
        num_cols = [f"{alias}.{c.name}" for alias, t in ctx
                    for c in t.columns_of_class("num")]
        aggs = []
        for _ in range(self.rng.randint(1, 2)):
            choice = self.rng.random()
            if choice < 0.25 or not num_cols:
                aggs.append("count(*)")
            elif choice < 0.45:
                aggs.append(f"count({self.rng.choice(columns)})")
            else:
                fn = self.rng.choice(("sum", "min", "max", "avg"))
                aggs.append(f"{fn}({self.rng.choice(num_cols)})")
        if filtered and self.rng.random() < 0.5:
            pred = gen.predicate(1)
            where_parts = where_parts + [pred.text]
            sqlite_ok = sqlite_ok and pred.sqlite_ok
        where = f" WHERE {' AND '.join(where_parts)}" if where_parts else ""
        if self.rng.random() < 0.7 and columns:
            group_refs = self.rng.sample(columns, self.rng.randint(1, 2))
            select = ", ".join(group_refs + aggs)
            having = ""
            if self.rng.random() < 0.3:
                having = f" HAVING count(*) > {self.rng.randint(0, 2)}"
            body = (f"SELECT {select} FROM {from_clause}{where} "
                    f"GROUP BY {', '.join(group_refs)}{having}")
            return self._grouped(body, len(group_refs), sqlite_ok)
        body = f"SELECT {', '.join(aggs)} FROM {from_clause}{where}"
        return Query(sql=body, sqlite_sql=body if sqlite_ok else None)

    def _grouped(self, body: str, n_keys: int, sqlite_ok: bool) -> Query:
        """A grouped statement whose select list leads with its *n_keys*
        group keys, ordered by them on most draws."""
        # Grouped rows are unique on the group keys, so ordering by
        # exactly those keys already pins the full row order.
        keys = tuple((i, self.rng.random() < 0.35) for i in range(n_keys))
        engine_tail = ", ".join(
            f"{p + 1} DESC" if d else f"{p + 1}" for p, d in keys)
        lite_tail = ", ".join(
            f"{p + 1} DESC NULLS FIRST" if d else f"{p + 1} NULLS LAST"
            for p, d in keys)
        if self.rng.random() < 0.7:
            sql = f"{body} ORDER BY {engine_tail}"
            lite = f"{body} ORDER BY {lite_tail}" if sqlite_ok else None
            return Query(sql=sql, sqlite_sql=lite, order="total",
                         order_keys=keys)
        return Query(sql=body, sqlite_sql=body if sqlite_ok else None)

    def typed_aggregate(self) -> Optional[Query]:
        """count / sum / avg over the int columns of a non-empty table
        whose int columns hold no NULL (``datagen.generate_data`` makes
        one so in a share of cases), filtered by one or two comparisons
        and grouped on most draws, built from those columns, int
        literals, ``+ - *``, unary minus, ``/`` and ``%`` by a positive
        literal, and a division by a column behind its ``<> 0`` guard:
        the shape the vectorized core runs as one fused loop.  None when
        no table qualifies."""
        rng = self.rng
        tables = [t for t in self.schema.tables if self.data.get(t.name)
                  and all(row[i] is not None for row in self.data[t.name]
                          for i, c in enumerate(t.columns)
                          if c.dtype == "int")]
        if not tables:
            return None
        table = rng.choice(tables)
        gen = _ExprGen(rng, [("a", table)])
        columns = [f"a.{c.name}" for c in table.columns_of_dtype("int")]

        def term(depth: int) -> str:
            roll = rng.random()
            if depth <= 0 or roll < 0.4:
                return (rng.choice(columns) if rng.random() < 0.8
                        else gen.int_literal().text)
            if roll < 0.8:
                op = rng.choice(("+", "-", "*"))
                return f"({term(depth - 1)} {op} {term(depth - 1)})"
            if roll < 0.92:
                op = rng.choice(("/", "%"))
                return f"({term(depth - 1)} {op} {rng.randint(1, 9)})"
            return f"(-{term(depth - 1)})"

        def condition() -> str:
            op = rng.choice(_CMP_OPS)
            if rng.random() < 0.2:
                divisor = rng.choice(columns)
                return (f"({divisor} <> 0 AND ({term(1)} / {divisor}) {op} "
                        f"{gen.int_literal().text})")
            return f"({term(2)} {op} {term(1)})"

        aggs = []
        for _ in range(rng.randint(1, 3)):
            fn = rng.choice(("count(*)", "count", "sum", "avg"))
            aggs.append(fn if fn == "count(*)" else f"{fn}({term(2)})")
        where = " AND ".join(condition() for _ in range(rng.randint(1, 2)))
        if rng.random() < 0.3:
            body = (f"SELECT {', '.join(aggs)} FROM {table.name} a "
                    f"WHERE {where}")
            return Query(sql=body, sqlite_sql=body)
        # A key reads a column: a bare literal would be an output ordinal.
        keys = [key if "a." in key else rng.choice(columns)
                for key in (term(1) for _ in range(rng.randint(1, 2)))]
        having = (f" HAVING count(*) > {rng.randint(0, 2)}"
                  if rng.random() < 0.2 else "")
        body = (f"SELECT {', '.join(keys + aggs)} FROM {table.name} a "
                f"WHERE {where} GROUP BY {', '.join(keys)}{having}")
        return self._grouped(body, len(keys), True)

    def window_select(self) -> Query:
        """An aggregate over a window.  The default RANGE frame includes
        every peer of the current row, so the window value is a
        deterministic function of the row even when the window ordering
        has ties — which keeps all oracles comparable."""
        table = self._table()
        gen = _ExprGen(self.rng, [("a", table)], None)
        agg_col = self.rng.choice(table.columns_of_class("num"))
        fn = self.rng.choice(("sum", "count", "min", "max", "avg"))
        over_parts_engine = []
        over_parts_lite = []
        if self.rng.random() < 0.7:
            part = self.rng.choice(table.columns)
            over_parts_engine.append(f"PARTITION BY a.{part.name}")
            over_parts_lite.append(f"PARTITION BY a.{part.name}")
        if self.rng.random() < 0.7:
            order_col = self.rng.choice(table.columns)
            desc = self.rng.random() < 0.3
            over_parts_engine.append(
                f"ORDER BY a.{order_col.name}{' DESC' if desc else ''}")
            # Pin SQLite's window ordering to the engine's NULLS defaults.
            over_parts_lite.append(
                f"ORDER BY a.{order_col.name} DESC NULLS FIRST" if desc
                else f"ORDER BY a.{order_col.name} NULLS LAST")
        win_engine = f"{fn}(a.{agg_col.name}) OVER " \
                     f"({' '.join(over_parts_engine)})"
        win_lite = f"{fn}(a.{agg_col.name}) OVER " \
                   f"({' '.join(over_parts_lite)})"
        items = [gen.scalar(1) for _ in range(self.rng.randint(1, 2))]
        where = ""
        sqlite_ok = all(e.sqlite_ok for e in items)
        if self.rng.random() < 0.5:
            pred = gen.predicate(1)
            where = f" WHERE {pred.text}"
            sqlite_ok = sqlite_ok and pred.sqlite_ok
        select_engine = ", ".join([e.text for e in items] + [win_engine])
        select_lite = ", ".join([e.text for e in items] + [win_lite])
        body = f"SELECT {select_engine} FROM {table.name} a{where}"
        lite = (f"SELECT {select_lite} FROM {table.name} a{where}"
                if sqlite_ok else None)
        return self._finish(body, lite, len(items) + 1)

    def setop_select(self) -> Query:
        arity = self.rng.randint(1, 2)
        classes = [self.rng.choices(("num", "text"), weights=(3, 2))[0]
                   for _ in range(arity)]

        def branch() -> tuple[str, bool]:
            table = self._table()
            gen = _ExprGen(self.rng, [("a", table)], None)
            items = [(gen.num_expr(1) if cls == "num" else gen.text_expr(1))
                     for cls in classes]
            where = ""
            ok = all(e.sqlite_ok for e in items)
            if self.rng.random() < 0.5:
                pred = gen.predicate(1)
                where = f" WHERE {pred.text}"
                ok = ok and pred.sqlite_ok
            text = (f"SELECT {', '.join(e.text for e in items)} "
                    f"FROM {table.name} a{where}")
            return text, ok

        op = self.rng.choice(("UNION", "UNION ALL", "INTERSECT", "EXCEPT"))
        (left, ok_l), (right, ok_r) = branch(), branch()
        body = f"{left} {op} {right}"
        return self._finish(body, body if ok_l and ok_r else None, arity)

    def function_select(self) -> Query:
        """A call of a loop-bearing function (:func:`generate_function`):
        alone over literals, under ``sum``, in WHERE or beside other
        select items.  An argument is a column, a literal, a division by
        zero over the row (raising wherever the column is not NULL, read
        by the body or not) or a ``random()`` draw; a query with either of
        the last two is compared per configuration."""
        fn = generate_function(self.rng)
        self.functions = (fn,)
        table = self._table()
        gen = _ExprGen(self.rng, [("a", table)], None)
        int_cols = table.columns_of_dtype("int")

        def arg() -> str:
            draw = self.rng.random()
            column = f"a.{self.rng.choice(int_cols).name}"
            if draw < 0.65:
                return column
            if draw < 0.72:
                return f"12 / ({column} - {column})"
            if draw < 0.8:
                return f"floor(random() * {self.rng.randint(2, 9)})::int"
            return str(self.rng.randint(0, 12))

        args = ", ".join(arg() for _ in range(fn.arity))
        per_config = "/" in args or "random" in args
        call = "{f}(" + args + ")"
        shape = self.rng.random()
        if shape < 0.15:
            lits = ", ".join(str(self.rng.randint(-6, 12))
                             for _ in range(fn.arity))
            return Query(sql="SELECT {f}(" + lits + ")", sqlite_sql=None,
                         order="total", order_keys=((0, False),),
                         function=fn.name)
        if shape < 0.30:
            body = (f"SELECT sum({call}), count(*) FROM {table.name} a")
            return Query(sql=body, sqlite_sql=None, function=fn.name,
                         per_config=per_config)
        if shape < 0.45:
            pred_col = f"a.{self.rng.choice(int_cols).name}"
            body = (f"SELECT {pred_col} FROM {table.name} a "
                    f"WHERE ({call} % 2 = 0)")
            return self._finish(body, None, 1, function=fn.name,
                                per_config=per_config)
        items = [call]
        for _ in range(self.rng.randint(0, 2)):
            items.append(gen.scalar(1).text)
        body = f"SELECT {', '.join(items)} FROM {table.name} a"
        return self._finish(body, None, len(items), function=fn.name,
                            per_config=per_config)

    def correlated_in(self) -> Query:
        """``a.x [NOT] IN (SELECT z.v FROM t z WHERE z.k = a.k)``: probed
        with one outer column, correlated on another, over tables whose
        values repeat.  Outer rows sharing a key re-open the subquery with
        different probes, so the memoized IN stops at a different row each
        time, and a hit that wants more rows than an earlier open pulled
        refills the prefix (executor/memo.py)."""
        outer, inner = self._table(), self._table()
        # Every generated table has an int column, so a pair exists.
        pairs = [(o, c) for o in outer.columns for c in inner.columns
                 if o.cls == c.cls]
        key_outer, key_inner = self.rng.choice(pairs)
        probe, value = self.rng.choice(pairs)
        negate = " NOT" if self.rng.random() < 0.3 else ""
        body = (f"SELECT a.{probe.name}, a.{key_outer.name}, "
                f"(a.{probe.name}{negate} IN (SELECT z.{value.name} "
                f"FROM {inner.name} z "
                f"WHERE z.{key_inner.name} = a.{key_outer.name})) "
                f"FROM {outer.name} a")
        return self._finish(body, body, 3)

    def lazy_call(self) -> Query:
        """A call of a :func:`generate_dividing_function` that the row
        engine evaluates lazily or over repeated values (the
        trampoline site's memo), one of three shapes:

        * in a derived table under a streaming LIMIT, dividing by zero on
          the last row in heap order, past the LIMIT;
        * beside the leading int column of an index under ``ORDER BY ..
          LIMIT`` (sort elimination keeps the block streaming), dividing by
          zero on the row that sorts last;
        * in WHERE and in an aggregate argument, over ``% 3`` of an int
          column, so values repeat, never dividing by zero.

        An evaluator that runs a block's calls eagerly raises on the first
        two where the interpreter does not."""
        rng = self.rng
        fn = generate_dividing_function(rng)
        self.functions = (fn,)
        ordered = [(table, index.columns[0]) for table in self.schema.tables
                   for index in table.indexes
                   if next(c for c in table.columns
                           if c.name == index.columns[0][0]).dtype == "int"]
        shape = rng.random()
        if shape < 0.35:
            table = self._table()
            column = rng.choice(table.columns_of_dtype("int"))
            call = f"{{f}}(a.{column.name} % 3, 7)"
            body = (f"SELECT count(*), sum({call}) FROM {table.name} a "
                    f"WHERE {call} % 2 = 0")
            return Query(sql=body, sqlite_sql=None, function=fn.name)
        key = None
        if ordered and shape < 0.7:
            table, (key, desc) = rng.choice(ordered)
            position = table.columns.index(
                next(c for c in table.columns if c.name == key))
            rows = sorted((row for row in self.data.get(table.name, [])
                           if row[position] is not None),
                          key=lambda row: row[position], reverse=desc)
        else:
            table = self._table()
            rows = self.data.get(table.name, [])
        column = rng.choice(table.columns_of_dtype("int"))
        poison = rows[-1][table.columns.index(column)] if rows else None
        poison = poison if type(poison) is int else 0
        call = f"{{f}}(a.{column.name}, {poison})"
        limit = rng.randint(0, 3)
        if key is None:
            body = (f"SELECT * FROM (SELECT {call} AS y, a.{column.name} AS c "
                    f"FROM {table.name} a) s LIMIT {limit}")
            return Query(sql=body, sqlite_sql=None, function=fn.name,
                         per_config=True)
        direction = " DESC" if desc else ""
        body = (f"SELECT a.{key}, {call} FROM {table.name} a "
                f"ORDER BY a.{key}{direction} LIMIT {limit}")
        return Query(sql=body, sqlite_sql=None, order="partial",
                     order_keys=((0, desc),), function=fn.name,
                     per_config=True)

    def volatile_call(self) -> Query:
        """A call of a function drawing through a volatile helper
        (:func:`generate_volatile_function`), over repeated argument
        values: a memo keyed by them would drop draws the interpreter
        makes."""
        helper, fn = generate_volatile_function(self.rng)
        self.functions = (helper, fn)
        table = self._table()
        column = self.rng.choice(table.columns_of_dtype("int"))
        body = (f"SELECT a.{column.name}, {{f}}(a.{column.name} % 3) "
                f"FROM {table.name} a")
        return Query(sql=body, sqlite_sql=None, function=fn.name,
                     per_config=True)

    def range_aggregate(self) -> Query:
        """count / sum / avg over a table, filtered by a constant range on
        a bare int column (one that leads an index where there is one) and
        grouped on some draws.  The range is wide - most of the value pool
        - or narrow - between two pool values, so it holds no row: the
        planner gives the first to the vectorized scan and keeps the range
        scan for the second (``planner.WIDE_RANGE_DIVISOR``)."""
        rng = self.rng
        table = self._table()
        ints = table.columns_of_dtype("int")
        leading = [c for c in ints for index in table.indexes
                   if index.columns[0][0] == c.name]
        ranges = _WIDE_RANGES if rng.random() < 0.7 else _NARROW_RANGES
        where = rng.choice(ranges).format(
            c=f"a.{rng.choice(leading or ints).name}")
        arg = f"a.{rng.choice(ints).name}"
        aggs = ", ".join(rng.sample(
            ("count(*)", f"sum({arg})", f"avg({arg})", f"count({arg})"),
            rng.randint(1, 3)))
        if rng.random() < 0.4:
            body = f"SELECT {aggs} FROM {table.name} a WHERE {where}"
            return Query(sql=body, sqlite_sql=body)
        key = f"a.{rng.choice(table.columns).name}"
        body = (f"SELECT {key}, {aggs} FROM {table.name} a WHERE {where} "
                f"GROUP BY {key}")
        return self._grouped(body, 1, True)

    def guarded_conjuncts(self) -> Query:
        """A WHERE of three conjuncts over a table's int columns: a
        comparison that is NULL where its column is, a division by a
        column that may hold 0, and a third comparison.  The second runs
        (and may raise) on exactly the rows the first leaves TRUE or NULL,
        in the row engine's lazy AND and in the vector filter alike.  No
        conjunct is a bare column's range or equality and no ORDER BY ..
        LIMIT can stop the scan early, so every plan reads every row."""
        rng = self.rng
        table = self._table()
        ints = [f"a.{c.name}" for c in table.columns_of_dtype("int")]
        first, divisor, third = (rng.choice(ints) for _ in range(3))
        where = (f"({first} + 0 {rng.choice(_CMP_OPS)} "
                 f"{rng.randint(-3, 7)}) AND (100 / {divisor} > "
                 f"{rng.randint(-5, 40)}) AND ({third} * 2 <> "
                 f"{rng.randint(-6, 14)})")
        if rng.random() < 0.5:
            body = f"SELECT count(*), sum({third}) FROM {table.name} a " \
                   f"WHERE {where}"
            return Query(sql=body, sqlite_sql=None)
        body = f"SELECT {first}, {divisor} FROM {table.name} a WHERE {where}"
        return self._finish(body, None, 2, orderable=False)

    # -- row-changing statements -----------------------------------------

    def modification(self, delete: bool) -> Modification:
        """A DELETE or an UPDATE whose WHERE is drawn from the single-table
        filter grammar of :meth:`simple_select` (equality, range,
        BETWEEN, IN, correlated EXISTS ...), the table standing under its
        own name since neither statement takes an alias.  Half of them
        lead with an equality or a range on an int column against a value
        the column holds in the case's data, so that the index paths find
        targets and not only the scan.  SET assigns a literal, NULL, another
        column of the same dtype or, to an int column, itself plus a
        constant - indexed columns included."""
        rng = self.rng
        table = self._table()
        gen = _ExprGen(rng, [(table.name, table)], self._subquery,
                       self._exists_subquery)
        conjuncts = []
        sqlite_ok = True
        column = rng.choice(table.columns_of_dtype("int"))
        held = [row[table.columns.index(column)]
                for row in self.data.get(table.name, [])]
        held = [value for value in held if type(value) is int]
        if held and rng.random() < 0.5:
            low, high = (str(v) if v >= 0 else f"({v})"
                         for v in sorted(rng.choices(held, k=2)))
            name = f"{table.name}.{column.name}"
            conjuncts.append(rng.choice((
                f"({name} = {low})", f"({name} >= {high})",
                f"({name} < {high})",
                f"({name} BETWEEN {low} AND {high})")))
        if not conjuncts or rng.random() < 0.6:
            pred = gen.predicate(2)
            conjuncts.append(pred.text)
            sqlite_ok = pred.sqlite_ok
        where = " WHERE " + " AND ".join(conjuncts) \
            if rng.random() < 0.95 else ""
        if delete:
            head = f"DELETE FROM {table.name}"
        else:
            assignments = []
            for column in rng.sample(table.columns,
                                     rng.randint(1, min(2, len(table.columns)))):
                roll = rng.random()
                peers = [c for c in table.columns_of_dtype(column.dtype)
                         if c is not column]
                if roll < 0.1:
                    value = "NULL"
                elif roll < 0.4 and column.dtype == "int":
                    value = f"{column.name} + {rng.randint(1, 9)}"
                elif roll < 0.6 and peers:
                    value = rng.choice(peers).name
                else:
                    value = gen.literal(column.cls, column.dtype).text
                assignments.append(f"{column.name} = {value}")
            head = f"UPDATE {table.name} SET {', '.join(assignments)}"
            # A subquery over the target table sees the rows SQLite's
            # UPDATE already changed, not the statement's snapshot.
            if f"FROM {table.name} " in where or f"JOIN {table.name} " in where:
                sqlite_ok = False
        sql = head + where
        return Modification(
            sql=sql, sqlite_sql=sql if sqlite_ok else None,
            table=table.name,
            count_sql=f"SELECT count(*) FROM {table.name}{where}")


# ---------------------------------------------------------------------------
# PL/pgSQL function generation
# ---------------------------------------------------------------------------


def generate_function(rng: random.Random) -> FunctionSpec:
    """A loop-bearing (or occasionally Froid-style branching) int function
    in the paper's workload family.  Loops always terminate: the counter
    increments unconditionally and bounds derive from ``arg % m + k``.
    Every arithmetic step is total over ints (constant nonzero divisors),
    so interpreter, compiled trampoline and batched execution must agree
    on values *and* errors."""
    name = "fz"
    arity = rng.randint(1, 2)
    params = ", ".join(f"{p} int" for p in ("a", "b")[:arity])
    args = ("a", "b")[:arity]
    if rng.random() < 0.3:
        k = rng.randint(0, 6)
        e1 = f"a * {rng.randint(1, 4)} + {rng.randint(-3, 3)}"
        e2 = (f"a % {rng.randint(2, 5)}" if arity == 1
              else f"a - b * {rng.randint(1, 3)}")
        e3 = rng.choice(("0", "a", f"a + {rng.randint(1, 9)}"))
        source = f"""CREATE FUNCTION {name}({params}) RETURNS int AS $$
BEGIN
  IF a > {k} THEN RETURN {e1};
  ELSIF a < {-k - 1} THEN RETURN {e2};
  END IF;
  RETURN {e3};
END;
$$ LANGUAGE plpgsql"""
        return FunctionSpec(name, arity, source)
    acc0 = rng.randint(0, 5)
    bound_arg = rng.choice(args)
    bound = rng.choice((
        f"{bound_arg} % {rng.randint(3, 7)} + {rng.randint(1, 4)}",
        str(rng.randint(2, 8)),
    ))
    steps = []
    for _ in range(rng.randint(1, 2)):
        steps.append(rng.choice((
            f"acc := acc + (i * {rng.randint(1, 4)} + {rng.choice(args)});",
            f"acc := acc * 2 - i;",
            f"acc := acc + {rng.choice(args)} % {rng.randint(2, 6)};",
            f"acc := acc / {rng.randint(2, 4)} + i;",
        )))
    if rng.random() < 0.5:
        steps.append(
            f"IF acc > {rng.randint(50, 200)} THEN "
            f"acc := acc % {rng.randint(7, 97)}; END IF;")
    ret = rng.choice(("acc", "acc + i", f"acc % {rng.randint(5, 50)}"))
    body = "\n    ".join(steps)
    source = f"""CREATE FUNCTION {name}({params}) RETURNS int AS $$
DECLARE acc int := {acc0}; i int := 0;
BEGIN
  WHILE i < ({bound}) LOOP
    {body}
    i := i + 1;
  END LOOP;
  RETURN {ret};
END;
$$ LANGUAGE plpgsql"""
    return FunctionSpec(name, arity, source)


def generate_dividing_function(rng: random.Random) -> FunctionSpec:
    """A loop whose every iteration divides by ``a - v``: a call raises
    exactly when ``a = v``, wherever and whenever it is evaluated."""
    name = "fzd"
    source = f"""CREATE FUNCTION {name}(a int, v int) RETURNS int AS $$
DECLARE acc int := {rng.randint(0, 5)}; i int := 0;
BEGIN
  WHILE i < {rng.randint(1, 3)} LOOP
    acc := acc + 12 / (a - v) + i;
    i := i + 1;
  END LOOP;
  RETURN acc;
END;
$$ LANGUAGE plpgsql"""
    return FunctionSpec(name, 2, source)


def generate_volatile_function(rng: random.Random
                               ) -> tuple[FunctionSpec, FunctionSpec]:
    """A loop-free helper that draws ``random()`` and a loop-bearing
    function calling it once per iteration: the function is volatile only
    through the helper, so the compiler must neither drop nor duplicate
    the call, and no call site may share its results."""
    helper = "fzh"
    name = "fzv"
    scale = rng.randint(2, 9)
    helper_source = f"""CREATE FUNCTION {helper}(n int) RETURNS int AS $$
BEGIN
  RETURN n + floor(random() * {scale})::int;
END;
$$ LANGUAGE plpgsql"""
    source = f"""CREATE FUNCTION {name}(a int) RETURNS int AS $$
DECLARE acc int := 0; i int := 0;
BEGIN
  WHILE i < (a % 2 + {rng.randint(1, 2)}) LOOP
    acc := acc + {helper}(i);
    i := i + 1;
  END LOOP;
  RETURN acc;
END;
$$ LANGUAGE plpgsql"""
    return FunctionSpec(helper, 1, helper_source), FunctionSpec(name, 1, source)


# ---------------------------------------------------------------------------
# Case assembly
# ---------------------------------------------------------------------------


#: What a case holds beyond its schema and data, as ``(name, share,
#: draw)`` rows.  In its share of cases a row draws one statement with
#: ``draw(gen)``, a :class:`QueryGen` method that leaves the functions the
#: statement calls in ``gen.functions`` (and returns None when the case
#: has nothing it can draw over), from a random stream of its own, seeded
#: with the case seed and the row's name.  So adding, removing or
#: reweighting one row leaves every other row's draws as they were.
SHAPES = (
    ("select", 0.95, QueryGen.simple_select),
    ("join", 0.7, QueryGen.join_select),
    ("aggregate", 0.65, QueryGen.aggregate_select),
    ("setop", 0.4, QueryGen.setop_select),
    ("window", 0.4, QueryGen.window_select),
    ("function", 0.45, QueryGen.function_select),
    ("update", 1.0, lambda gen: gen.modification(delete=False)),
    ("delete", 1.0, lambda gen: gen.modification(delete=True)),
    ("typed_aggregate", 0.6, QueryGen.typed_aggregate),
    ("correlated_in", 0.3, QueryGen.correlated_in),
    ("lazy_call", 0.12, QueryGen.lazy_call),
    ("volatile_call", 0.06, QueryGen.volatile_call),
    ("range_aggregate", 0.25, QueryGen.range_aggregate),
    ("guarded_conjuncts", 0.15, QueryGen.guarded_conjuncts),
)


def case_seed(run_seed: int, index: int) -> int:
    """The per-case sub-seed: a pure function of (run seed, case index),
    so any case from a run is regenerable without replaying the run."""
    return (run_seed * 1_000_003 + index) & 0xFFFF_FFFF_FFFF


def generate_case(run_seed: int, index: int) -> Case:
    """Generate fuzz case *index* of the run seeded with *run_seed*: the
    schema and data from one stream, then the rows of :data:`SHAPES`.
    (A str seed is hashed with SHA-512: the streams do not depend on
    ``PYTHONHASHSEED``.)"""
    seed = case_seed(run_seed, index)
    rng = random.Random(f"{seed}/schema")
    schema = generate_schema(rng)
    data = generate_data(rng, schema)
    functions: tuple[FunctionSpec, ...] = ()
    queries: list[Query] = []
    modifications: list[Modification] = []
    for name, share, draw in SHAPES:
        rng = random.Random(f"{seed}/{name}")
        if rng.random() >= share:
            continue
        gen = QueryGen(rng, schema, data)
        statement = draw(gen)
        if statement is not None:
            drawn = (modifications if isinstance(statement, Modification)
                     else queries)
            drawn.append(replace(statement, shape=name))
        functions += gen.functions
    return Case(seed=seed, schema=schema, data=data, functions=functions,
                queries=tuple(queries), modifications=tuple(modifications))
