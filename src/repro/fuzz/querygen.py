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
from dataclasses import dataclass
from typing import Optional

from .datagen import data_sqlite_safe, generate_data
from .schema import ColumnSpec, SchemaSpec, TableSpec, generate_schema

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
            lines.append(f"-- order={query.order} keys={query.order_keys}")
            lines.append(query.sql + ";")
        for modification in self.modifications:
            lines.append("-- on a fresh copy")
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
    """Draws whole statements over a schema (plus optional functions)."""

    def __init__(self, rng: random.Random, schema: SchemaSpec,
                 functions: tuple[FunctionSpec, ...] = ()):
        self.rng = rng
        self.schema = schema
        self.functions = functions
        self._sub_alias = 0

    # -- helpers --------------------------------------------------------

    def _table(self) -> TableSpec:
        return self.rng.choice(self.schema.tables)

    def _subquery(self, outer: _ExprGen) -> Optional[_Expr]:
        """A scalar subquery (aggregate, hence at most one row), sometimes
        correlated with the outer context on a same-class column pair."""
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
        where = ""
        sqlite_ok = True
        if self.rng.random() < 0.6:
            pairs = [(o, c) for _, t in outer.ctx for o in t.columns
                     for c in table.columns if o.cls == c.cls]
            if pairs and self.rng.random() < 0.6:
                outer_col, inner_col = self.rng.choice(pairs)
                outer_alias = next(a for a, t in outer.ctx
                                   if outer_col in t.columns)
                op = self.rng.choice(("=", "<", ">"))
                where = (f" WHERE {alias}.{inner_col.name} {op} "
                         f"{outer_alias}.{outer_col.name}")
            else:
                inner = _ExprGen(self.rng, [(alias, table)])
                pred = inner.predicate(1)
                where = f" WHERE {pred.text}"
                sqlite_ok = pred.sqlite_ok
        return _Expr(f"(SELECT {select} FROM {table.name} {alias}{where})",
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
                orderable: bool = True) -> Query:
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
                     order_keys=keys, function=function)

    # -- statement shapes ----------------------------------------------

    def generate(self) -> Query:
        shapes = [(self._simple_select, 28), (self._join_select, 20),
                  (self._aggregate_select, 18), (self._setop_select, 11),
                  (self._window_select, 11)]
        if self.functions:
            shapes.append((self._function_select, 26))
        maker = self.rng.choices([s for s, _ in shapes],
                                 weights=[w for _, w in shapes])[0]
        return maker()

    def _simple_select(self) -> Query:
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

    def _join_select(self) -> Query:
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

    def _aggregate_select(self) -> Query:
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
            # Grouped rows are unique on the group keys, so ordering by
            # exactly those keys already pins the full row order.
            keys = tuple((i, self.rng.random() < 0.35)
                         for i in range(len(group_refs)))
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
        body = f"SELECT {', '.join(aggs)} FROM {from_clause}{where}"
        return Query(sql=body, sqlite_sql=body if sqlite_ok else None)

    def _window_select(self) -> Query:
        """An aggregate over a window.  The default RANGE frame includes
        every peer of the current row, so the window value is a
        deterministic function of the row even when the window ordering
        has ties — which keeps all oracles comparable."""
        table = self._table()
        gen = _ExprGen(self.rng, [("a", table)], None)
        num_cols = table.columns_of_class("num")
        if not num_cols:
            return self._simple_select()
        agg_col = self.rng.choice(num_cols)
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

    def _setop_select(self) -> Query:
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

    def _function_select(self) -> Query:
        fn = self.rng.choice(self.functions)
        table = self._table()
        gen = _ExprGen(self.rng, [("a", table)], None)
        int_cols = table.columns_of_dtype("int")

        def arg() -> str:
            if int_cols and self.rng.random() < 0.75:
                return f"a.{self.rng.choice(int_cols).name}"
            return str(self.rng.randint(0, 12))

        args = ", ".join(arg() for _ in range(fn.arity))
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
            return Query(sql=body, sqlite_sql=None, function=fn.name)
        if shape < 0.45:
            pred_col = (f"a.{self.rng.choice(int_cols).name}"
                        if int_cols else "1")
            body = (f"SELECT {pred_col} FROM {table.name} a "
                    f"WHERE ({call} % 2 = 0)")
            return self._finish(body, None, 1, function=fn.name)
        items = [call]
        for _ in range(self.rng.randint(0, 2)):
            items.append(gen.scalar(1).text)
        body = f"SELECT {', '.join(items)} FROM {table.name} a"
        return self._finish(body, None, len(items), function=fn.name)


    # -- row-changing statements -----------------------------------------

    def modification(self, data: dict) -> Modification:
        """An UPDATE or DELETE whose WHERE is drawn from the single-table
        filter grammar of :meth:`_simple_select` (equality, range,
        BETWEEN, IN, correlated EXISTS ...), the table standing under its
        own name since neither statement takes an alias.  Half of them
        lead with an equality or a range on an int column against a value
        the column holds in *data*, so that the index paths find targets
        and not only the scan.  SET assigns a literal, NULL, another
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
                for row in data.get(table.name, [])]
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
        if rng.random() < 0.4:
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
        sql = head + where
        return Modification(
            sql=sql, sqlite_sql=sql if sqlite_ok else None,
            table=table.name,
            count_sql=f"SELECT count(*) FROM {table.name}{where}")


# ---------------------------------------------------------------------------
# PL/pgSQL function generation
# ---------------------------------------------------------------------------


def generate_function(rng: random.Random, index: int) -> FunctionSpec:
    """A loop-bearing (or occasionally Froid-style branching) int function
    in the paper's workload family.  Loops always terminate: the counter
    increments unconditionally and bounds derive from ``arg % m + k``.
    Every arithmetic step is total over ints (constant nonzero divisors),
    so interpreter, compiled trampoline and batched execution must agree
    on values *and* errors."""
    name = f"fz{index}"
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


# ---------------------------------------------------------------------------
# Case assembly
# ---------------------------------------------------------------------------


def case_seed(run_seed: int, index: int) -> int:
    """The per-case sub-seed: a pure function of (run seed, case index),
    so any case from a run is regenerable without replaying the run."""
    return (run_seed * 1_000_003 + index) & 0xFFFF_FFFF_FFFF


def generate_case(run_seed: int, index: int,
                  queries: Optional[int] = None) -> Case:
    """Generate fuzz case *index* of the run seeded with *run_seed*."""
    seed = case_seed(run_seed, index)
    rng = random.Random(seed)
    schema = generate_schema(rng)
    data = generate_data(rng, schema)
    functions: tuple[FunctionSpec, ...] = ()
    if rng.random() < 0.55:
        functions = tuple(generate_function(rng, i)
                          for i in range(rng.randint(1, 2)))
    qgen = QueryGen(rng, schema, functions)
    count = queries if queries is not None else rng.randint(2, 5)
    drawn = tuple(qgen.generate() for _ in range(count))
    # Drawn last, so the queries of a seed are what they were before
    # cases carried modifications.
    return Case(seed=seed, schema=schema, data=data, functions=functions,
                queries=drawn,
                modifications=(qgen.modification(data),
                               qgen.modification(data)))
