"""Multi-oracle differential checking.

One generated case is checked three ways:

* **Engine-vs-engine** — every query runs under a configuration matrix
  derived mechanically from the settings registry
  (:meth:`repro.sql.settings.SettingsRegistry.plan_axes`): an "everything
  off" baseline (seq scans, full sorts, nested loops, scalar UDF calls),
  each finite plan-affecting setting toggled one at a time from both the
  baseline and the defaults, the defaults themselves, and the defaults
  with the plan cache disabled.  A planner flag added to the registry
  joins this matrix automatically.
* **Interpreted-vs-compiled** — case functions register twice (PL/pgSQL
  interpreter and compiled trampoline); function queries run with both
  names under every configuration, so the interpreter, the inlined Qf and
  the trampoline machine (its call memo included) all face the same
  inputs.  A query whose outcome may rightly depend on the plan
  (``Query.per_config``) compares the two names within each
  configuration, both run from one RNG state.
* **Cached-vs-fresh** — each query's and each modification's *literal
  twin* (:mod:`repro.fuzz.twin`: every literal its cached record's guard
  does not hold re-drawn) runs under the defaults on the plan the
  original's text left in the text cache, and again with the cache off:
  a plan of one text run for another with other values must answer as
  that text's own plan.
* **Engine-vs-SQLite** — dialect-portable queries over SQLite-safe data
  also run on :mod:`sqlite3`, with a *lax* value normalization (bools are
  ints, ``5.0`` is ``5``) and a known-dialect classifier that explains
  away representation limits (int64 overflow) instead of reporting them.
  So does the SQLite-dialect Qf of every generated non-volatile function
  (``compiled.sql("sqlite")``), called with a fixed set of argument
  tuples and compared with the interpreter's answer: a check of the
  paper's interpreter = compiled claim by an executor that shares no
  code with this engine.

A case's **modifications** (two UPDATE / DELETE statements over one table
each) join the first, the third and the last oracle: each runs on a fresh
copy of its table under every configuration, whichever target scan that
configuration plans; the affected-row count must equal ``count(*)`` over
the same WHERE, and the table's contents afterwards must be the same bag
under all configurations and on SQLite.  Its literal twin must affect
as many rows, fail with the same error class and leave the same bag on
the cached plan as on a fresh one.

Outcomes compare as row *bags* by default; a query whose ORDER BY covers
every output column compares as a list, and a partial ordering is checked
for sortedness under the engine's NULL/NaN placement rules.  Errors
compare by the taxonomy of :func:`repro.sql.errors.error_class`: two
strategies agree when both reject, but an exception from outside the
engine's deliberate error hierarchy is a **crash** and always reported.
"""

from __future__ import annotations

import math
import random
import sqlite3
from dataclasses import dataclass
from typing import Optional

from repro.sql import Database
from repro.sql.errors import CRASH, SqlError, error_class
from repro.sql.profiler import (BATCHED_UDF_DISTINCT, BATCHED_UDF_ROWS,
                                FUZZ_ANALYZER_CHECKS, FUZZ_CASES,
                                FUZZ_COMPARISONS, FUZZ_DIALECT_EXPLAINED,
                                FUZZ_DISCREPANCIES, FUZZ_DML_CHECKS,
                                FUZZ_DML_TWIN_CHECKS, FUZZ_EXECUTIONS,
                                FUZZ_FUNCTIONS,
                                FUZZ_SQLITE_CHECKS, FUZZ_SQLITE_FUNCTIONS,
                                FUZZ_TWIN_CHECKS, MEMO_CARRIED_HITS,
                                MEMO_HITS, MEMO_MISSES, RANGE_SCANS_GIVEN_UP,
                                VECTOR_FALLBACKS, VECTOR_FUSED_ROWS, VECTOR_JOIN_ROWS,
                                VECTOR_ROWS, VECTOR_TYPED_ROWS, Profiler)
from repro.sql.values import Row, row_sort_key

from .datagen import data_sqlite_safe, value_sqlite_safe
from .querygen import Case, Modification, Query
from .twin import literal_twin
from .txngen import CONFLICT, OK, TxnCase

# ---------------------------------------------------------------------------
# Row normalization and comparison (the shared helper)
# ---------------------------------------------------------------------------


def normalize_value(value, lax: bool = False):
    """A hashable, deterministically-orderable normal form of one value.

    Values normalize to ``(tag, payload)`` tuples whose tags keep SQL's
    comparability classes apart.  Numbers canonicalize **by value**, not
    by Python type: SQL's value-merging operators (DISTINCT, UNION,
    GROUP BY keys, min/max) keep whichever of several equal
    representatives arrives first, so ``0`` from one access path and
    ``0.0`` from another are the same legal answer (fuzz seed 31000799).
    Integral values render exactly (Python bigints — the engine's exact
    arithmetic must survive normalization); non-integral floats
    canonicalize to 12 significant digits, enough to absorb
    accumulation-order differences between access paths while far tighter
    than any real engine bug.  NaNs are one class, as is ``-0.0 = 0.0``.
    With *lax* (the SQLite oracle), booleans additionally become ints,
    mirroring SQLite's storage model.
    """
    if value is None:
        return ("null",)
    if isinstance(value, bool):
        return ("num", repr(int(value))) if lax else ("bool", value)
    if isinstance(value, float):
        if value != value:
            return ("num", "nan")
        if value in (math.inf, -math.inf):
            return ("num", repr(value))
        if value == int(value):
            return ("num", repr(int(value)))
        return ("num", f"{value:.12g}")
    if isinstance(value, int):
        return ("num", repr(value))
    if isinstance(value, Row):
        return ("row",) + tuple(normalize_value(v, lax) for v in value)
    if isinstance(value, list):
        return ("arr",) + tuple(normalize_value(v, lax) for v in value)
    return ("text", value) if isinstance(value, str) else ("obj", repr(value))


def normalize_row(row, lax: bool = False) -> tuple:
    return tuple(normalize_value(v, lax) for v in row)


def rows_equal(expected, actual, *, ordered: bool = False,
               lax: bool = False) -> bool:
    """True when two result sets agree under SQL semantics.

    *ordered* compares row lists positionally (use when the ordering is
    fully determined); otherwise rows compare as multisets.  Numbers
    compare by SQL value (``0 = 0.0 = -0.0``; exact for integral values,
    12 significant digits otherwise), NaNs form one equality class, and
    *lax* additionally merges SQLite's bool representation
    (``True`` = ``1``).  This is the one comparison routine shared by the
    fuzzer's oracles and the hand-written differential tests.
    """
    a = [normalize_row(r, lax) for r in expected]
    b = [normalize_row(r, lax) for r in actual]
    if not ordered:
        a.sort()
        b.sort()
    return a == b


def is_sorted_by(rows, keys) -> bool:
    """Whether *rows* respects ``keys`` — ((position, descending), ...) —
    under the engine's ordering (ASC = NULLS LAST, DESC = NULLS FIRST,
    NaN above every number).  The oracle applies this to each outcome of a
    partially-ordered query, where bag comparison alone would let a broken
    ordering slip through."""
    descending = [desc for _, desc in keys]
    previous = None
    for row in rows:
        key = row_sort_key([row[pos] for pos, _ in keys], descending)
        if previous is not None and key < previous:
            return False
        previous = key
    return True


# ---------------------------------------------------------------------------
# Outcomes
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    """What one statement did under one configuration."""

    status: str                      # 'ok' | 'error'
    rows: Optional[list] = None
    error: Optional[str] = None      # taxonomy label when status == 'error'
    message: str = ""

    @property
    def crashed(self) -> bool:
        return self.status == "error" and self.error == CRASH

    def describe(self) -> str:
        if self.status == "ok":
            sample = ", ".join(repr(r) for r in (self.rows or [])[:4])
            more = "" if len(self.rows or []) <= 4 else ", ..."
            return f"ok: {len(self.rows or [])} rows [{sample}{more}]"
        return f"{self.error}: {self.message}"


def run_statement(db: Database, sql: str, params=(),
                  script: bool = False) -> Outcome:
    """Execute one statement (or, with *script*, a ``;``-separated script,
    keeping the last statement's rows), folding the result or failure into
    an :class:`Outcome` with the engine's error taxonomy applied."""
    return _outcome(lambda: db.execute_script(sql)[-1] if script
                    else db.execute(sql, list(params)))


def _difference(a: Outcome, b: Outcome, ordered: bool) -> Optional[str]:
    """The kind of discrepancy between two outcomes of one statement
    ('crash', 'status', 'result'), or None when they agree."""
    if a.crashed or b.crashed:
        return "crash"
    if (a.status, a.error) != (b.status, b.error):
        return "status"
    if a.status == "ok" and not rows_equal(a.rows, b.rows, ordered=ordered):
        return "result"
    return None


def _outcome(run) -> Outcome:
    try:
        result = run()
    except Exception as error:  # noqa: BLE001 — taxonomy decides severity
        return Outcome("error", error=error_class(error),
                       message=f"{type(error).__name__}: {error}")
    return Outcome("ok", rows=list(result.rows))


@dataclass
class Discrepancy:
    """One disagreement between two oracles on one statement."""

    kind: str            # 'result' | 'status' | 'order' | 'crash' |
    #                      'sqlite' | 'analyzer-unsound' | 'analyzer-crash' |
    #                      'count' (a modification's affected rows)
    case: Case
    query: Query | Modification
    sql: str
    config_a: str
    config_b: str
    outcome_a: Outcome
    outcome_b: Outcome

    def describe(self) -> str:
        return (f"[{self.kind}] case seed {self.case.seed}\n"
                f"  sql: {self.sql}\n"
                f"  {self.config_a}: {self.outcome_a.describe()}\n"
                f"  {self.config_b}: {self.outcome_b.describe()}")


# ---------------------------------------------------------------------------
# The settings matrix
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OracleConfig:
    """A named engine configuration: SET statements applied after RESET."""

    label: str
    set_statements: tuple[str, ...]

    def apply(self, db: Database) -> None:
        db.execute("RESET ALL")
        for statement in self.set_statements:
            db.execute(statement)


#: The label of the defaults without the text cache.
NOCACHE = "defaults+plan_cache_size=0"


def settings_matrix(db: Database) -> list[OracleConfig]:
    """The oracle configuration matrix, derived from the registry.

    Mechanical construction: a baseline with every finite plan-affecting
    setting at its first domain value (all booleans off — seq scan, full
    sort, nested loop, scalar UDF calls), each setting toggled through its
    other values on top of *both* the baseline and the defaults (so a
    feature is seen both alone - the trampoline machine over an otherwise
    all-off planner - and beside every other default), the plain defaults,
    and the defaults without the statement plan cache.
    """
    axes = db.settings.plan_axes()
    baseline = {s.name: values[0] for s, values in axes}
    defaults = {s.name: s.default for s, _ in axes}

    def config(label: str, overrides: dict) -> OracleConfig:
        statements = tuple(
            f"SET {setting.name} = {setting.format(overrides[setting.name])}"
            for setting, _ in axes if setting.name in overrides)
        return OracleConfig(label, statements)

    configs = [config("baseline", baseline)]
    seen = {tuple(sorted(baseline.items()))}

    def add(label: str, overrides: dict) -> None:
        key = tuple(sorted(overrides.items()))
        if key not in seen:
            seen.add(key)
            configs.append(config(label, overrides))

    for setting, values in axes:
        for value in values:
            if value != baseline[setting.name]:
                add(f"baseline+{setting.name}={setting.format(value)}",
                    {**baseline, setting.name: value})
    add("defaults", defaults)
    for setting, values in axes:
        for value in values:
            if value != defaults[setting.name]:
                add(f"defaults+{setting.name}={setting.format(value)}",
                    {**defaults, setting.name: value})
    nocache = OracleConfig(NOCACHE, ("SET plan_cache_size = 0",))
    configs.append(nocache)
    return configs


# ---------------------------------------------------------------------------
# SQLite cross-check
# ---------------------------------------------------------------------------

_SQLITE_AFFINITY = {"int": "INTEGER", "float": "REAL",
                    "text": "TEXT", "bool": "INTEGER"}


def _sqlite_database(case: Case) -> sqlite3.Connection:
    """The case's schema on sqlite3, and its rows where SQLite-safe."""
    loaded = data_sqlite_safe(case.data)
    conn = sqlite3.connect(":memory:")
    for table in case.schema.tables:
        columns = ", ".join(
            f"{c.name} {_SQLITE_AFFINITY[c.dtype]}" for c in table.columns)
        conn.execute(f"CREATE TABLE {table.name}({columns})")
        for index in table.indexes:
            cols = ", ".join(f"{n} DESC" if d else n
                             for n, d in index.columns)
            conn.execute(
                f"CREATE INDEX {index.name} ON {index.table}({cols})")
        rows = case.data.get(table.name, []) if loaded else []
        if rows:
            holes = ", ".join("?" * len(table.columns))
            conn.executemany(
                f"INSERT INTO {table.name} VALUES ({holes})", rows)
    conn.commit()  # a modification is checked, then rolled back to here
    return conn


def _run_sqlite(conn: sqlite3.Connection, sql: str, params=()) -> Outcome:
    try:
        rows = conn.execute(sql, params).fetchall()
    except sqlite3.Error as error:
        return Outcome("error", error=f"sqlite-{type(error).__name__}",
                       message=str(error))
    return Outcome("ok", rows=rows)


def _sqlite_difference_explained(engine: Outcome, lite: Outcome) -> bool:
    """Known dialect gaps that are not engine bugs: SQLite cannot
    represent ints outside signed 64-bit (its arithmetic raises where this
    engine's Python ints keep going), and NaN/Inf results degrade to NULL
    on its side."""
    if lite.status == "error" and "overflow" in lite.message.lower():
        return True
    for row in engine.rows or []:
        for value in row:
            if isinstance(value, bool):
                continue
            if not value_sqlite_safe(value):
                return True
    return False


#: The argument tuples each generated function is called with, by arity:
#: twenty or twenty-one, NULL, zero and a half-way float (cast to the int
#: parameter, rounding away from zero) among them.
_CALL_ARGUMENTS = {
    1: [(None,)] + [(v,) for v in range(-6, 11)] + [(2.5,), (-2.5,)],
    2: [(a, b) for a in (None, -5, 0, 2, 7, 11, -2.5) for b in (-2, 0, 3)],
}

# ---------------------------------------------------------------------------
# The checker
# ---------------------------------------------------------------------------


class DifferentialChecker:
    """Runs a case's queries across all oracles and reports disagreements.

    ``profiler`` (a :class:`repro.sql.profiler.Profiler`) aggregates the
    fuzz counters across cases; the per-case scratch databases are loaded
    unprofiled for speed and count only while the checked statements run,
    to say how much of the vectorized core the row = vector oracle met.
    """

    def __init__(self, use_sqlite: bool = True,
                 profiler: Optional[Profiler] = None):
        self.use_sqlite = use_sqlite
        self.profiler = profiler if profiler is not None else Profiler()

    # -- case setup -----------------------------------------------------

    def build_database(self, case: Case) -> tuple[Database, dict]:
        """A fresh engine loaded with the case's schema, data, and both
        the interpreted and (where compilable) compiled function twins.
        Returns ``(db, {function name: its CompiledFunction, registered
        as <name>_c, or None})``."""
        db = Database(seed=0, profile=False)
        for statement in case.setup_statements():
            db.execute(statement)
        for table in case.schema.tables:
            rows = case.data.get(table.name, [])
            if rows:
                holes = ", ".join(f"${i + 1}"
                                  for i in range(len(table.columns)))
                insert = f"INSERT INTO {table.name} VALUES ({holes})"
                for row in rows:
                    db.execute(insert, row)
        compiled = {}
        for fn in case.functions:
            db.execute(fn.source)
            try:
                from repro.compiler import compile_plsql
                twin = compile_plsql(fn.source, db)
                twin.register(db, name=f"{fn.name}_c")
                compiled[fn.name] = twin
            except SqlError:
                # A deliberate CompileError (unsupported shape) leaves an
                # interpreter-only twin; anything else is a compiler
                # crash and must propagate to the harness's reporting.
                compiled[fn.name] = None
        return db, compiled

    # -- checking -------------------------------------------------------

    def check_case(self, case: Case) -> list[Discrepancy]:
        profiler = self.profiler
        profiler.bump(FUZZ_CASES)
        profiler.bump(FUZZ_FUNCTIONS, len(case.functions))
        db, compiled = self.build_database(case)
        configs = settings_matrix(db)

        variants_per_query = [query.variants(compiled)
                              for query in case.queries]

        # Execute everything: outcomes[query index][variant][config label].
        outcomes: list[dict[str, dict[str, Outcome]]] = [
            {label: {} for label, _, _ in variants}
            for variants in variants_per_query]
        # Per modification: what count(*) over its WHERE says (baseline),
        # then per config label the statement's outcome and the table's
        # contents after it.
        expected_counts: list[Outcome] = []
        modified: list[dict[str, tuple[Outcome, list]]] = [
            {} for _ in case.modifications]
        loaded: dict[str, list] = {}    # table -> its rows before any ran
        handles = [db.session.prepare(modification.sql)
                   for modification in case.modifications]
        # Each compiled variant once more under every config that runs the
        # trampoline machine (the baseline inlines Qf), in the same
        # database: what the machine's memos carried from the first
        # execution must answer as the first execution did.
        repeats: list[tuple[int, str, str, Outcome]] = []
        db.profiler.enabled = True
        for config in configs:
            config.apply(db)
            for query, variants, by_variant in zip(
                    case.queries, variants_per_query, outcomes):
                for label, _, sql in variants:
                    if query.per_config:
                        db.reseed(0)
                    by_variant[label][config.label] = run_statement(db, sql)
                    profiler.bump(FUZZ_EXECUTIONS)
            if db.settings.get("batch_compiled"):
                for qi, (query, variants) in enumerate(
                        zip(case.queries, variants_per_query)):
                    for label, _, sql in variants:
                        if label != "compiled":
                            continue
                        if query.per_config:
                            db.reseed(0)
                        repeats.append((qi, sql, config.label,
                                        run_statement(db, sql)))
                        profiler.bump(FUZZ_EXECUTIONS)
            for mi, modification in enumerate(case.modifications):
                if config is configs[0]:
                    expected_counts.append(
                        run_statement(db, modification.count_sql))
                modified[mi][config.label] = self._modify_fresh_copy(
                    db, modification.table, handles[mi].execute, loaded)
                profiler.bump(FUZZ_EXECUTIONS)
        twins = self._run_twins(case, db, configs, variants_per_query,
                                loaded)
        for counter in (VECTOR_ROWS, VECTOR_TYPED_ROWS, VECTOR_FUSED_ROWS,
                        VECTOR_JOIN_ROWS, VECTOR_FALLBACKS, MEMO_HITS,
                        MEMO_MISSES, MEMO_CARRIED_HITS, BATCHED_UDF_ROWS,
                        BATCHED_UDF_DISTINCT, RANGE_SCANS_GIVEN_UP):
            profiler.bump(counter, db.profiler.counts[counter])

        discrepancies: list[Discrepancy] = []

        def report(kind, query, sql, config_a, config_b, a, b):
            profiler.bump(FUZZ_DISCREPANCIES)
            discrepancies.append(Discrepancy(
                kind=kind, case=case, query=query, sql=sql,
                config_a=config_a, config_b=config_b,
                outcome_a=a, outcome_b=b))

        baseline_label = configs[0].label
        portable = self.use_sqlite and data_sqlite_safe(case.data)
        sqlite_conn = None

        def cross_check(statement, engine: Outcome, label: str, run_lite,
                        ordered: bool = False) -> bool:
            """SQLite as oracle for *statement*, where it succeeded here:
            ``run_lite(connection)`` must yield *engine*'s rows.  Whether
            a comparison was made."""
            nonlocal sqlite_conn
            if engine.status != "ok":
                return False
            if sqlite_conn is None:
                sqlite_conn = _sqlite_database(case)
            profiler.bump(FUZZ_SQLITE_CHECKS)
            answer = run_lite(sqlite_conn)
            if answer.status == "ok" and rows_equal(
                    engine.rows, answer.rows, ordered=ordered, lax=True):
                return True
            if _sqlite_difference_explained(engine, answer):
                profiler.bump(FUZZ_DIALECT_EXPLAINED)
            else:
                report("sqlite", statement, statement.sqlite_sql, label,
                       "sqlite3", engine, answer)
            return True

        for qi, (query, variants) in enumerate(
                zip(case.queries, variants_per_query)):
            ref_variant, _, ref_sql = variants[0]
            reference = outcomes[qi][ref_variant][baseline_label]
            if reference.crashed:
                report("crash", query, ref_sql, baseline_label,
                       baseline_label, reference, reference)
                continue
            if (reference.status == "ok" and query.order != "none"
                    and not is_sorted_by(reference.rows,
                                         query.order_keys)):
                # Absolute check: every other config is compared against
                # the baseline, so a mis-sort all strategies share would
                # otherwise be invisible.
                report("order", query, ref_sql, baseline_label,
                       baseline_label, reference, reference)
                continue
            for label, _, sql in variants:
                for config in configs:
                    outcome = outcomes[qi][label][config.label]
                    if query.per_config:
                        against = outcomes[qi][ref_variant][config.label]
                        base = f"{config.label}/{ref_variant}"
                    else:
                        against = reference
                        base = f"{baseline_label}/{ref_variant}"
                    if outcome is against:
                        continue
                    profiler.bump(FUZZ_COMPARISONS)
                    where = f"{config.label}/{label}"
                    if outcome.crashed:
                        report("crash", query, sql, base, where,
                               against, outcome)
                        continue
                    if outcome.status != against.status:
                        report("status", query, sql, base, where,
                               against, outcome)
                        continue
                    if outcome.status == "error":
                        # Both reject: agreement only at the same stage
                        # of the taxonomy (an execution error in one
                        # strategy vs a plan error in another is a
                        # divergence worth seeing).
                        if outcome.error != against.error:
                            report("status", query, sql, base, where,
                                   against, outcome)
                        continue
                    ordered = query.order == "total"
                    if not rows_equal(against.rows, outcome.rows,
                                      ordered=ordered):
                        report("result", query, sql, base, where,
                               against, outcome)
                        continue
                    if query.order == "partial" and not is_sorted_by(
                            outcome.rows, query.order_keys):
                        report("order", query, sql, where, where,
                               outcome, outcome)
            if portable and query.sqlite_sql is not None:
                cross_check(query, reference, baseline_label,
                            lambda conn: _run_sqlite(conn, query.sqlite_sql),
                            ordered=query.order == "total")
        for qi, sql, label, again in repeats:
            query = case.queries[qi]
            first = outcomes[qi]["compiled"][label]
            where = f"{label}/compiled"
            profiler.bump(FUZZ_COMPARISONS)
            if again.crashed:
                report("crash", query, sql, where, f"{where} again", first,
                       again)
            elif (again.status, again.error) != (first.status, first.error):
                report("status", query, sql, where, f"{where} again", first,
                       again)
            elif first.status == "ok" and not rows_equal(
                    first.rows, again.rows, ordered=query.order == "total"):
                report("result", query, sql, where, f"{where} again", first,
                       again)
        for query, twin, cached, fresh in twins:
            profiler.bump(FUZZ_TWIN_CHECKS)
            profiler.bump(FUZZ_COMPARISONS)
            if isinstance(query, Modification):
                profiler.bump(FUZZ_DML_TWIN_CHECKS)
                (cached, cached_after), (fresh, fresh_after) = cached, fresh
                kind = _difference(fresh, cached, ordered=True)
                if kind == "result":
                    kind = "count"
                elif kind is None and not rows_equal(fresh_after,
                                                     cached_after):
                    kind = "result"
                    cached = Outcome("ok", rows=cached_after)
                    fresh = Outcome("ok", rows=fresh_after)
            else:
                kind = _difference(fresh, cached,
                                   ordered=query.order == "total")
            if kind is not None:
                report(kind, query, twin, f"{NOCACHE}/twin",
                       "defaults/twin (the original's cached shape)", fresh,
                       cached)
        for modification, expected, by_config in zip(
                case.modifications, expected_counts, modified):
            profiler.bump(FUZZ_DML_CHECKS)
            reference, contents = by_config[baseline_label]
            base = f"{baseline_label}/table"
            if reference.crashed:
                report("crash", modification, modification.sql,
                       baseline_label, baseline_label, reference, reference)
                continue
            if reference.status == "ok" and reference.rows != expected.rows:
                report("count", modification, modification.sql,
                       baseline_label, f"{baseline_label}/count(*)",
                       reference, expected)
            for config in configs[1:]:
                outcome, after = by_config[config.label]
                profiler.bump(FUZZ_COMPARISONS)
                if outcome.crashed:
                    report("crash", modification, modification.sql,
                           baseline_label, config.label, reference, outcome)
                elif (outcome.status, outcome.error) != (
                        reference.status, reference.error):
                    report("status", modification, modification.sql,
                           baseline_label, config.label, reference, outcome)
                elif outcome.rows != reference.rows:
                    report("count", modification, modification.sql,
                           baseline_label, config.label, reference, outcome)
                elif after != contents and not rows_equal(contents, after):
                    report("result", modification, modification.sql, base,
                           f"{config.label}/table",
                           Outcome("ok", rows=contents),
                           Outcome("ok", rows=after))

            def table_after(conn: sqlite3.Connection) -> Outcome:
                lite = _run_sqlite(conn, modification.sqlite_sql)
                if lite.status == "ok":
                    lite = _run_sqlite(
                        conn, f"SELECT * FROM {modification.table}")
                conn.rollback()
                return lite

            if (portable and modification.sqlite_sql is not None
                    and reference.status == "ok"):
                cross_check(modification, Outcome("ok", rows=contents),
                            base, table_after)
        if self.use_sqlite:
            self._check_functions_on_sqlite(case, db, compiled, cross_check)
        if sqlite_conn is not None:
            sqlite_conn.close()
        discrepancies.extend(self._check_analyzer_soundness(
            case, db, variants_per_query, outcomes, baseline_label))
        return discrepancies

    def _run_twins(self, case: Case, db: Database, configs,
                   variants_per_query, loaded: dict) -> list[tuple]:
        """``(query, twin, cached, fresh)`` for each query variant and each
        modification whose shape the text cache admits: under the
        defaults, the original runs twice (the second time it is kept),
        and its twin - every literal its record's guard does not hold
        re-drawn - runs on that record; then the twin runs again under
        ``plan_cache_size = 0``.  A query's *cached* and *fresh* are
        outcomes; a modification's are ``(outcome, table contents)``,
        every run of it on a fresh copy of its table."""
        by_label = {config.label: config for config in configs}
        if "defaults" not in by_label or NOCACHE not in by_label:
            return []
        rng = random.Random(f"twin:{case.seed}")

        def run(query: Query, sql: str) -> Outcome:
            if query.per_config:
                db.reseed(0)
            self.profiler.bump(FUZZ_EXECUTIONS)
            return run_statement(db, sql)

        def modify(modification: Modification, sql: str) -> tuple:
            self.profiler.bump(FUZZ_EXECUTIONS)
            return self._modify_fresh_copy(
                db, modification.table, lambda: db.execute(sql), loaded)

        def twin_of(sql: str) -> Optional[str]:
            record = db._plan_cache.peek(sql, db.settings.active)
            return None if record is None else literal_twin(
                sql, rng, frozenset(record.literals.guards))

        by_label["defaults"].apply(db)
        twins = []
        for query, variants in zip(case.queries, variants_per_query):
            for _, _, sql in variants:
                run(query, sql)
                run(query, sql)
                twin = twin_of(sql)
                if twin is not None:
                    twins.append((query, twin, run(query, twin)))
        for modification in case.modifications:
            modify(modification, modification.sql)
            modify(modification, modification.sql)
            twin = twin_of(modification.sql)
            if twin is not None:
                twins.append((modification, twin, modify(modification, twin)))
        by_label[NOCACHE].apply(db)
        return [(query, twin, cached,
                 modify(query, twin) if isinstance(query, Modification)
                 else run(query, twin))
                for query, twin, cached in twins]

    def _check_functions_on_sqlite(self, case: Case, db: Database,
                                   compiled: dict, cross_check) -> None:
        """Each generated function that compiled and calls nothing
        volatile (the split rewrite refuses those) runs as its
        SQLite-dialect Qf on sqlite3 with every argument tuple of its
        arity, through *cross_check*: wherever the interpreter answers -
        SQLite answers NULL where this engine raises division by zero -
        the two must agree.  No generated function reads a table; one
        that does must be checked only where the case's rows are
        SQLite-safe, since only then does SQLite hold them."""
        from repro.compiler.template import udf_contains_volatile
        for fn in case.functions:
            twin = compiled.get(fn.name)
            if twin is None or udf_contains_volatile(twin.udf, twin.catalog):
                continue
            qf = twin.sql("sqlite")
            compared = False
            for args in _CALL_ARGUMENTS[fn.arity]:
                call = "SELECT {}({})".format(fn.name, ", ".join(
                    "NULL" if arg is None else str(arg) for arg in args))
                compared = cross_check(
                    Query(sql=call, sqlite_sql=qf, function=fn.name),
                    run_statement(db, call), call,
                    lambda conn: _run_sqlite(conn, qf, args)
                ) or compared
            if compared:
                self.profiler.bump(FUZZ_SQLITE_FUNCTIONS)

    @staticmethod
    def _modify_fresh_copy(db: Database, name: str, execute,
                           loaded: dict) -> tuple[Outcome, list]:
        """Run a modification - *execute* runs it, through a prepared
        handle (which replans whenever the settings in force differ from
        those it was last planned under) or the text door -, read what
        table *name* holds afterwards and, if that is not what
        it held when the case was *loaded*, put those rows back: truncate
        and reload, through the table API, so that the next configuration
        (and the queries it runs first) starts from the loaded state
        whatever this one did - transactions are not what is under test
        here."""
        table = db.catalog.tables.get(name)
        if table is None:  # the reducer dropped it
            return _outcome(execute), []
        before = loaded.get(name)
        if before is None:
            before = loaded[name] = list(table.rows)
        outcome = _outcome(execute)
        contents = list(table.rows)
        if contents != before:
            table.truncate()
            table.insert_many(before)
        return outcome, contents

    def _check_analyzer_soundness(self, case: Case, db: Database,
                                  variants_per_query, outcomes,
                                  baseline_label: str) -> list[Discrepancy]:
        """The static analyzer's soundness oracle: a function that just
        executed cleanly can never deserve an error-severity diagnostic
        (errors are reserved for defects that fire on *every* terminating
        call — see repro.analysis).  Any violation is a fuzz discrepancy
        like a result mismatch would be."""
        from repro.analysis import analyze_function

        clean: dict[str, tuple] = {}  # fn name -> (query, sql, outcome)
        for qi, (query, variants) in enumerate(
                zip(case.queries, variants_per_query)):
            for label, name, sql in variants:
                outcome = outcomes[qi][label].get(baseline_label)
                if name and outcome is not None and outcome.status == "ok":
                    clean.setdefault(name.lower(), (query, sql, outcome))

        out: list[Discrepancy] = []
        for name, (query, sql, outcome) in sorted(clean.items()):
            fdef = db.catalog.get_function(name)
            if fdef is None:
                continue
            self.profiler.bump(FUZZ_ANALYZER_CHECKS)
            try:
                diagnostics = analyze_function(db, fdef)
            except Exception as error:  # noqa: BLE001 — crash = finding
                self.profiler.bump(FUZZ_DISCREPANCIES)
                out.append(Discrepancy(
                    kind="analyzer-crash", case=case, query=query, sql=sql,
                    config_a=baseline_label, config_b="analyzer",
                    outcome_a=outcome,
                    outcome_b=Outcome("error", error="crash",
                                      message=f"{type(error).__name__}: "
                                              f"{error}")))
                continue
            errors = [d for d in diagnostics if d.severity == "error"]
            if errors:
                self.profiler.bump(FUZZ_DISCREPANCIES)
                detail = "; ".join(f"{d.code}: {d.message}" for d in errors)
                out.append(Discrepancy(
                    kind="analyzer-unsound", case=case, query=query,
                    sql=sql, config_a=baseline_label, config_b="analyzer",
                    outcome_a=outcome,
                    outcome_b=Outcome("error", error="analyzer",
                                      message=f"{name} executed cleanly "
                                              f"but was flagged: {detail}")))
        return out


# ---------------------------------------------------------------------------
# The committed-state oracle (multi-session transaction cases)
# ---------------------------------------------------------------------------


@dataclass
class TxnDiscrepancy:
    """One failure of a transaction case against its oracle."""

    kind: str        # 'expect' | 'state' | 'sqlite' | 'crash'
    case: TxnCase
    detail: str

    def describe(self) -> str:
        return (f"[txn/{self.kind}] case seed {self.case.seed}\n"
                f"  {self.detail}")


def _table_rows(db: Database, table: str) -> list:
    return list(db.execute(f"SELECT k, v FROM {table}").rows)


def check_txn_case(case: TxnCase, *, use_sqlite: bool = True,
                   profiler: Optional[Profiler] = None
                   ) -> list[TxnDiscrepancy]:
    """Run one interleaved multi-session script and check it three ways.

    * **Expectations** — every step must do what the generator promised:
      plain steps succeed, conflict probes raise ``SerializationError``
      (first-writer-wins must never let the probe through, and must not
      fail with anything else).
    * **Committed-state equality** — the final contents of every table
      must equal a *serial* forced-autocommit replay of exactly the
      statements that committed (per-session buffering: a transaction's
      statements enter the replay log at its COMMIT, in commit order;
      rolled-back blocks, savepoint-undone spans, and failed statements
      contribute nothing).  Per table there is a single writer session
      by construction, so the serial replay is a true linearization.
    * **SQLite cross-check** — the same replay log runs on sqlite3
      (every statement is literal integer DML, so it is dialect-safe)
      and must land in the same committed state.
    """
    from repro.sql.errors import SerializationError
    profiler = profiler if profiler is not None else Profiler()
    profiler.bump(FUZZ_CASES)
    discrepancies: list[TxnDiscrepancy] = []

    def report(kind: str, detail: str) -> None:
        profiler.bump(FUZZ_DISCREPANCIES)
        discrepancies.append(TxnDiscrepancy(kind, case, detail))

    db = Database(seed=0, profile=False)
    for sql in case.setup:
        db.execute(sql)
    conns = [db.connect() for _ in range(case.sessions)]

    committed: list[str] = []                 # the serial replay log
    pending: list[list[str]] = [[] for _ in conns]
    # Per-session savepoint stacks: (name, pending length at creation).
    savepoints: list[list[tuple[str, int]]] = [[] for _ in conns]
    in_txn = [False] * case.sessions

    for step in case.steps:
        profiler.bump(FUZZ_EXECUTIONS)
        try:
            conns[step.session].execute(step.sql)
            outcome = OK
        except SerializationError:
            outcome = CONFLICT
        except SqlError as error:
            outcome = f"error:{error_class(error)}"
        except Exception as error:  # noqa: BLE001 — crash class
            report("crash", f"s{step.session}: {step.sql}\n"
                            f"  {type(error).__name__}: {error}")
            continue
        if outcome != step.expect:
            report("expect",
                   f"s{step.session}: {step.sql}\n"
                   f"  expected {step.expect}, got {outcome}")
            continue
        if outcome != OK:
            continue  # the conflict probe failed as promised: no effect
        # Mirror the transaction state machine for the replay log.
        i = step.session
        sql = step.sql
        first = sql.split(None, 1)[0].upper()
        if first == "BEGIN":
            in_txn[i] = True
            pending[i] = []
            savepoints[i] = []
        elif first == "COMMIT":
            committed.extend(pending[i])
            in_txn[i] = False
            pending[i] = []
        elif first == "SAVEPOINT":
            savepoints[i].append((sql.split()[1].lower(), len(pending[i])))
        elif first == "RELEASE":
            name = sql.split()[-1].lower()
            for j in range(len(savepoints[i]) - 1, -1, -1):
                if savepoints[i][j][0] == name:
                    del savepoints[i][j:]
                    break
        elif first == "ROLLBACK":
            if sql.upper().startswith("ROLLBACK TO"):
                name = sql.split()[-1].lower()
                for j in range(len(savepoints[i]) - 1, -1, -1):
                    if savepoints[i][j][0] == name:
                        del pending[i][savepoints[i][j][1]:]
                        del savepoints[i][j + 1:]
                        break
            else:
                in_txn[i] = False
                pending[i] = []
        elif in_txn[i]:
            pending[i].append(sql)
        else:
            committed.append(sql)

    # Forced-autocommit serial replay of the committed statements.
    replay = Database(seed=0, profile=False)
    for sql in case.setup:
        replay.execute(sql)
    for sql in committed:
        try:
            replay.execute(sql)
        except Exception as error:  # noqa: BLE001
            report("crash", f"replay: {sql}\n"
                            f"  {type(error).__name__}: {error}")
    for table in case.all_tables():
        profiler.bump(FUZZ_COMPARISONS)
        engine_rows = _table_rows(db, table)
        if not rows_equal(_table_rows(replay, table), engine_rows):
            report("state",
                   f"table {table}: engine {sorted(engine_rows)} != "
                   f"replay {sorted(_table_rows(replay, table))}")

    if use_sqlite and not discrepancies:
        conn = sqlite3.connect(":memory:")
        try:
            for sql in case.setup:
                conn.execute(_sqlite_ddl(sql))
            for sql in committed:
                conn.execute(sql)
            for table in case.all_tables():
                profiler.bump(FUZZ_SQLITE_CHECKS)
                lite = conn.execute(f"SELECT k, v FROM {table}").fetchall()
                if not rows_equal(_table_rows(db, table), lite, lax=True):
                    report("sqlite",
                           f"table {table}: engine != sqlite {sorted(lite)}")
        except sqlite3.Error as error:
            report("sqlite", f"sqlite rejected replay: {error}")
        finally:
            conn.close()
    return discrepancies


def _sqlite_ddl(sql: str) -> str:
    """The engine's ``int`` column type spelled for SQLite (identical
    here — the hook exists so future txn-case DDL stays translatable)."""
    return sql
