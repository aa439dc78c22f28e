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
* **Interpreted-vs-compiled-vs-batched** — case functions register twice
  (PL/pgSQL interpreter and compiled trampoline); function queries run
  with both names under every configuration, so the interpreter, the
  inlined Qf and the trampoline machine (batched and per call) all face
  the same inputs.
* **Engine-vs-SQLite** — dialect-portable queries over SQLite-safe data
  also run on :mod:`sqlite3`, with a *lax* value normalization (bools are
  ints, ``5.0`` is ``5``) and a known-dialect classifier that explains
  away representation limits (int64 overflow) instead of reporting them.

A case's **modifications** (two UPDATE / DELETE statements over one table
each) join the first and the third oracle: each runs on a fresh
copy of its table under every configuration, whichever target scan that
configuration plans; the affected-row count must equal ``count(*)`` over
the same WHERE, and the table's contents afterwards must be the same bag
under all configurations and on SQLite.

Outcomes compare as row *bags* by default; a query whose ORDER BY covers
every output column compares as a list, and a partial ordering is checked
for sortedness under the engine's NULL/NaN placement rules.  Errors
compare by the taxonomy of :func:`repro.sql.errors.error_class`: two
strategies agree when both reject, but an exception from outside the
engine's deliberate error hierarchy is a **crash** and always reported.
"""

from __future__ import annotations

import math
import sqlite3
from dataclasses import dataclass
from typing import Optional

from repro.sql import Database
from repro.sql.errors import CRASH, SqlError, error_class
from repro.sql.profiler import (FUZZ_ANALYZER_CHECKS, FUZZ_CASES,
                                FUZZ_COMPARISONS, FUZZ_DIALECT_EXPLAINED,
                                FUZZ_DISCREPANCIES, FUZZ_DML_CHECKS,
                                FUZZ_EXECUTIONS, FUZZ_SQLITE_CHECKS,
                                VECTOR_FALLBACKS, VECTOR_JOIN_ROWS,
                                VECTOR_ROWS, VECTOR_TYPED_ROWS, Profiler)
from repro.sql.values import Row, row_sort_key

from .datagen import data_sqlite_safe, value_sqlite_safe
from .querygen import Case, Modification, Query
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
    if not keys:
        return True
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


def _set_sql(setting, value) -> str:
    if setting.type == "bool":
        return f"SET {setting.name} = {'on' if value else 'off'}"
    if setting.type == "enum":
        return f"SET {setting.name} = '{value}'"
    return f"SET {setting.name} = {value}"


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
            _set_sql(setting, overrides[setting.name])
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
    nocache = OracleConfig("defaults+plan_cache_size=0",
                           ("SET plan_cache_size = 0",))
    configs.append(nocache)
    return configs


# ---------------------------------------------------------------------------
# SQLite cross-check
# ---------------------------------------------------------------------------

_SQLITE_AFFINITY = {"int": "INTEGER", "float": "REAL",
                    "text": "TEXT", "bool": "INTEGER"}


def _sqlite_database(case: Case) -> sqlite3.Connection:
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
        rows = case.data.get(table.name, [])
        if rows:
            holes = ", ".join("?" * len(table.columns))
            conn.executemany(
                f"INSERT INTO {table.name} VALUES ({holes})", rows)
    conn.commit()  # a modification is checked, then rolled back to here
    return conn


def _run_sqlite(conn: sqlite3.Connection, sql: str) -> Outcome:
    try:
        rows = conn.execute(sql).fetchall()
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
        Returns ``(db, {function name: compiled name or None})``."""
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
                compile_plsql(fn.source, db).register(
                    db, name=f"{fn.name}_c")
                compiled[fn.name] = f"{fn.name}_c"
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
        db, compiled = self.build_database(case)
        configs = settings_matrix(db)

        # Concrete statements per query: (variant label, sql).
        variants_per_query: list[list[tuple[str, str]]] = []
        for query in case.queries:
            if query.function is None:
                variants_per_query.append([("plain", query.sql)])
            else:
                variants = [("interp",
                             query.sql.format(f=query.function))]
                twin = compiled.get(query.function)
                if twin:
                    variants.append(("compiled", query.sql.format(f=twin)))
                variants_per_query.append(variants)

        # Execute everything: outcomes[query index][variant][config label].
        outcomes: list[dict[str, dict[str, Outcome]]] = [
            {label: {} for label, _ in variants}
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
        db.profiler.enabled = True
        for config in configs:
            config.apply(db)
            for qi, variants in enumerate(variants_per_query):
                for label, sql in variants:
                    outcomes[qi][label][config.label] = run_statement(
                        db, sql)
                    profiler.bump(FUZZ_EXECUTIONS)
            for mi, modification in enumerate(case.modifications):
                if config is configs[0]:
                    expected_counts.append(
                        run_statement(db, modification.count_sql))
                modified[mi][config.label] = self._modify_fresh_copy(
                    db, modification.table, handles[mi], loaded)
                profiler.bump(FUZZ_EXECUTIONS)
        for counter in (VECTOR_ROWS, VECTOR_TYPED_ROWS, VECTOR_JOIN_ROWS,
                        VECTOR_FALLBACKS):
            profiler.bump(counter, db.profiler.counts[counter])

        discrepancies: list[Discrepancy] = []

        def report(kind, query, sql, config_a, config_b, a, b):
            profiler.bump(FUZZ_DISCREPANCIES)
            discrepancies.append(Discrepancy(
                kind=kind, case=case, query=query, sql=sql,
                config_a=config_a, config_b=config_b,
                outcome_a=a, outcome_b=b))

        baseline_label = configs[0].label
        sqlite_conn = None

        def cross_check(statement, engine: Outcome, label: str, run_lite,
                        ordered: bool = False) -> None:
            """SQLite as oracle for a portable *statement* that succeeded
            here: ``run_lite(connection)`` must yield *engine*'s rows."""
            nonlocal sqlite_conn
            if not (self.use_sqlite and statement.sqlite_sql is not None
                    and engine.status == "ok"
                    and data_sqlite_safe(case.data)):
                return
            if sqlite_conn is None:
                sqlite_conn = _sqlite_database(case)
            profiler.bump(FUZZ_SQLITE_CHECKS)
            lite = run_lite(sqlite_conn)
            if lite.status == "ok" and rows_equal(
                    engine.rows, lite.rows, ordered=ordered, lax=True):
                return
            if _sqlite_difference_explained(engine, lite):
                profiler.bump(FUZZ_DIALECT_EXPLAINED)
            else:
                report("sqlite", statement, statement.sqlite_sql, label,
                       "sqlite3", engine, lite)

        for qi, (query, variants) in enumerate(
                zip(case.queries, variants_per_query)):
            ref_variant = variants[0][0]
            ref_sql = variants[0][1]
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
            for label, sql in variants:
                for config in configs:
                    outcome = outcomes[qi][label][config.label]
                    if label == ref_variant and \
                            config.label == baseline_label:
                        continue
                    profiler.bump(FUZZ_COMPARISONS)
                    where = f"{config.label}/{label}"
                    base = f"{baseline_label}/{ref_variant}"
                    if outcome.crashed:
                        report("crash", query, sql, base, where,
                               reference, outcome)
                        continue
                    if outcome.status != reference.status:
                        report("status", query, sql, base, where,
                               reference, outcome)
                        continue
                    if outcome.status == "error":
                        # Both reject: agreement only at the same stage
                        # of the taxonomy (an execution error in one
                        # strategy vs a plan error in another is a
                        # divergence worth seeing).
                        if outcome.error != reference.error:
                            report("status", query, sql, base, where,
                                   reference, outcome)
                        continue
                    ordered = query.order == "total"
                    if not rows_equal(reference.rows, outcome.rows,
                                      ordered=ordered):
                        report("result", query, sql, base, where,
                               reference, outcome)
                        continue
                    if query.order == "partial" and not is_sorted_by(
                            outcome.rows, query.order_keys):
                        report("order", query, sql, where, where,
                               outcome, outcome)
            cross_check(query, reference, baseline_label,
                        lambda conn: _run_sqlite(conn, query.sqlite_sql),
                        ordered=query.order == "total")
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

            if reference.status == "ok":
                cross_check(modification, Outcome("ok", rows=contents),
                            base, table_after)
        if sqlite_conn is not None:
            sqlite_conn.close()
        discrepancies.extend(self._check_analyzer_soundness(
            case, db, compiled, variants_per_query, outcomes,
            baseline_label))
        return discrepancies

    @staticmethod
    def _modify_fresh_copy(db: Database, name: str, handle,
                           loaded: dict) -> tuple[Outcome, list]:
        """Run the modification *handle* prepared (it replans whenever the
        settings in force differ from those it was last planned under),
        read what table *name* holds afterwards and, if that is not what
        it held when the case was *loaded*, put those rows back: truncate
        and reload, through the table API, so that the next configuration
        (and the queries it runs first) starts from the loaded state
        whatever this one did - transactions are not what is under test
        here."""
        table = db.catalog.tables.get(name)
        if table is None:  # the reducer dropped it
            return _outcome(handle.execute), []
        before = loaded.get(name)
        if before is None:
            before = loaded[name] = list(table.rows)
        outcome = _outcome(handle.execute)
        contents = list(table.rows)
        if contents != before:
            table.truncate()
            table.insert_many(before)
        return outcome, contents

    def _check_analyzer_soundness(self, case: Case, db: Database,
                                  compiled: dict,
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
            if query.function is None:
                continue
            for label, sql in variants:
                outcome = outcomes[qi][label].get(baseline_label)
                if outcome is None or outcome.status != "ok":
                    continue
                name = (query.function if label == "interp"
                        else compiled.get(query.function))
                if name:
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
