"""Tier-1 smoke for the differential fuzzing subsystem.

Bounded by fixed seeds: generator determinism (byte-identical cases from
one seed), a ~50-case sweep across the full oracle settings matrix that
must come back clean, the bag/list/sortedness comparison semantics of
``rows_equal`` (NULL, NaN, -0.0, bool-vs-int), the error taxonomy, the
registry-derived settings matrix, and ddmin/reducer convergence on a
deliberately planted TopN bug (a test-only monkeypatch that makes the
bounded heap drop its last row), which must shrink to a reproducer of at
most five statements.
"""

from __future__ import annotations

import math

import pytest

from repro.fuzz import (Case, DifferentialChecker, Query, Reducer, ddmin,
                        emit_pytest, generate_case, rows_equal,
                        settings_matrix)
from repro.fuzz.oracle import is_sorted_by, normalize_value, run_statement
from repro.fuzz.querygen import Modification, case_seed
from repro.fuzz.schema import ColumnSpec, SchemaSpec, TableSpec
from repro.sql import Database
from repro.sql.errors import (CRASH, CatalogError, ExecutionError,
                              ParseError, PlanError, SettingError,
                              error_class)

NAN = float("nan")


# ---------------------------------------------------------------------------
# Generator determinism
# ---------------------------------------------------------------------------


class TestGeneratorDeterminism:
    @pytest.mark.parametrize("seed,index", [(0, 0), (0, 7), (5, 3),
                                            (123, 41)])
    def test_same_seed_same_bytes(self, seed, index):
        first = generate_case(seed, index)
        second = generate_case(seed, index)
        assert first.script() == second.script()
        assert first == second

    def test_distinct_indices_distinct_cases(self):
        scripts = {generate_case(9, i).script() for i in range(10)}
        assert len(scripts) == 10

    def test_case_seed_is_pure(self):
        assert case_seed(3, 14) == case_seed(3, 14)
        assert case_seed(3, 14) != case_seed(3, 15)
        assert case_seed(3, 14) != case_seed(4, 14)

    def test_total_orderings_cover_every_output_position(self):
        for index in range(20):
            for query in generate_case(2, index).queries:
                positions = [p for p, _ in query.order_keys]
                assert len(positions) == len(set(positions)), query.sql
                if query.order == "total" and query.function is None:
                    n_outputs = max(positions) + 1
                    assert sorted(positions) == list(range(n_outputs)), \
                        query.sql


# ---------------------------------------------------------------------------
# The ~50-case settings-matrix sweep (the actual smoke)
# ---------------------------------------------------------------------------


class TestSmokeSweep:
    def test_fifty_cases_clean_across_matrix(self):
        from repro.fuzz.__main__ import run_fuzz
        failures = run_fuzz(seed=0, cases=50, reduce_failures=False,
                            emit_dir=None, verbose=False)
        assert failures == 0


# ---------------------------------------------------------------------------
# rows_equal semantics
# ---------------------------------------------------------------------------


class TestRowsEqual:
    def test_bag_vs_list(self):
        a, b = [(1,), (2,)], [(2,), (1,)]
        assert rows_equal(a, b)
        assert not rows_equal(a, b, ordered=True)
        assert rows_equal(a, list(a), ordered=True)

    def test_duplicates_count_in_bags(self):
        assert not rows_equal([(1,), (1,)], [(1,)])

    def test_null_is_one_class(self):
        assert rows_equal([(None,)], [(None,)])
        assert not rows_equal([(None,)], [(0,)])
        assert not rows_equal([(None,)], [("",)])

    def test_nan_is_one_equality_class(self):
        assert rows_equal([(NAN,)], [(float("nan"),)])
        assert not rows_equal([(NAN,)], [(None,)])
        assert not rows_equal([(NAN,)], [(0.0,)])
        assert not rows_equal([(NAN,)], [(math.inf,)])

    def test_negative_zero_equals_zero(self):
        assert rows_equal([(-0.0,)], [(0.0,)])

    def test_float_tolerance_but_not_sloppiness(self):
        assert rows_equal([(0.1 + 0.2,)], [(0.3,)])
        assert not rows_equal([(0.31,)], [(0.3,)])

    def test_numbers_compare_by_sql_value_not_python_type(self):
        """DISTINCT / UNION / min-max legally return either of two equal
        representatives (0 vs 0.0), so numeric comparison is
        type-insensitive; bools merge with ints only under lax (SQLite)."""
        assert rows_equal([(5,)], [(5.0,)])
        assert rows_equal([(0,)], [(-0.0,)])
        assert not rows_equal([(True,)], [(1,)])
        assert rows_equal([(True,)], [(1,)], lax=True)

    def test_big_ints_stay_exact(self):
        assert not rows_equal([(2**63 - 1,)], [(2**63 - 2,)])
        assert rows_equal([(2**70,)], [(float(2**70),)])

    def test_text_never_merges_with_numbers(self):
        assert not rows_equal([("5",)], [(5,)], lax=True)

    def test_normalize_value_infinity(self):
        assert normalize_value(math.inf) == normalize_value(math.inf)
        assert normalize_value(math.inf) != normalize_value(-math.inf)


class TestIsSortedBy:
    def test_asc_nulls_last(self):
        assert is_sorted_by([(1,), (2,), (None,)], ((0, False),))
        assert not is_sorted_by([(None,), (1,)], ((0, False),))

    def test_desc_nulls_first(self):
        assert is_sorted_by([(None,), (2,), (1,)], ((0, True),))
        assert not is_sorted_by([(2,), (None,)], ((0, True),))

    def test_nan_sorts_above_numbers(self):
        assert is_sorted_by([(1.0,), (NAN,), (None,)], ((0, False),))
        assert not is_sorted_by([(NAN,), (1.0,)], ((0, False),))

    def test_second_key_breaks_ties(self):
        rows = [(1, "a"), (1, "b"), (2, "a")]
        assert is_sorted_by(rows, ((0, False), (1, False)))
        assert not is_sorted_by(rows, ((0, False), (1, True)))


# ---------------------------------------------------------------------------
# Error taxonomy
# ---------------------------------------------------------------------------


class TestErrorTaxonomy:
    @pytest.mark.parametrize("error,label", [
        (ParseError("x"), "parse"),
        (PlanError("x"), "plan"),
        (ExecutionError("x"), "execution"),
        (CatalogError("x"), "catalog"),
        (SettingError("x"), "setting"),
        (KeyError("x"), CRASH),
        (RecursionError("x"), CRASH),
        (ZeroDivisionError("x"), CRASH),
    ])
    def test_classification(self, error, label):
        assert error_class(error) == label

    def test_run_statement_applies_taxonomy(self, db):
        assert run_statement(db, "SELECT 1").rows == [(1,)]
        assert run_statement(db, "SELEC 1").error == "parse"
        assert run_statement(db, "SELECT * FROM nope").error in (
            "catalog", "name-resolution")
        assert run_statement(db, "SELECT 1/0").error == "execution"

    def test_both_reject_is_agreement_but_crash_is_not(self):
        """The oracle treats uniform rejection as agreement; a planted
        crash in an executor surfaces as a 'crash' discrepancy."""
        case = _handmade_case(queries=(
            Query(sql="SELECT no_such_fn(a.k) FROM t9 a",
                  sqlite_sql=None),))
        assert DifferentialChecker(use_sqlite=False).check_case(case) == []


# ---------------------------------------------------------------------------
# Settings matrix derivation
# ---------------------------------------------------------------------------


class TestSettingsMatrix:
    def test_matrix_derives_from_registry(self, db):
        configs = settings_matrix(db)
        labels = [c.label for c in configs]
        assert labels[0] == "baseline"
        assert "defaults" in labels
        assert len(labels) == len(set(labels))
        # Every finite plan-affecting setting contributes an axis in each
        # direction.
        axes = db.settings.plan_axes()
        assert {s.name for s, _ in axes} >= {
            "enable_hashjoin", "enable_rangescan", "enable_topn",
            "enable_mergejoin", "enable_vectorize", "batch_compiled"}
        for setting, values in axes:
            assert values is not None and len(values) >= 2
            assert any(setting.name in label for label in labels)
        assert "defaults+plan_cache_size=0" in labels

    def test_enumerable_values_hook(self, db):
        registry = db.settings
        assert registry.lookup("enable_topn").enumerable_values() == \
            (False, True)
        assert registry.lookup("check_function_bodies").enumerable_values() \
            == ("off", "warn", "error")
        assert registry.lookup("plan_cache_size").enumerable_values() is None

    def test_configs_apply_through_set(self, db):
        for config in settings_matrix(db):
            config.apply(db)
        db.execute("RESET ALL")


# ---------------------------------------------------------------------------
# ddmin and the reducer
# ---------------------------------------------------------------------------


class TestDdmin:
    def test_minimizes_to_the_interesting_pair(self):
        items = list(range(20))
        result = ddmin(items, lambda xs: 3 in xs and 17 in xs)
        assert sorted(result) == [3, 17]

    def test_single_culprit(self):
        assert ddmin(list(range(64)), lambda xs: 42 in xs) == [42]

    def test_keeps_everything_when_all_needed(self):
        items = [1, 2, 3]
        assert ddmin(items, lambda xs: xs == items) == items


def _handmade_case(queries, rows=None, extra_table=True,
                   modifications=()) -> Case:
    """A hand-built case: t9(k int, v int) with deterministic rows, plus
    an (optional) unused second table for the reducer to discard."""
    t9 = TableSpec("t9", (ColumnSpec("k", "int", "num", "int"),
                          ColumnSpec("v", "int", "num", "int")))
    tables = [t9]
    data = {"t9": rows if rows is not None else
            [(i % 5, 10 - i) for i in range(12)]}
    if extra_table:
        pad = TableSpec("t8", (ColumnSpec("p", "int", "num", "int"),))
        tables.append(pad)
        data["t8"] = [(1,), (2,)]
    return Case(seed=999, schema=SchemaSpec(tuple(tables)), data=data,
                functions=(), queries=tuple(queries),
                modifications=tuple(modifications))


PADDING_QUERIES = (
    Query(sql="SELECT a.k FROM t9 a WHERE a.k > 2", sqlite_sql=None),
    Query(sql="SELECT count(*) FROM t9 a", sqlite_sql=None),
    Query(sql="SELECT a.p FROM t8 a ORDER BY 1", sqlite_sql=None,
          order="total", order_keys=((0, False),)),
    Query(sql="SELECT a.v FROM t9 a WHERE a.v IS NOT NULL",
          sqlite_sql=None),
)

TOPN_QUERY = Query(
    sql="SELECT a.k, a.v FROM t9 a ORDER BY 1, 2 LIMIT 4",
    sqlite_sql=None, order="total",
    order_keys=((0, False), (1, False)))


@pytest.fixture()
def planted_topn_bug(monkeypatch):
    """Make the bounded-heap TopN silently drop its last row — a planner
    bug only configurations with enable_topn on can exhibit."""
    from repro.sql.executor import select_core
    original = select_core.TopNState.open

    def broken_open(self, outer):
        original(self, outer)
        if len(self.rows) > 1:
            self.rows.pop()

    monkeypatch.setattr(select_core.TopNState, "open", broken_open)


class TestReducerConvergence:
    def test_planted_bug_is_found_and_reduced(self, planted_topn_bug):
        case = _handmade_case(queries=PADDING_QUERIES + (TOPN_QUERY,))
        checker = DifferentialChecker(use_sqlite=False)
        discrepancies = checker.check_case(case)
        assert discrepancies, "planted TopN bug must be detected"
        assert any(d.kind == "result" and "enable_topn" not in d.config_a
                   for d in discrepancies)
        reducer = Reducer(checker.check_case)
        reduced = reducer.reduce(case)
        # Tentpole acceptance: the reproducer shrinks to <= 5 statements.
        assert reduced.statement_count() <= 5
        assert len(reduced.queries) == 1
        assert "LIMIT" in reduced.queries[0].sql
        assert len(reduced.schema.tables) == 1
        assert checker.check_case(reduced), "reduced case still fails"

    def test_clean_case_is_returned_untouched(self):
        case = _handmade_case(queries=PADDING_QUERIES)
        checker = DifferentialChecker(use_sqlite=False)
        reducer = Reducer(checker.check_case)
        assert reducer.reduce(case) == case

    def test_emitted_regression_module_runs(self, planted_topn_bug,
                                            tmp_path):
        case = _handmade_case(queries=(TOPN_QUERY,), extra_table=False)
        checker = DifferentialChecker(use_sqlite=False)
        discrepancies = checker.check_case(case)
        text = emit_pytest(case, discrepancies, test_name="test_emitted")
        assert "DifferentialChecker" in text
        assert "CASE = Case(" in text
        namespace: dict = {}
        exec(compile(text, "<emitted>", "exec"), namespace)
        # Under the planted bug the regression fails...
        with pytest.raises(AssertionError):
            namespace["test_emitted"]()

    def test_emitted_regression_passes_once_fixed(self, tmp_path):
        case = _handmade_case(queries=(TOPN_QUERY,), extra_table=False)
        checker = DifferentialChecker(use_sqlite=False)
        text = emit_pytest(case, [], test_name="test_emitted")
        namespace: dict = {}
        exec(compile(text, "<emitted>", "exec"), namespace)
        namespace["test_emitted"]()   # healthy engine: no discrepancies


# ---------------------------------------------------------------------------
# Modifications: UPDATE / DELETE on the plan-equivalence axis
# ---------------------------------------------------------------------------


def _modification(sql: str, where: str) -> Modification:
    sql = f"{sql} WHERE {where}"
    return Modification(sql=sql, sqlite_sql=sql, table="t9",
                        count_sql=f"SELECT count(*) FROM t9 WHERE {where}")


MODIFICATIONS = (
    _modification("UPDATE t9 SET v = v + 1, k = k + 1", "(t9.k >= 2)"),
    _modification("DELETE FROM t9", "(t9.k = 3) AND (t9.v < 100)"),
    _modification("DELETE FROM t9",
                  "(EXISTS (SELECT 1 FROM t9 e WHERE e.v = t9.k))"),
)


class TestModifications:
    def test_generated_cases_carry_two(self):
        for index in range(20):
            case = generate_case(4, index)
            assert case == generate_case(4, index)
            assert len(case.modifications) == 2
            for modification in case.modifications:
                assert modification.sql.startswith(("UPDATE ", "DELETE "))
                assert modification.table in case.data

    def test_clean_case_is_clean_and_counted(self):
        from repro.sql.profiler import FUZZ_DML_CHECKS, FUZZ_SQLITE_CHECKS
        case = _handmade_case(queries=PADDING_QUERIES,
                              modifications=MODIFICATIONS)
        checker = DifferentialChecker(use_sqlite=True)
        assert checker.check_case(case) == []
        assert checker.profiler.counts[FUZZ_DML_CHECKS] == 3
        assert checker.profiler.counts[FUZZ_SQLITE_CHECKS] == 3

    def test_every_configuration_starts_from_the_loaded_table(self):
        """The first statement changes most rows; were they not put back
        the second would find other targets under later configurations -
        and the padding queries other rows."""
        case = _handmade_case(queries=PADDING_QUERIES,
                              modifications=MODIFICATIONS[:2])
        assert DifferentialChecker().check_case(case) == []

    def test_an_index_scan_dropping_a_target_is_caught(self, monkeypatch):
        """Plant it where only some configurations go: the range scan
        skips the first version it would hand a modify node."""
        from repro.sql.executor import scan
        original = scan.IndexRangeScanState.open

        def broken_open(self, outer):
            original(self, outer)
            if self.plan.versions and self.pos != self.stop:
                self.pos += self.step

        monkeypatch.setattr(scan.IndexRangeScanState, "open", broken_open)
        case = _handmade_case(queries=PADDING_QUERIES,
                              modifications=MODIFICATIONS[:1])
        checker = DifferentialChecker(use_sqlite=False)
        discrepancies = checker.check_case(case)
        assert {d.kind for d in discrepancies} == {"count"}
        assert all("enable_rangescan=on" in d.config_b
                   or d.config_b.startswith("defaults")
                   for d in discrepancies)
        assert not any(d.config_b == "defaults+enable_rangescan=off"
                       for d in discrepancies)
        reduced = Reducer(checker.check_case).reduce(case)
        assert reduced.queries == ()
        assert len(reduced.modifications) == 1
        assert len(reduced.schema.tables) == 1

    def test_a_batch_probe_dropping_its_last_match_is_caught(self,
                                                             monkeypatch):
        """Plant it where only the vectorized configurations go: every
        joined batch of the batch hash join loses its last row."""
        from repro.sql.executor import vector
        original = vector.VectorHashJoin._emit

        def broken_emit(self, batch, ppos, bpos):
            return original(self, batch, ppos[:-1], bpos[:-1])

        monkeypatch.setattr(vector.VectorHashJoin, "_emit", broken_emit)
        join = Query(sql="SELECT a.k, b.p FROM t9 a JOIN t8 b ON a.k = b.p",
                     sqlite_sql=None)
        case = _handmade_case(queries=PADDING_QUERIES + (join,))
        checker = DifferentialChecker(use_sqlite=False)
        discrepancies = checker.check_case(case)
        assert {d.kind for d in discrepancies} == {"result"}
        failing = {d.config_b for d in discrepancies}
        assert "defaults/plain" in failing
        assert not any("enable_vectorize=off" in label
                       or "enable_hashjoin=off" in label for label in failing)
        reduced = Reducer(checker.check_case).reduce(case)
        assert [q.sql for q in reduced.queries] == [join.sql]
        assert len(reduced.schema.tables) == 2
        assert checker.check_case(reduced), "reduced case still fails"
        # And the generated cases catch it too, within a dozen of seed 0.
        assert any(checker.check_case(generate_case(0, index))
                   for index in range(12))

    def test_a_hash_probe_dropping_a_target_is_caught(self, monkeypatch):
        """Every configuration probes the hash index for ``k = 3``, so
        the plans agree with each other - count(*) over the same WHERE
        and SQLite do not agree with them."""
        from repro.sql.executor import scan
        original = scan.IndexScanState.open

        def broken_open(self, outer):
            original(self, outer)
            if self.plan.versions:
                self.rows = self.rows[1:]

        monkeypatch.setattr(scan.IndexScanState, "open", broken_open)
        case = _handmade_case(queries=(), modifications=MODIFICATIONS[1:2])
        kinds = [d.kind for d in DifferentialChecker().check_case(case)]
        assert kinds == ["count", "sqlite"]


# ---------------------------------------------------------------------------
# SQLite oracle plumbing
# ---------------------------------------------------------------------------


class TestSqliteOracle:
    def test_agreeing_case_is_clean(self):
        query = Query(sql="SELECT a.k, a.v FROM t9 a ORDER BY 1, 2",
                      sqlite_sql="SELECT a.k, a.v FROM t9 a "
                                 "ORDER BY 1 NULLS LAST, 2 NULLS LAST",
                      order="total", order_keys=((0, False), (1, False)))
        case = _handmade_case(queries=(query,), extra_table=False,
                              rows=[(1, 2), (None, 3), (1, None)])
        checker = DifferentialChecker(use_sqlite=True)
        assert checker.check_case(case) == []
        assert checker.profiler.counts["fuzz sqlite cross-checks"] == 1

    def test_nan_data_disqualifies_sqlite(self):
        from repro.fuzz.datagen import data_sqlite_safe
        assert not data_sqlite_safe({"t": [(NAN,)]})
        assert not data_sqlite_safe({"t": [(2**64,)]})
        assert not data_sqlite_safe({"t": [(math.inf,)]})
        assert data_sqlite_safe({"t": [(1, "a", None, True, 0.5)]})


# ---------------------------------------------------------------------------
# Fuzz counters
# ---------------------------------------------------------------------------


class TestFuzzCounters:
    def test_harness_profiler_counts(self):
        from repro.sql.profiler import (FUZZ_CASES, FUZZ_COMPARISONS,
                                        FUZZ_EXECUTIONS)
        checker = DifferentialChecker(use_sqlite=False)
        case = _handmade_case(queries=PADDING_QUERIES)
        checker.check_case(case)
        counts = checker.profiler.counts
        assert counts[FUZZ_CASES] == 1
        assert counts[FUZZ_EXECUTIONS] > len(PADDING_QUERIES)
        assert counts[FUZZ_COMPARISONS] > 0

    def test_sweep_meets_typed_columns(self):
        """The row = vector oracle says nothing about the typed kernels
        unless generated int columns are NULL-free often enough for the
        table to vouch for them (4% of 20-row columns at a flat NULL rate
        of 0.15)."""
        from repro.sql.profiler import VECTOR_ROWS, VECTOR_TYPED_ROWS
        checker = DifferentialChecker(use_sqlite=False)
        for index in range(12):
            assert checker.check_case(generate_case(0, index)) == []
        counts = checker.profiler.counts
        assert counts[VECTOR_ROWS] > 0
        assert counts[VECTOR_TYPED_ROWS] >= 0.2 * counts[VECTOR_ROWS]

    @pytest.mark.parametrize("seed", range(6))
    def test_sweep_meets_the_batch_hash_join(self, seed):
        """Every seed's first dozen cases put rows through the vectorized
        core's hash join, so row = vector is checked on joined batches."""
        from repro.sql.profiler import VECTOR_JOIN_ROWS
        checker = DifferentialChecker(use_sqlite=False)
        for index in range(12):
            assert checker.check_case(generate_case(seed, index)) == []
            if checker.profiler.counts[VECTOR_JOIN_ROWS]:
                return
        pytest.fail(f"seed {seed}: no vector join rows in 12 cases")

    def test_generated_join_reaches_the_row_fallback(self):
        """Case 3 of seed 3 joins on a cross-class key pair: every plan
        fails alike, the vectorized ones by falling back (no generated
        query raised inside a vectorized core before ``_join_select`` drew
        such pairs)."""
        from repro.sql.profiler import VECTOR_FALLBACKS
        checker = DifferentialChecker(use_sqlite=False)
        assert checker.check_case(generate_case(3, 3)) == []
        assert checker.profiler.counts[VECTOR_FALLBACKS] > 0


# ---------------------------------------------------------------------------
# The transaction axis (multi-session interleaved scripts)
# ---------------------------------------------------------------------------


class TestTxnFuzz:
    def test_generation_is_deterministic(self):
        from repro.fuzz import generate_txn_case
        a = generate_txn_case(3, 17)
        b = generate_txn_case(3, 17)
        assert a.script() == b.script()
        assert a.steps == b.steps

    def test_cases_cover_the_transaction_surface(self):
        from repro.fuzz import generate_txn_case
        from repro.fuzz.txngen import CONFLICT
        verbs = set()
        probes = 0
        for index in range(60):
            case = generate_txn_case(0, index)
            for step in case.steps:
                verbs.add(step.sql.split(None, 1)[0].upper())
                probes += step.expect == CONFLICT
        assert {"BEGIN", "COMMIT", "ROLLBACK", "SAVEPOINT", "RELEASE",
                "INSERT", "UPDATE", "DELETE"} <= verbs
        assert probes > 5    # guaranteed-to-fail write-write probes occur

    def test_smoke_run_is_clean(self):
        """Tier-1 smoke: ~120 interleaved multi-session cases, no
        discrepancies against the committed-state and SQLite oracles
        (CI runs the 600-case version)."""
        from repro.fuzz.__main__ import run_txn_fuzz
        assert run_txn_fuzz(seed=0, cases=120, verbose=False) == 0

    def test_checker_catches_a_lost_commit(self):
        """Sanity that the oracle can fail: drop a committed statement
        from the engine side by faking a conflict-free probe."""
        from repro.fuzz import check_txn_case
        from repro.fuzz.txngen import TxnCase, TxnStep
        case = TxnCase(seed=1, sessions=1, tables=["w0"], shared=None)
        case.setup = ["CREATE TABLE w0(k int, v int)",
                      "INSERT INTO w0 VALUES (0, 1)"]
        # The step claims a conflict the engine will not raise: the
        # checker must flag the expectation miss.
        case.steps = [TxnStep(0, "UPDATE w0 SET v = 2 WHERE k = 0",
                              expect="conflict")]
        problems = check_txn_case(case, use_sqlite=False)
        assert problems and problems[0].kind == "expect"


# ---------------------------------------------------------------------------
# The wire axis (served engine vs embedded engine)
# ---------------------------------------------------------------------------


class TestWireFuzz:
    def test_smoke_run_is_clean(self):
        """Tier-1 smoke: ~25 twin-database cases through a live server,
        rows and error SQLSTATEs agreeing with the embedded engine
        (CI runs the time-budgeted rotating-seed version)."""
        from repro.fuzz.__main__ import run_wire_fuzz
        assert run_wire_fuzz(seed=0, cases=25, verbose=False) == 0

    def test_wire_outcome_recovers_taxonomy_labels(self):
        """SQLSTATE -> taxonomy label round trip against a live server:
        the injective mapping is what makes error agreement checkable."""
        from repro.fuzz.wire import wire_outcome
        from repro.server import ServerThread, connect
        from repro.sql import Database
        with ServerThread(Database(seed=0)) as address:
            with connect(*address) as client:
                ok = wire_outcome(client, "SELECT 1")
                assert ok.status == "ok" and ok.rows == [("1",)]
                missing = wire_outcome(client, "SELECT * FROM missing")
                assert (missing.status, missing.error) == \
                    ("error", "name-resolution")
                syntax = wire_outcome(client, "SELEC 1")
                assert (syntax.status, syntax.error) == ("error", "parse")

    def test_checker_catches_a_divergent_twin(self, monkeypatch):
        """Sanity that the wire oracle can fail: make the embedded twin
        lie (duplicate a row) and the checker must report 'result'."""
        from repro.fuzz import wire as wire_module
        from repro.fuzz.querygen import generate_case
        real = wire_module.run_statement

        def lying(db, sql, **options):
            outcome = real(db, sql, **options)
            if outcome.status == "ok" and outcome.rows:
                outcome.rows = list(outcome.rows) + [outcome.rows[0]]
            return outcome

        monkeypatch.setattr(wire_module, "run_statement", lying)
        for index in range(10):  # first case whose queries return rows
            problems = wire_module.check_wire_case(generate_case(0, index))
            if problems:
                assert all(p.kind == "result" for p in problems)
                return
        raise AssertionError("no case produced rows to diverge on")


# ---------------------------------------------------------------------------
# The chaos axis (fault injection under the durability oracle)
# ---------------------------------------------------------------------------


class TestChaosFuzz:
    def test_smoke_run_is_clean(self):
        """Tier-1 smoke: ~30 durable-vs-memory twin cases with injected
        checkpoint failures, reopened and compared (CI runs the
        rotating-seed 200-case version)."""
        from repro.fuzz.__main__ import run_chaos_fuzz
        assert run_chaos_fuzz(seed=0, cases=30, verbose=False) == 0

    def test_checker_catches_replay_divergence(self, monkeypatch):
        """Sanity that the chaos oracle can fail: drop a row from every
        replay and the reopen comparison must report it."""
        from repro.fuzz import chaos as chaos_module
        from repro.fuzz.querygen import generate_case
        from repro.sql.wal import WalManager
        real = WalManager.replay

        def lossy(self):
            applied = real(self)
            for table in self.db.catalog.tables.values():
                if table._versions:
                    table._versions.pop()
                    break
            return applied

        monkeypatch.setattr(WalManager, "replay", lossy)
        for index in range(10):  # first case with any table data
            problems = chaos_module.check_chaos_case(generate_case(0, index))
            if problems:
                assert problems[0].kind in ("reopen", "query")
                return
        raise AssertionError("no case had data to lose on replay")

    def test_faults_left_disarmed(self):
        """A chaos case must never leak an armed trigger into the
        process-wide registry (tier-1 tests share it)."""
        from repro.faults import FAULTS
        from repro.fuzz.chaos import check_chaos_case
        from repro.fuzz.querygen import generate_case
        for index in range(5):
            check_chaos_case(generate_case(3, index))
        assert not FAULTS.active
