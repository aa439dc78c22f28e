"""Regressions found by the differential fuzzer (``python -m repro.fuzz``).

Each test pins one discrepancy the fuzzer surfaced, in its delta-debugged
minimal form (3 statements each, shrunk from 2-5-query cases over
multi-table schemas by :mod:`repro.fuzz.reduce`):

1. **seed 2001273 (engine-vs-engine)** — ``avg()`` seeded its running
   total with float ``0.0``, so integer input accumulated in floating
   point and the result depended on row delivery order: over
   ``{7, -2^63, 2^63}`` a seq scan produced ``0.0`` (the 7 vanished in
   catastrophic cancellation) while an index range scan — same rows,
   different order — produced ``7/3``.  Fixed by accumulating exactly
   (Python bigints) like PostgreSQL's numeric ``avg(int)``.

2. **seed 2001579 (engine-vs-SQLite)** — SQLite does not raise on int64
   overflow in ``+ - *``; it silently degrades to floating point, so
   ``(-2^63) - ((-2^63) + (-3))`` is ``0.0`` there and exact ``3`` here.
   The engine's bigint arithmetic is the intended (PostgreSQL-faithful)
   behaviour; the fix bounds the SQLite oracle's *input* ints to 32 bits
   (``value_sqlite_arithmetic_safe``) so the cross-check stays sound.

3. Row/batch numeric parity of ``avg()`` under the vectorized executor.

4. **chaos seed 5, case 192 (chaos/wire)** — a false positive: rows that
   tie under a "total" ORDER BY because ``0.0 = -0.0`` came in different
   heap orders from the memory and the replayed twin, and their rendered
   text differs.  The wire sub-check now compares the served twin with its
   own embedded answer.

A final sweep test re-runs slices of the seeds that were fuzzed clean at
development time (seeds 0/1/2/7/11 x hundreds of cases each, plus the two
fixes above), so the "zero unexplained discrepancies" property is
continuously re-proven on a bounded budget.
"""

from __future__ import annotations

import pytest

from repro.fuzz import Case, DifferentialChecker, Query, rows_equal
from repro.fuzz.datagen import (data_sqlite_safe,
                                value_sqlite_arithmetic_safe)
from repro.fuzz.schema import ColumnSpec, SchemaSpec, TableSpec
from repro.sql import Database

INT64_MIN = -(2**63)


# ---------------------------------------------------------------------------
# 1. avg() float accumulation (engine-vs-engine, fuzz seed 2001273)
# ---------------------------------------------------------------------------

AVG_CASE = Case(
    seed=2001273,
    schema=SchemaSpec(tables=(
        TableSpec("t0", (ColumnSpec("c0_0", "int", "num", "int"),
                         ColumnSpec("c3_0", "int", "num", "int"))),)),
    data={"t0": [(7, 2**63 - 1), (INT64_MIN, 2), (2**63, 2)]},
    functions=(),
    queries=(Query(
        sql="SELECT avg(a.c0_0) FROM t0 a "
            "WHERE ((a.c3_0 >= (-2)) AND (a.c3_0 >= (-5)))",
        sqlite_sql=None),))


class TestAvgExactAccumulation:
    def test_minimized_fuzz_case_is_clean(self):
        assert DifferentialChecker(use_sqlite=False).check_case(
            AVG_CASE) == []

    def test_avg_of_large_ints_is_exact_and_order_independent(self, db):
        db.execute("CREATE TABLE t(x int)")
        db.execute("INSERT INTO t VALUES (7), ($1), ($2)",
                   [INT64_MIN, 2**63])
        forward = db.query_value("SELECT avg(x) FROM t")
        db.execute("DELETE FROM t")
        db.execute("INSERT INTO t VALUES ($1), ($2), (7)",
                   [2**63, INT64_MIN])
        backward = db.query_value("SELECT avg(x) FROM t")
        assert forward == backward == 7 / 3

    def test_avg_small_ints_unchanged(self, db):
        db.execute("CREATE TABLE t(x int)")
        db.execute("INSERT INTO t VALUES (1), (2), (4)")
        assert db.query_value("SELECT avg(x) FROM t") == 7 / 3

    def test_avg_floats_still_float(self, db):
        db.execute("CREATE TABLE t(x double precision)")
        db.execute("INSERT INTO t VALUES (0.5), (1.5)")
        assert db.query_value("SELECT avg(x) FROM t") == 1.0

    def test_avg_rejects_non_numbers_like_sum(self, db):
        from repro.sql.errors import TypeError_
        db.execute("CREATE TABLE t(s text)")
        db.execute("INSERT INTO t VALUES ('a')")
        with pytest.raises(TypeError_):
            db.query_value("SELECT avg(s) FROM t")
        with pytest.raises(TypeError_):
            db.query_value("SELECT sum(s) FROM t")

    def test_avg_empty_and_null_only(self, db):
        db.execute("CREATE TABLE t(x int)")
        assert db.query_value("SELECT avg(x) FROM t") is None
        db.execute("INSERT INTO t VALUES (NULL)")
        assert db.query_value("SELECT avg(x) FROM t") is None


# ---------------------------------------------------------------------------
# 2. SQLite int64 overflow degradation (engine-vs-SQLite, fuzz seed 2001579)
# ---------------------------------------------------------------------------

SQLITE_CASE = Case(
    seed=2001579,
    schema=SchemaSpec(tables=(
        TableSpec("t0", (ColumnSpec("c0_0", "int", "num", "int"),
                         ColumnSpec("c1_0", "text", "text", "text"),
                         ColumnSpec("c2_0", "text", "text", "text"))),)),
    data={"t0": [(INT64_MIN, "%_x", None)]},
    functions=(),
    queries=(Query(
        sql="SELECT a.c1_0, (a.c0_0 - (a.c0_0 + (-3))), "
            "(a.c2_0 || replace('b', 'a', 'zz')) FROM t0 a "
            "ORDER BY 3, 1, 2",
        sqlite_sql="SELECT a.c1_0, (a.c0_0 - (a.c0_0 + (-3))), "
                   "(a.c2_0 || replace('b', 'a', 'zz')) FROM t0 a "
                   "ORDER BY 3 NULLS LAST, 1 NULLS LAST, 2 NULLS LAST",
        order="total",
        order_keys=((2, False), (0, False), (1, False))),))


class TestSqliteOverflowGate:
    def test_minimized_fuzz_case_is_clean(self):
        """Boundary-int data no longer reaches the SQLite oracle (whose
        int64 arithmetic would silently go floating point), and the
        engine side of the case still checks clean across the matrix."""
        assert DifferentialChecker(use_sqlite=True).check_case(
            SQLITE_CASE) == []

    def test_engine_keeps_exact_bigint_arithmetic(self, db):
        """The engine half of the discrepancy is the *intended*
        behaviour: exact, PostgreSQL-faithful bigint arithmetic."""
        db.execute("CREATE TABLE t(x int)")
        db.execute("INSERT INTO t VALUES ($1)", [INT64_MIN])
        assert db.query_all("SELECT x - (x + (-3)) FROM t") == [(3,)]

    def test_arithmetic_gate_bounds_input_ints(self):
        assert value_sqlite_arithmetic_safe(2**31)
        assert not value_sqlite_arithmetic_safe(2**31 + 1)
        assert not value_sqlite_arithmetic_safe(INT64_MIN)
        assert value_sqlite_arithmetic_safe(0.5)
        assert value_sqlite_arithmetic_safe("x")
        assert not data_sqlite_safe({"t": [(INT64_MIN,)]})
        assert data_sqlite_safe({"t": [(-(2**31), "a")]})


# ---------------------------------------------------------------------------
# 3. Row/batch numeric parity (the PR 10 vectorized executor, same
#    order-dependent-avg bug class as #1)
# ---------------------------------------------------------------------------


class TestVectorizedNumericParity:
    """The vectorized executor folds whole argument columns per batch
    (executor/vector.py:_accumulate); if it seeded or ordered the
    accumulation differently from the scalar state machines, the same
    ``{7, -2^63, 2^63}`` adversarial bigints that exposed bug #1 would
    diverge between the engines again."""

    ADVERSARIAL = [7, INT64_MIN, 2**63]

    def _load(self, db):
        db.execute("CREATE TABLE t(x int)")
        for v in self.ADVERSARIAL:
            db.execute("INSERT INTO t VALUES ($1)", [v])

    def test_sum_avg_parity_on_adversarial_bigints(self, db):
        self._load(db)
        q = "SELECT sum(x), avg(x), count(x) FROM t"
        db.execute("SET enable_vectorize = on")
        assert "Vector" in db.execute("EXPLAIN " + q).rows[0][0]
        vectorized = db.execute(q).rows
        db.execute("SET enable_vectorize = off")
        assert vectorized == db.execute(q).rows == [(7, 7 / 3, 3)]

    def test_grouped_parity_on_adversarial_bigints(self, db):
        db.execute("CREATE TABLE t(g int, x int)")
        for g, v in enumerate(self.ADVERSARIAL * 2):
            db.execute("INSERT INTO t VALUES ($1, $2)", [g % 2, v])
        q = "SELECT g, sum(x), avg(x) FROM t GROUP BY g"
        db.execute("SET enable_vectorize = on")
        assert "Vector" in db.execute("EXPLAIN " + q).rows[0][0]
        vectorized = db.execute(q).rows
        db.execute("SET enable_vectorize = off")
        assert vectorized == db.execute(q).rows

    def test_accumulation_follows_scan_order(self, db):
        # avg is exact over ints, so both engines must produce 7/3 in
        # either insertion order — the float-seeded accumulator of bug #1
        # would instead give an order-dependent 0.0 here.
        for ordering in (self.ADVERSARIAL, self.ADVERSARIAL[::-1]):
            db.execute("DROP TABLE IF EXISTS t")
            db.execute("CREATE TABLE t(x int)")
            for v in ordering:
                db.execute("INSERT INTO t VALUES ($1)", [v])
            for setting in ("on", "off"):
                db.execute(f"SET enable_vectorize = {setting}")
                assert db.query_value("SELECT avg(x) FROM t") == 7 / 3


# ---------------------------------------------------------------------------
# 4. Signed zeros tie under a "total" ORDER BY (chaos axis, seed 5 case 192)
# ---------------------------------------------------------------------------

# ``0.0`` and ``-0.0`` are one SQL value, so rows that differ only there
# tie under ``ORDER BY 2, 1 DESC`` and come in heap order.  The chaos
# axis's wire sub-check compared the served, replayed twin's rendered rows
# ('-0.0' vs '0.0') positionally against the memory twin, whose heap holds
# the tied rows in another order, and reported a discrepancy.
SIGNED_ZERO_CASE = Case(
    seed=18,
    schema=SchemaSpec(tables=(
        TableSpec("t1", (ColumnSpec("c0_1", "int", "num", "int"),
                         ColumnSpec("c1_1", "text", "text", "text"),
                         ColumnSpec("c2_1", "double precision", "num",
                                    "float"),
                         ColumnSpec("c3_1", "boolean", "bool", "bool"))),)),
    data={"t1": [
        (-3, '', 3.25, False), (7, 'a', 1.0, True), (0, 'zz', 0.001, False),
        (1, "quo'te", 0.0, True), (3, 'a', 1.0, True), (5, 'B', 0.0, False),
        (-3, '', 3.25, False), (0, 'b', -123.5, True), (0, 'ab', 1.0, True),
        (2, 'ab', 0.001, False), (999, 'a b', -0.0, False),
        (999, 'a b', -0.0, False), (0, 'zz', 0.001, False),
        (7, "quo'te", -123.5, False), (1, 'ab', 0.0, True),
        (3, 'zz', -123.5, False), (100, 'a', -0.0, False),
        (100, 'ab', 3.25, True), (5, 'B', 0.0, False),
        (100, "quo'te", -123.5, True), (1, '', 10000000000.0, True),
        (-3, 'b', -0.0, False), (0, 'B', 0.5, True),
        (100, "quo'te", 1.0, False), (-1, 'B', -0.0, None),
        (7, "quo'te", 0.0, False), (0, 'zz', 0.001, False),
        (100, 'b', 10000000000.0, False), (2, 'ab', 3.25, None),
        (0, '%_x', 10000000000.0, False), (5, 'ab', 1.0, None),
        (-3, 'zz', -0.0, False), (-17, "quo'te", 0.5, False),
        (5, '', -0.0, False)]},
    functions=(),
    queries=(Query(sql="SELECT a.c2_1, a.c3_1 FROM t1 a ORDER BY 2, 1 DESC",
                   sqlite_sql=None, order="total",
                   order_keys=((1, False), (0, True))),))


class TestChaosWireSignedZeroTie:
    def test_wire_check_runs_and_is_clean(self, monkeypatch):
        from repro.fuzz import chaos
        calls = []
        wire_outcome = chaos.wire_outcome

        def counting(client, sql):
            calls.append(sql)
            return wire_outcome(client, sql)

        monkeypatch.setattr(chaos, "wire_outcome", counting)
        assert chaos.check_chaos_case(SIGNED_ZERO_CASE) == []
        assert calls == [SIGNED_ZERO_CASE.queries[0].sql]


# ---------------------------------------------------------------------------
# The standing seed sweep: zero unexplained discrepancies
# ---------------------------------------------------------------------------


class TestSeedSweep:
    """Representative windows of the development-time sweep (seeds 0, 1,
    2, 7, 11, 30 and 31 — over ten thousand cases checked clean after the
    fixes above) re-run here on a tier-1 budget.  The minimized
    reproducers above pin the two historical finds exactly; these windows
    keep proving the standing "zero unexplained discrepancies" property
    on fresh generator output."""

    @pytest.mark.parametrize("seed,start,count", [
        (1, 180, 8),
        (2, 1265, 6),
        (30, 0, 8),
        (31, 100, 8),
    ])
    def test_windows_stay_clean(self, seed, start, count):
        from repro.fuzz.__main__ import run_fuzz
        failures = run_fuzz(seed=seed, cases=count, start_index=start,
                            reduce_failures=False, emit_dir=None,
                            verbose=False)
        assert failures == 0
