"""Session/Connection API: parse->classify->dispatch, the LRU plan cache,
prepared statements (SQL and programmatic), the GUC-style settings
registry, and the PEP-249 cursor surface.

Regression focus of this PR:

* comment-prefixed / parenthesised SELECTs must hit the plan cache (the
  old ``_looks_like_select`` prefix sniff silently bypassed it),
* prepared statements must replan — never crash or return stale results —
  across every DDL invalidation path,
* every plan-affecting flag swept through SET/RESET must preserve result
  equality on the ordered-paths workloads (differential house style).
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.sql import Database
from repro.sql.errors import (CatalogError, ExecutionError,
                              NameResolutionError, PlanError, SettingError)
from repro.sql.parser import SqlParser
from repro.sql.planner import Planner
from repro.sql.profiler import (PLAN_CACHE_EVICTIONS, PLAN_CACHE_HIT,
                                PLAN_CACHE_MISS, PLAN_INSTANTIATIONS,
                                PREPARED_EXECUTIONS, PREPARED_REPLANS,
                                SETTINGS_ASSIGNMENTS)
from repro.sql.statement import Statement


@pytest.fixture
def db():
    database = Database()
    database.execute("CREATE TABLE t(a int, b int)")
    # Loaded through the table, so that the cache starts empty.
    database.catalog.get_table("t").insert_many(
        (i % 10, i) for i in range(100))
    return database


# ---------------------------------------------------------------------------
# Parse -> classify -> dispatch (no more prefix sniffing)
# ---------------------------------------------------------------------------


class TestClassifyDispatch:
    def test_line_comment_prefixed_select_hits_plan_cache(self, db):
        sql = "-- find one row\nSELECT b FROM t WHERE a = $1"
        db.profiler.reset()
        first = db.execute(sql, [3])
        db.execute(sql, [3])  # second sight: admitted
        third = db.execute(sql, [3])
        assert first.rows == third.rows
        assert db.profiler.counts[PLAN_CACHE_MISS] == 2
        assert db.profiler.counts[PLAN_CACHE_HIT] == 1

    def test_block_comment_prefixed_select_hits_plan_cache(self, db):
        sql = "/* a block\n   comment */ SELECT count(*) FROM t"
        db.profiler.reset()
        for _ in range(3):
            assert db.execute(sql).scalar() == 100
        assert db.profiler.counts[PLAN_CACHE_HIT] == 1

    def test_parenthesised_select_hits_plan_cache(self, db):
        sql = "(SELECT sum(b) FROM t)"
        db.profiler.reset()
        for _ in range(3):
            db.execute(sql)
        assert db.profiler.counts[PLAN_CACHE_HIT] == 1

    def test_comment_prefixed_dml_dispatches(self, db):
        result = db.execute("-- bump\nUPDATE t SET b = b + 1 WHERE a = 0")
        assert result.rows == [(10,)]
        db.execute("/* gone */ DELETE FROM t WHERE a = 0")
        assert db.query_value("SELECT count(*) FROM t WHERE a = 0") == 0

    def test_dml_shapes_are_kept_and_other_kinds_never(self, db,
                                                        monkeypatch):
        # Utilities, EXPLAIN and DDL are neither kept nor remembered.
        for _ in range(3):
            for sql in ("SET enable_topn = off", "SHOW enable_topn",
                        "RESET enable_topn", "BEGIN", "COMMIT",
                        "EXPLAIN UPDATE t SET b = 1 WHERE a = 1",
                        "CREATE INDEX t_b ON t(b)", "DROP INDEX t_b"):
                db.execute(sql)
        assert (len(db._plan_cache), len(db._plan_cache._ghosts)) == (0, 0)
        assert db.profiler.counts[PLAN_CACHE_MISS] == 0
        # A DML shape is kept on its second sight ...
        sql = "UPDATE t SET b = b + {} WHERE a = {}"
        db.execute(sql.format(1, 1))
        db.execute(sql.format(2, 2))
        assert len(db._plan_cache) == 1
        assert db._plan_cache.peek(sql.format(3, 3),
                                   db.settings.active) is not None
        # ... and on its third it is neither parsed nor planned.
        parsed, planned = [], []
        monkeypatch.setattr(SqlParser, "parse_statement",
                            lambda self: parsed.append(self))
        monkeypatch.setattr(Planner, "plan_statement",
                            lambda self, stmt: planned.append(stmt))
        db.profiler.reset()
        assert db.execute(sql.format(3, 3)).rows == [(10,)]
        assert (parsed, planned) == ([], [])
        assert db.profiler.counts[PLAN_CACHE_HIT] == 1
        monkeypatch.undo()
        assert db.query_value("SELECT sum(b) FROM t WHERE a = 3") \
            == sum(range(3, 100, 10)) + 3 * 10


# ---------------------------------------------------------------------------
# LRU plan cache (SET plan_cache_size)
# ---------------------------------------------------------------------------
#
# The texts below differ in an alias, so each is a shape of its own: texts
# that differ only in literals share one entry (tests/test_text_cache.py).


class TestPlanCacheLru:
    def test_lru_bound_and_eviction_counter(self, db):
        db.execute("SET plan_cache_size = 4")
        db.profiler.reset()
        for i in range(10):
            for _ in range(2):  # admitted on second sight
                db.execute(f"SELECT {i} AS c{i} FROM t LIMIT 1")
        assert len(db._plan_cache) == 4
        assert db.profiler.counts[PLAN_CACHE_EVICTIONS] == 6

    def test_lru_keeps_recently_used(self, db):
        db.execute("SET plan_cache_size = 2")
        hot = "SELECT a FROM t LIMIT 1"
        db.execute(hot)
        db.execute(hot)  # admitted on second sight
        db.profiler.reset()
        for i in range(5):
            for _ in range(2):  # admitted, so each pushes one entry out
                db.execute(f"SELECT {i} + a AS c{i} FROM t LIMIT 1")
            db.execute(hot)  # keep it warm
        # hot survives four evictions only because each hit renews it
        assert db.profiler.counts[PLAN_CACHE_HIT] == 5
        assert db.profiler.counts[PLAN_CACHE_EVICTIONS] == 4

    def test_lowering_size_trims_immediately(self, db):
        for i in range(6):
            for _ in range(2):  # admitted on second sight
                db.execute(f"SELECT {i} AS c{i} FROM t LIMIT 1")
        db.profiler.reset()
        db.execute("SET plan_cache_size = 2")
        assert len(db._plan_cache) == 2
        assert db.profiler.counts[PLAN_CACHE_EVICTIONS] == 4

    def test_size_zero_disables_caching(self, db):
        db.execute("SET plan_cache_size = 0")
        db.profiler.reset()
        db.execute("SELECT a FROM t LIMIT 1")
        db.execute("SELECT a FROM t LIMIT 1")
        assert db.profiler.counts[PLAN_CACHE_MISS] == 2
        assert db.profiler.counts[PLAN_CACHE_HIT] == 0
        db.execute("RESET plan_cache_size")
        for _ in range(3):  # admitted on second sight, hit on the third
            db.execute("SELECT a FROM t LIMIT 1")
        assert db.profiler.counts[PLAN_CACHE_HIT] == 1


# ---------------------------------------------------------------------------
# Settings registry: SET / SHOW / RESET
# ---------------------------------------------------------------------------


class TestSettings:
    def test_show_set_reset_roundtrip_bool(self, db):
        assert db.execute("SHOW enable_hashjoin").scalar() == "on"
        db.execute("SET enable_hashjoin = off")
        assert db.execute("SHOW enable_hashjoin").scalar() == "off"
        assert db.settings.get("enable_hashjoin") is False
        db.execute("RESET enable_hashjoin")
        assert db.settings.get("enable_hashjoin") is True

    def test_set_to_and_word_forms(self, db):
        for word, expected in (("true", True), ("false", False),
                               ("on", True), ("off", False),
                               ("1", True), ("0", False)):
            db.execute(f"SET enable_topn TO {word}")
            assert db.settings.get("enable_topn") is expected
        db.execute("RESET enable_topn")

    def test_set_int_and_enum(self, db):
        db.execute("SET max_udf_depth = 64")
        assert db.settings.get("max_udf_depth") == 64
        db.execute("SET max_udf_depth = 60 + 4")  # expressions are fine
        assert db.settings.get("max_udf_depth") == 64
        db.execute("SET check_function_bodies = error")
        assert db.settings.get("check_function_bodies") == "error"
        db.execute("SET check_function_bodies = 'warn'")
        assert db.settings.get("check_function_bodies") == "warn"

    def test_set_default_is_reset(self, db):
        db.execute("SET max_udf_depth = 17")
        db.execute("SET max_udf_depth = DEFAULT")
        assert db.settings.get("max_udf_depth") == 192

    def test_validation_errors(self, db):
        with pytest.raises(SettingError, match="unrecognized"):
            db.execute("SET no_such_setting = 1")
        with pytest.raises(SettingError, match="unrecognized"):
            db.execute("SHOW no_such_setting")
        with pytest.raises(SettingError, match="unrecognized"):
            db.execute("RESET no_such_setting")
        with pytest.raises(SettingError, match="one of"):
            db.execute("SET check_function_bodies = bogus")
        with pytest.raises(SettingError, match="boolean"):
            db.execute("SET enable_topn = 'maybe'")
        with pytest.raises(SettingError, match="out of range"):
            db.execute("SET max_udf_depth = 0")
        with pytest.raises(SettingError, match="integer"):
            db.execute("SET max_udf_depth = 1.5")
        with pytest.raises(SettingError, match="integer"):
            db.execute("SET max_udf_depth = 'deep'")
        with pytest.raises(SettingError, match="integer"):
            db.settings.assign("max_udf_depth", True)
        with pytest.raises(SettingError, match="one of"):
            db.settings.assign("check_function_bodies", 1)

    @pytest.mark.parametrize("statement", [
        "SET batch_strategy = sql",
        "SET batch_dedup = off",
        "SET inline_compiled = off",
    ])
    def test_removed_settings_are_unrecognized(self, db, statement):
        """One switch governs a compiled call (``batch_compiled``); the
        knobs it replaced are gone, not aliased."""
        with pytest.raises(SettingError, match="unrecognized"):
            db.execute(statement)

    def test_architecture_table_matches_registry(self, db):
        """ARCHITECTURE.md's settings table lists exactly the registry's
        settings, with their type, default and plan-affecting flag."""
        text = (Path(__file__).parent.parent / "ARCHITECTURE.md").read_text(
            encoding="utf-8")
        header = "| Name | Type | Default | Plan-affecting |"
        documented = {}
        for line in text[text.index(header):].splitlines()[2:]:
            if not line.startswith("|"):
                break
            name, type_, default, plan = (
                # "int ≥ 0 (ms)", "0 (off)": the parenthesis is a gloss.
                re.sub(r"\s*\(.*\)$", "", cell.strip())
                for cell in line.strip("|").split("|"))
            documented[name.strip("`")] = (type_, default,
                                           plan.split()[0] == "yes")

        def doc_type(setting):
            if setting.type == "int":
                return f"int ≥ {setting.minimum}"
            if setting.type == "enum":
                return "enum " + "/".join(f"`{c}`" for c in setting.choices)
            return setting.type

        assert documented == {
            s.name: (doc_type(s), db.settings.show(s.name), s.plan_affecting)
            for s in db.settings}  # a fresh database shows its defaults
        shown = [row[0] for row in db.execute("SHOW ALL").rows]
        assert shown == sorted(documented) and len(shown) == 14

    def test_show_all_lists_every_setting(self, db):
        result = db.execute("SHOW ALL")
        assert result.columns == ["name", "setting", "description"]
        names = [row[0] for row in result.rows]
        assert names == sorted(names)
        for expected in ("enable_rangescan", "batch_compiled",
                         "plan_cache_size", "max_interp_statements"):
            assert expected in names

    def test_programmatic_and_sql_surface_agree(self, db):
        db.settings.assign("enable_sort_elim", False)
        assert db.execute("SHOW enable_sort_elim").scalar() == "off"
        db.execute("SET enable_sort_elim = on")
        assert db.settings.get("enable_sort_elim") is True

    def test_reset_all(self, db):
        db.execute("SET enable_topn = off")
        db.execute("SET max_udf_depth = 7")
        db.execute("RESET ALL")
        assert db.settings.get("enable_topn") is True
        assert db.settings.get("max_udf_depth") == 192

    def test_assignment_counter(self, db):
        db.profiler.reset()
        db.execute("SET enable_topn = off")
        db.execute("RESET enable_topn")
        assert db.profiler.counts[SETTINGS_ASSIGNMENTS] == 2

    def test_plan_affecting_set_invalidates_cached_plans(self, db):
        db.execute("CREATE INDEX t_b ON t(b)")
        sql = "SELECT b FROM t WHERE b >= 10 AND b <= 20"
        expected = db.query_all(sql)
        assert "IndexRangeScan" in db.explain(sql)
        db.execute(sql)  # cached under rangescan=on
        db.execute("SET enable_rangescan = off")
        assert "IndexRangeScan" not in db.explain(sql)
        assert db.query_all(sql) == expected
        db.execute("RESET enable_rangescan")
        assert "IndexRangeScan" in db.explain(sql)

    def test_set_local_scoped_to_script(self, db):
        db.execute_script(
            "SET LOCAL max_udf_depth = 5; SELECT 1")
        assert db.settings.get("max_udf_depth") == 192

    def test_set_local_outside_script_is_noop_with_notice(self, db):
        db.execute("SET LOCAL max_udf_depth = 5")
        assert db.settings.get("max_udf_depth") == 192
        assert any("SET LOCAL" in notice for notice in db.notices)

    def test_set_local_unknown_name_still_validates(self, db):
        with pytest.raises(SettingError):
            db.execute("SET LOCAL nope = 5")


# ---------------------------------------------------------------------------
# Settings matrix: every plan-affecting flag, SET off / RESET, differential
# result equality on the ordered-paths workloads
# ---------------------------------------------------------------------------


PLAN_FLAGS = ["enable_rangescan", "enable_sort_elim", "enable_topn",
              "enable_vectorize", "enable_hashjoin", "enable_pushdown",
              "batch_compiled"]

WORKLOADS = [
    "SELECT b FROM t WHERE b >= 12 AND b < 47 ORDER BY b LIMIT 5",
    "SELECT a, count(*) FROM t WHERE b BETWEEN 5 AND 80 GROUP BY a ORDER BY a",
    "SELECT t1.b, t2.c FROM t t1 JOIN s t2 ON t1.b = t2.c "
    "ORDER BY t1.b LIMIT 7",
    "SELECT b FROM t ORDER BY b DESC LIMIT 3",
]


class TestSettingsMatrix:
    @pytest.fixture
    def wdb(self, db):
        db.execute("CREATE TABLE s(c int)")
        for i in range(0, 100, 3):
            db.execute("INSERT INTO s VALUES ($1)", (i,))
        db.execute("CREATE INDEX t_b ON t(b)")
        db.execute("CREATE INDEX s_c ON s(c)")
        return db

    @pytest.mark.parametrize("flag", PLAN_FLAGS)
    def test_flag_off_preserves_results(self, wdb, flag):
        baseline = [wdb.query_all(sql) for sql in WORKLOADS]
        wdb.execute(f"SET {flag} = off")
        assert wdb.execute(f"SHOW {flag}").scalar() == "off"
        for sql, expected in zip(WORKLOADS, baseline):
            assert wdb.query_all(sql) == expected, (flag, sql)
        wdb.execute(f"RESET {flag}")
        assert wdb.execute(f"SHOW {flag}").scalar() == "on"
        for sql, expected in zip(WORKLOADS, baseline):
            assert wdb.query_all(sql) == expected, (flag, sql)

    def test_overlay_reaches_function_body_plans(self, wdb):
        """Plan-affecting session overlays must apply to UDF *body* plans
        too (stamped like every other plan), in both directions: the
        session must not reuse a globally-planned body, and the global
        surface must not inherit a session-planned one."""
        from repro.sql.profiler import INDEX_RANGE_SCANS
        wdb.execute("CREATE FUNCTION span(lo int, hi int) RETURNS int AS "
                    "'SELECT count(*) FROM t WHERE b >= lo AND b <= hi' "
                    "LANGUAGE SQL")
        expected = wdb.query_value("SELECT span(10, 20)")  # body planned
        conn = wdb.connect()
        conn.execute("SET enable_rangescan = off")
        wdb.profiler.reset()
        assert conn.query_value("SELECT span(10, 20)") == expected
        assert wdb.profiler.counts[INDEX_RANGE_SCANS] == 0
        # ... and back on the global surface the range scan returns.
        wdb.profiler.reset()
        assert wdb.query_value("SELECT span(10, 20)") == expected
        assert wdb.profiler.counts[INDEX_RANGE_SCANS] > 0

    def test_session_overlay_flag_preserves_results(self, wdb):
        baseline = [wdb.query_all(sql) for sql in WORKLOADS]
        conn = wdb.connect()
        conn.execute("SET enable_rangescan = off")
        conn.execute("SET enable_hashjoin = off")
        for sql, expected in zip(WORKLOADS, baseline):
            assert conn.query_all(sql) == expected
        # ... while the global surface keeps its default plans and results.
        for sql, expected in zip(WORKLOADS, baseline):
            assert wdb.query_all(sql) == expected


# ---------------------------------------------------------------------------
# Connections: overlays, notices, lifecycle
# ---------------------------------------------------------------------------


class TestConnection:
    def test_overlay_is_per_session(self, db):
        first = db.connect()
        second = db.connect()
        first.execute("SET enable_topn = off")
        assert first.execute("SHOW enable_topn").scalar() == "off"
        assert second.execute("SHOW enable_topn").scalar() == "on"
        assert db.execute("SHOW enable_topn").scalar() == "on"
        assert db.settings.get("enable_topn") is True  # globals untouched

    def test_overlay_reset(self, db):
        conn = db.connect()
        conn.execute("SET max_udf_depth = 12")
        assert conn.get_setting("max_udf_depth") == 12
        conn.execute("RESET max_udf_depth")
        assert conn.get_setting("max_udf_depth") == 192

    def test_overlay_applied_during_execution(self, db):
        conn = db.connect()
        conn.execute("SET max_udf_depth = 3")
        db.execute("""CREATE FUNCTION rec(n int) RETURNS int AS
            'SELECT CASE WHEN n <= 0 THEN 0 ELSE rec(n - 1) END'
            LANGUAGE SQL""")
        with pytest.raises(ExecutionError, match="stack depth"):
            conn.execute("SELECT rec(10)")
        assert db.query_value("SELECT rec(10)") == 0  # global default depth

    def test_notices_are_per_session(self, db):
        db.execute("""CREATE FUNCTION say(n int) RETURNS int AS $$
            BEGIN RAISE NOTICE 'n is %', n; RETURN n; END;
            $$ LANGUAGE plpgsql""")
        conn = db.connect()
        conn.execute("SELECT say(5)")
        assert conn.notices == ["NOTICE: n is 5"]
        assert db.notices == []
        db.execute("SELECT say(6)")
        assert db.notices == ["NOTICE: n is 6"]
        assert conn.notices == ["NOTICE: n is 5"]

    def test_closed_connection_refuses_work(self, db):
        conn = db.connect()
        conn.close()
        with pytest.raises(ExecutionError, match="closed"):
            conn.execute("SELECT 1")
        with pytest.raises(ExecutionError, match="closed"):
            conn.cursor()

    def test_context_manager_closes(self, db):
        with db.connect() as conn:
            assert conn.execute("SELECT 1").scalar() == 1
        assert conn.closed

    def test_commit_rollback_are_noops(self, db):
        conn = db.connect()
        conn.execute("INSERT INTO t VALUES (500, 500)")
        conn.commit()
        conn.rollback()
        assert db.query_value("SELECT count(*) FROM t WHERE a = 500") == 1

    def test_set_local_on_connection_script(self, db):
        conn = db.connect()
        conn.execute("SET max_udf_depth = 50")
        conn.execute_script("SET LOCAL max_udf_depth = 5; SELECT 1")
        assert conn.get_setting("max_udf_depth") == 50
        assert db.settings.get("max_udf_depth") == 192


# ---------------------------------------------------------------------------
# Prepared statements
# ---------------------------------------------------------------------------


class TestPreparedStatements:
    def test_sql_prepare_execute_deallocate(self, db):
        db.execute("PREPARE q AS SELECT b FROM t WHERE a = $1 ORDER BY b")
        rows = db.execute("EXECUTE q(3)").rows
        assert rows == db.query_all(
            "SELECT b FROM t WHERE a = 3 ORDER BY b")
        db.execute("DEALLOCATE q")
        with pytest.raises(CatalogError, match="does not exist"):
            db.execute("EXECUTE q(3)")

    def test_execute_argument_expressions(self, db):
        db.execute("PREPARE q AS SELECT count(*) FROM t WHERE a = $1")
        assert db.execute("EXECUTE q(1 + 2)").scalar() == 10
        assert db.execute(
            "EXECUTE q((SELECT min(a) + 1 FROM t))").scalar() == 10
        # $n in EXECUTE arguments binds the *outer* call's parameters.
        assert db.execute("EXECUTE q($1)", [3]).scalar() == 10

    def test_arity_checked(self, db):
        db.execute("PREPARE q AS SELECT $1 + $2 FROM t LIMIT 1")
        with pytest.raises(ExecutionError, match="requires 2 parameters"):
            db.execute("EXECUTE q(1)")
        with pytest.raises(ExecutionError, match="requires 2 parameters"):
            db.execute("EXECUTE q(1, 2, 3)")
        assert db.execute("EXECUTE q(1, 2)").scalar() == 3

    def test_params_inside_over_clause_count_and_bind(self, db):
        """``$n`` in an inline window's ORDER BY and in a frame offset is
        part of the statement's arity like any other."""
        over = db.connect().prepare(
            "SELECT b, sum(b) OVER (ORDER BY b * $1) FROM t WHERE b < 3")
        assert over.param_count == 1
        assert sorted(over.execute([-1]).rows) == [(0, 3), (1, 3), (2, 2)]
        db.execute("PREPARE fr AS SELECT b, sum(b) OVER (ORDER BY b ROWS "
                   "BETWEEN $1 PRECEDING AND CURRENT ROW) FROM t WHERE b < $2")
        with pytest.raises(ExecutionError, match="requires 2 parameters"):
            db.execute("EXECUTE fr(1)")
        assert sorted(db.execute("EXECUTE fr(1, 4)").rows) == [
            (0, 0), (1, 1), (2, 3), (3, 5)]

    def test_declared_types_fix_arity(self, db):
        db.execute("PREPARE q(int, int) AS SELECT $1 FROM t LIMIT 1")
        with pytest.raises(ExecutionError, match="requires 2 parameters"):
            db.execute("EXECUTE q(1)")
        assert db.execute("EXECUTE q(7, 8)").scalar() == 7
        with pytest.raises(PlanError, match="declares only"):
            db.execute("PREPARE p(int) AS SELECT $2 FROM t")

    def test_declared_types_coerce_arguments(self, db):
        db.execute("PREPARE q(int) AS SELECT $1 + 1")
        assert db.execute("EXECUTE q('2')").scalar() == 3
        db.execute("PREPARE r(text) AS SELECT $1 || '!'")
        assert db.execute("EXECUTE r(5)").scalar() == "5!"

    def test_duplicate_name_rejected(self, db):
        db.execute("PREPARE q AS SELECT 1")
        with pytest.raises(CatalogError, match="already exists"):
            db.execute("PREPARE q AS SELECT 2")

    def test_deallocate_all_and_missing(self, db):
        db.execute("PREPARE q1 AS SELECT 1")
        db.execute("PREPARE q2 AS SELECT 2")
        db.execute("DEALLOCATE ALL")
        with pytest.raises(CatalogError):
            db.execute("EXECUTE q1")
        with pytest.raises(CatalogError):
            db.execute("DEALLOCATE q2")

    def test_only_select_and_dml_preparable(self, db):
        with pytest.raises(PlanError, match="cannot prepare"):
            db.execute("PREPARE q AS CREATE TABLE u(x int)")

    @pytest.mark.parametrize("door", [
        lambda conn: conn.execute("PREPARE x AS BEGIN"),
        lambda conn: conn.prepare("BEGIN"),
        lambda conn: conn.execute("EXPLAIN BEGIN"),
        lambda conn: conn.cursor().executemany("BEGIN", [()]),
    ], ids=["PREPARE", "prepare", "EXPLAIN", "executemany"])
    def test_planned_kinds_only_is_one_check(self, db, door):
        """Every door that takes plans only refuses a BEGIN in the
        statement record's constructor, before anything runs."""
        conn = db.connect()
        with pytest.raises(PlanError, match=r"cannot \w+ a BeginStmt; only "
                           "SELECT, INSERT, UPDATE and DELETE have plans"
                           ) as caught:
            door(conn)
        assert caught.traceback[-1].frame.code.raw is \
            Statement.__init__.__code__
        assert not conn.in_transaction and conn.prepared_names == []

    def test_prepared_dml(self, db):
        db.execute("PREPARE ins AS INSERT INTO t VALUES ($1, $2)")
        db.execute("PREPARE upd AS UPDATE t SET b = $2 WHERE a = $1")
        db.execute("PREPARE del AS DELETE FROM t WHERE a = $1")
        assert db.execute("EXECUTE ins(777, 1)").rows == [(1,)]
        assert db.execute("EXECUTE upd(777, 42)").rows == [(1,)]
        assert db.query_value("SELECT b FROM t WHERE a = 777") == 42
        assert db.execute("EXECUTE del(777)").rows == [(1,)]

    def test_prepared_registry_is_per_session(self, db):
        conn = db.connect()
        conn.execute("PREPARE q AS SELECT 1")
        assert conn.execute("EXECUTE q").scalar() == 1
        with pytest.raises(CatalogError, match="does not exist"):
            db.execute("EXECUTE q")

    def test_programmatic_prepare(self, db):
        conn = db.connect()
        ps = conn.prepare("SELECT sum(b) FROM t WHERE a = $1")
        expected = db.query_value("SELECT sum(b) FROM t WHERE a = 4")
        assert ps.execute([4]).scalar() == expected
        assert ps.name in conn.prepared_names
        assert conn.execute(f"EXECUTE {ps.name}(4)").scalar() == expected
        ps.deallocate()
        assert ps.name not in conn.prepared_names

    def test_programmatic_prepare_names(self, db):
        conn = db.connect()
        named = conn.prepare("PREPARE twice(int) AS SELECT $1 * 2")
        assert named.name == "twice" and named.execute([4]).scalar() == 8
        conn.execute("PREPARE _stmt1 AS SELECT 1")
        anonymous = conn.prepare("SELECT 2")
        assert anonymous.name not in ("twice", "_stmt1")
        assert conn.execute(f"EXECUTE {anonymous.name}").scalar() == 2
        assert "PreparedStatement('twice', SelectStmt, params=1)" == \
            repr(named)

    def test_prepared_execution_counter(self, db):
        db.execute("PREPARE q AS SELECT 1")
        db.profiler.reset()
        db.execute("EXECUTE q")
        db.execute("EXECUTE q")
        assert db.profiler.counts[PREPARED_EXECUTIONS] == 2

    def test_prepared_plan_instantiates_without_replanning(self, db):
        conn = db.connect()
        ps = conn.prepare("SELECT b FROM t WHERE a = $1")
        ps.execute([1])
        db.profiler.reset()
        for i in range(5):
            ps.execute([i % 10])
        assert db.profiler.counts[PLAN_INSTANTIATIONS] == 5
        assert db.profiler.counts[PREPARED_REPLANS] == 0
        assert db.profiler.counts[PLAN_CACHE_MISS] == 0


class TestPreparedVsDdl:
    """PREPARE then DDL: handles must replan (new access paths visible in
    EXPLAIN EXECUTE) or raise a clean error — never stale results."""

    def test_create_index_makes_new_access_path_visible(self, db):
        db.execute("PREPARE q AS SELECT b FROM t ORDER BY b LIMIT 3")
        before = db.explain("EXECUTE q")
        assert "TopN" in before          # no declared index: bounded heap
        assert "IndexRangeScan" not in before
        expected = db.execute("EXECUTE q").rows
        db.execute("CREATE INDEX t_b ON t(b)")
        after = db.explain("EXECUTE q")
        assert "TopN" not in after       # sort eliminated via the new index
        assert "IndexRangeScan" in after
        assert db.execute("EXECUTE q").rows == expected

    def test_drop_index_replans_back(self, db):
        db.execute("CREATE INDEX t_b ON t(b)")
        db.execute("PREPARE q AS SELECT b FROM t ORDER BY b LIMIT 3")
        assert "IndexRangeScan" in db.explain("EXECUTE q")
        expected = db.execute("EXECUTE q").rows
        db.profiler.reset()
        db.execute("DROP INDEX t_b")
        assert "TopN" in db.explain("EXECUTE q")
        assert db.execute("EXECUTE q").rows == expected
        assert db.profiler.counts[PREPARED_REPLANS] == 1

    def test_drop_table_raises_clean_error(self, db):
        db.execute("PREPARE q AS SELECT count(*) FROM t")
        assert db.execute("EXECUTE q").scalar() == 100
        db.execute("DROP TABLE t")
        with pytest.raises(NameResolutionError, match="unknown table"):
            db.execute("EXECUTE q")
        # A failed replan must not linger: recreate and execute cleanly.
        db.execute("CREATE TABLE t(a int, b int)")
        assert db.execute("EXECUTE q").scalar() == 0

    def test_replace_function_replans_to_new_body(self, db):
        db.execute("CREATE FUNCTION f(n int) RETURNS int AS "
                   "'SELECT n + 1' LANGUAGE SQL")
        db.execute("PREPARE q AS SELECT f(a) FROM t WHERE b = $1")
        assert db.execute("EXECUTE q(7)").rows == [(8,)]
        db.execute("CREATE OR REPLACE FUNCTION f(n int) RETURNS int AS "
                   "'SELECT n * 100' LANGUAGE SQL")
        assert db.execute("EXECUTE q(7)").rows == [(700,)]

    def test_plan_affecting_set_replans_prepared(self, db):
        db.execute("CREATE INDEX t_b ON t(b)")
        db.execute("PREPARE q AS SELECT b FROM t WHERE b >= $1 AND b <= $2")
        expected = db.execute("EXECUTE q(10, 20)").rows
        assert "IndexRangeScan" in db.explain("EXECUTE q")
        db.execute("SET enable_rangescan = off")
        assert "IndexRangeScan" not in db.explain("EXECUTE q")
        assert db.execute("EXECUTE q(10, 20)").rows == expected
        db.execute("RESET enable_rangescan")
        assert "IndexRangeScan" in db.explain("EXECUTE q")

    def test_explain_execute_of_dml_shows_its_plan(self, db):
        db.execute("PREPARE ins AS INSERT INTO t VALUES ($1, $2)")
        assert db.explain("EXECUTE ins").startswith("-> Insert on t")

    def test_prepared_dml_carries_its_plan_under_the_plan_stamp(self, db):
        """A DML handle is planned once and replans exactly when a SELECT
        handle would: DDL or a plan-affecting SET moved the stamp."""
        db.execute("CREATE INDEX t_b ON t(b)")
        handle = db.connect().prepare(
            "UPDATE t SET b = b WHERE b >= $1 AND b <= $2")
        db.profiler.reset()
        for _ in range(3):
            assert handle.execute([10, 20]).scalar() == \
                db.query_value("SELECT count(*) FROM t "
                               "WHERE b >= 10 AND b <= 20")
        assert db.profiler.counts[PREPARED_REPLANS] == 0
        assert "IndexRangeScan" in handle.explain()
        db.execute("SET enable_rangescan = off")
        assert "IndexRangeScan" not in handle.explain()
        assert db.profiler.counts[PREPARED_REPLANS] == 1
        db.execute("RESET enable_rangescan")
        db.execute("DROP INDEX t_b")
        handle.execute([10, 20])
        assert db.profiler.counts[PREPARED_REPLANS] == 2


# ---------------------------------------------------------------------------
# Cursor (PEP-249 shape)
# ---------------------------------------------------------------------------


class TestCursor:
    def test_description_and_fetch(self, db):
        cur = db.connect().cursor()
        cur.execute("SELECT a, b FROM t ORDER BY b LIMIT 3")
        assert [col[0] for col in cur.description] == ["a", "b"]
        assert all(len(col) == 7 for col in cur.description)
        assert cur.rowcount == 3
        assert cur.fetchone() == (0, 0)
        assert cur.fetchmany(2) == [(1, 1), (2, 2)]
        assert cur.fetchone() is None
        assert cur.fetchall() == []

    def test_fetchmany_uses_arraysize(self, db):
        cur = db.connect().cursor()
        cur.arraysize = 4
        cur.execute("SELECT b FROM t ORDER BY b LIMIT 10")
        assert len(cur.fetchmany()) == 4

    def test_iteration(self, db):
        cur = db.connect().cursor()
        cur.execute("SELECT b FROM t ORDER BY b LIMIT 4")
        assert [row[0] for row in cur] == [0, 1, 2, 3]

    def test_execute_chains(self, db):
        cur = db.connect().cursor()
        assert cur.execute("SELECT 1").fetchall() == [(1,)]

    def test_dml_rowcount_and_no_result_set(self, db):
        cur = db.connect().cursor()
        cur.execute("UPDATE t SET b = b WHERE a < 3")
        assert cur.rowcount == 30
        assert cur.description is None
        with pytest.raises(ExecutionError, match="no result set"):
            cur.fetchone()

    def test_utility_rowcount_is_minus_one(self, db):
        cur = db.connect().cursor()
        cur.execute("CREATE TABLE u(x int)")
        assert cur.rowcount == -1
        assert cur.description is None

    def test_closed_cursor_refuses(self, db):
        cur = db.connect().cursor()
        cur.close()
        with pytest.raises(ExecutionError, match="cursor is closed"):
            cur.execute("SELECT 1")

    def test_executemany_insert_is_one_bulk_insert(self, db):
        db.execute("CREATE TABLE u(x int, y int)")
        db.execute("CREATE INDEX u_x ON u(x)")
        cur = db.connect().cursor()
        db.profiler.reset()
        cur.executemany("INSERT INTO u VALUES ($1, $2)",
                        [(i, i * i) for i in range(50)])
        assert cur.rowcount == 50
        # The source plan was built once for the whole batch ...
        assert db.profiler.counts[PLAN_INSTANTIATIONS] == 50
        assert db.profiler.times.get("Plan", 0) >= 0
        # ... and the sorted index saw one bulk maintenance pass that kept
        # it consistent (ordered delivery still correct).
        assert db.query_all("SELECT x FROM u ORDER BY x LIMIT 3") == \
            [(0,), (1,), (2,)]
        assert db.query_value("SELECT count(*) FROM u") == 50

    def test_executemany_insert_multi_row_values(self, db):
        db.execute("CREATE TABLE u(x int)")
        cur = db.connect().cursor()
        cur.executemany("INSERT INTO u VALUES ($1), ($1 + 100)",
                        [(1,), (2,)])
        assert cur.rowcount == 4
        assert db.query_all("SELECT x FROM u ORDER BY x") == \
            [(1,), (2,), (101,), (102,)]

    def test_executemany_self_referential_insert_sees_prior_sets(self, db):
        """An INSERT source reading the target table keeps loop-of-execute
        semantics: each parameter set sees the rows earlier sets produced
        (no pre-batch snapshot divergence)."""
        db.execute("CREATE TABLE u(x int)")
        cur = db.connect().cursor()
        cur.executemany("INSERT INTO u SELECT count(*) + $1 FROM u",
                        [(0,), (0,), (0,)])
        assert db.query_all("SELECT x FROM u ORDER BY x") == \
            [(0,), (1,), (2,)]

    def test_executemany_update_sums_counts(self, db):
        cur = db.connect().cursor()
        cur.executemany("UPDATE t SET b = b + 1000 WHERE a = $1",
                        [(0,), (1,), (2,)])
        assert cur.rowcount == 30

    def test_executemany_validates_before_any_row_lands(self, db):
        db.execute("CREATE TABLE u(x int, y int)")
        cur = db.connect().cursor()
        # A short parameter set fails while materializing the batch ...
        with pytest.raises(ExecutionError, match="no value supplied"):
            cur.executemany("INSERT INTO u VALUES ($1, $2)",
                            [(1, 2), (3,)])
        # ... and a row-width mismatch fails INSERT validation; neither
        # leaves earlier sets of the batch in the heap.
        with pytest.raises(ExecutionError, match="INSERT expects"):
            cur.executemany("INSERT INTO u(x) VALUES ($1, $2)",
                            [(1, 2), (3, 4)])
        assert db.query_value("SELECT count(*) FROM u") == 0

    def test_cursor_context_manager(self, db):
        with db.connect().cursor() as cur:
            cur.execute("SELECT 1")
        with pytest.raises(ExecutionError):
            cur.fetchone()


class TestShowThroughCursor:
    def test_show_is_a_result_set(self, db):
        cur = db.connect().cursor()
        cur.execute("SHOW enable_topn")
        assert cur.description[0][0] == "enable_topn"
        assert cur.fetchone() == ("on",)

    def test_explain_is_a_result_set(self, db):
        cur = db.connect().cursor()
        cur.execute("EXPLAIN SELECT a FROM t WHERE a = 1")
        assert cur.description[0][0] == "QUERY PLAN"
        assert any("Select" in row[0] for row in cur.fetchall())


# ---------------------------------------------------------------------------
# Rolled-back DDL must not poison prepared-statement stamps (PR regression)
# ---------------------------------------------------------------------------


class TestRolledBackDdlStamps:
    def test_rolled_back_create_index_does_not_force_replan(self, db):
        """DDL inside an aborted block restores the DDL-generation stamp:
        a handle planned before BEGIN must keep serving its plan (no
        spurious replan) and keep returning correct results."""
        conn = db.connect()
        ps = conn.prepare("SELECT b FROM t WHERE a = $1 ORDER BY b")
        before = ps.execute([3]).rows
        db.profiler.reset()
        conn.execute("BEGIN")
        conn.execute("CREATE INDEX t_b ON t(b)")
        conn.execute("ROLLBACK")
        assert ps.execute([3]).rows == before
        assert db.profiler.counts[PREPARED_REPLANS] == 0
        assert "t_b" not in db.catalog.indexes

    def test_rolled_back_drop_table_restores_serving_handle(self, db):
        """DROP TABLE undone by ROLLBACK re-registers the table object and
        its dependent declared indexes; a pre-BEGIN handle neither crashes
        nor serves stale structures."""
        db.execute("CREATE INDEX t_b ON t(b)")
        conn = db.connect()
        ps = conn.prepare("SELECT b FROM t WHERE b >= 95 ORDER BY b")
        before = ps.execute([]).rows
        db.profiler.reset()
        conn.execute("BEGIN")
        conn.execute("DROP TABLE t")
        conn.execute("ROLLBACK")
        assert "t_b" in db.catalog.indexes
        assert ps.execute([]).rows == before
        assert db.profiler.counts[PREPARED_REPLANS] == 0

    def test_committed_ddl_still_invalidates(self, db):
        """The restore path must not over-reach: DDL that commits moves
        the generation and stale handles replan as before."""
        conn = db.connect()
        ps = conn.prepare("SELECT b FROM t WHERE a = $1 ORDER BY b")
        ps.execute([3])
        db.profiler.reset()
        conn.execute("BEGIN")
        conn.execute("CREATE INDEX t_a ON t(a)")
        conn.execute("COMMIT")
        ps.execute([3])
        assert db.profiler.counts[PREPARED_REPLANS] == 1

    def test_foreign_ddl_during_block_keeps_fresh_generation(self, db):
        """Another session's committed DDL interleaved with our aborted
        block must win: the stamp is NOT restored over it."""
        conn = db.connect()
        other = db.connect()
        ps = conn.prepare("SELECT count(b) FROM t")
        ps.execute([])
        conn.execute("BEGIN")
        conn.execute("CREATE INDEX t_b ON t(b)")
        other.execute("CREATE INDEX o_a ON t(a)")   # autocommits
        conn.execute("ROLLBACK")
        assert "o_a" in db.catalog.indexes
        assert "t_b" not in db.catalog.indexes
        db.profiler.reset()
        ps.execute([])
        assert db.profiler.counts[PREPARED_REPLANS] == 1
