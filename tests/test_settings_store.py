"""One settings store, one plan stamp.

Three groups: the invalidation rule (a function-body plan is valid for the
``Database.plan_stamp()`` it was built under and for nothing else, so
sessions with different flags never evict each other's), the store's
completeness (checked from the declarations, not from a hand-kept list),
and the contract with the frozen end-to-end benchmark (the names its tracer
patches, the one attribute its server assigns).
"""

from __future__ import annotations

import importlib
import importlib.util
import re
from pathlib import Path

import pytest

from repro.compiler import compile_plsql
from repro.server.handler import run_script
from repro.server.telemetry import Telemetry
from repro.sql import Database
from repro.sql import planner as planner_module
from repro.sql.planner import Planner
from repro.sql.settings import DEFAULTS, SETTINGS

REPO = Path(__file__).resolve().parent.parent

GCD = """CREATE FUNCTION gcd(a int, b int) RETURNS int AS $$
DECLARE t int;
BEGIN
  WHILE b <> 0 LOOP t := b; b := a % b; a := t; END LOOP;
  RETURN a;
END; $$ LANGUAGE plpgsql"""


@pytest.fixture
def db():
    database = Database()
    database.execute(GCD)
    compile_plsql(GCD, database).register(database, name="gcd_c")
    database.execute("CREATE TABLE pairs(a int, b int)")
    database.execute("INSERT INTO pairs VALUES (12, 18), (7, 13), (9, 6)")
    return database


@pytest.fixture
def machine_compiles(monkeypatch):
    """Counts ``compile_machine`` calls (the trampoline's plan step)."""
    calls = []
    real = planner_module.compile_machine

    def counting(machine, planner):
        calls.append(machine)
        return real(machine, planner)

    monkeypatch.setattr(planner_module, "compile_machine", counting)
    return calls


def rows_of(outputs):
    [(_kind, _columns, rows, _tag)] = [o for o in outputs if o[0] == "rows"]
    return rows


# ---------------------------------------------------------------------------
# the invalidation rule
# ---------------------------------------------------------------------------


class TestFunctionBodyPlansAreStamped:
    QUERY = "SELECT a, gcd_c(a, b) FROM pairs"

    def test_override_session_compiles_the_machine_once(
            self, db, machine_compiles):
        """A session holding an unrelated plan-affecting override used to
        drop every function-body plan on entry and on exit of every
        statement; now its stamp simply has its own entry."""
        telemetry = Telemetry(db)
        session = db.connect()
        run_script(session, "SET enable_topn = off", telemetry)
        answers = [rows_of(run_script(session, self.QUERY, telemetry))
                   for _ in range(5)]
        assert len(machine_compiles) == 1
        assert answers[0] == [("12", "6"), ("7", "1"), ("9", "3")]
        assert all(answer == answers[0] for answer in answers)

    def test_alternating_sessions_keep_their_own_plans(
            self, db, machine_compiles):
        telemetry = Telemetry(db)
        default, override = db.connect(), db.connect()
        run_script(override, "SET enable_topn = off", telemetry)
        for _ in range(4):
            for session in (default, override):
                run_script(session, self.QUERY, telemetry)
        assert len(machine_compiles) == 2     # one per fingerprint
        fdef = db.catalog.get_function("gcd_c")
        assert len(fdef.body_plans) == 2

    def test_batch_compiled_on_and_off_interleaved(self, db):
        where = "SELECT a FROM pairs WHERE gcd_c(a, b) > 1 ORDER BY a"
        on, off = db.connect(), db.connect()
        off.execute("SET batch_compiled = off")
        for _ in range(3):
            plan_on = "\n".join(
                row[0] for row in on.execute("EXPLAIN " + where).rows)
            plan_off = "\n".join(
                row[0] for row in off.execute("EXPLAIN " + where).rows)
            assert "Trampoline gcd_c" in plan_on
            assert "Trampoline" not in plan_off     # Qf inlined at the site
            assert "BatchedUdf" in "\n".join(
                row[0] for row in on.execute("EXPLAIN " + self.QUERY).rows)
            assert "BatchedUdf" not in "\n".join(
                row[0] for row in off.execute("EXPLAIN " + self.QUERY).rows)
            assert on.query_all(where) == off.query_all(where) \
                == [(9,), (12,)]
            assert on.query_all(self.QUERY) == off.query_all(self.QUERY)

    def test_sql_and_plpgsql_bodies_follow_the_session(self, db):
        """The other two kinds of function-body plan (LANGUAGE SQL plan,
        PL/pgSQL runtime) sit in the same stamped table."""
        db.execute("CREATE FUNCTION twice(n int) RETURNS int AS "
                   "'SELECT n * 2' LANGUAGE SQL")
        override = db.connect()
        override.execute("SET enable_hashjoin = off")
        for name, call in (("twice", "twice(4)"), ("gcd", "gcd(12, 18)")):
            fdef = db.catalog.get_function(name)
            expected = db.query_value(f"SELECT {call}")
            assert override.query_value(f"SELECT {call}") == expected
            assert db.query_value(f"SELECT {call}") == expected
            assert len(fdef.body_plans) == 2
            kept = dict(fdef.body_plans)
            override.query_value(f"SELECT {call}")
            assert fdef.body_plans == kept
            assert all(plan is kept[stamp]
                       for stamp, plan in fdef.body_plans.items())

    def test_ddl_starts_a_new_generation(self, db, machine_compiles):
        db.query_all(self.QUERY)
        db.execute("CREATE TABLE other(x int)")
        assert db.catalog.get_function("gcd_c").body_plans == {}
        db.query_all(self.QUERY)
        assert len(machine_compiles) == 2

    def test_rolled_back_generation_is_never_handed_out_again(self, db):
        """A handle planned inside a transaction whose DDL is rolled back
        carries a stamp of a generation that must not come true again when
        later DDL moves the (restored) generation forward."""
        conn = db.connect()
        before = db._plan_generation
        conn.execute("BEGIN")
        conn.execute("CREATE INDEX pairs_a ON pairs(a)")
        handle = conn.prepare("SELECT a FROM pairs ORDER BY a")
        assert handle.execute().rows == [(7,), (9,), (12,)]
        assert "order by a" in handle.explain()     # reads the new index
        conn.execute("ROLLBACK")
        assert db._plan_generation == before     # pre-BEGIN handles stay valid
        db.execute("CREATE TABLE other(x int)")
        assert "Sort" in handle.explain()           # the index is gone
        assert handle.execute().rows == [(7,), (9,), (12,)]


# ---------------------------------------------------------------------------
# completeness, from the declarations
# ---------------------------------------------------------------------------


class TestOneStore:
    def test_no_object_carries_a_setting_as_an_attribute(self, db):
        names = {setting.name for setting in SETTINGS}
        assert len(names) == len(db.settings.names()) == 15
        for obj in (db, db.planner):
            slots = getattr(type(obj), "__slots__", ())
            carried = (set(getattr(obj, "__dict__", {})) | set(slots)) & names
            assert carried == set(), (type(obj).__name__, carried)
        on_classes = {name for cls in (Database, Planner)
                      for name in vars(cls) if name in names}
        assert on_classes == {"wal_checkpoint_interval"}
        with pytest.raises(AttributeError):
            setattr(db.planner, "enable_topn", False)

    def test_every_setting_is_in_the_fingerprint_or_declared_not_plan_affecting(
            self):
        for setting in SETTINGS:
            if setting.type == "int":
                other = setting.default + 1
            else:
                [other] = [value for value in setting.enumerable_values()
                           if value != setting.default][:1]
            changed = DEFAULTS.replace(**{setting.name: other})
            assert getattr(changed, setting.name) == other
            assert (changed.fingerprint != DEFAULTS.fingerprint) \
                == setting.plan_affecting, setting.name
        assert len(DEFAULTS.fingerprint) \
            == sum(setting.plan_affecting for setting in SETTINGS)
        assert set(DEFAULTS._fields) \
            == {setting.name for setting in SETTINGS} | {"fingerprint"}

    def test_session_values_are_recomputed_only_when_a_side_changed(self, db):
        conn = db.connect()
        assert conn._values() is db.settings.globals
        conn.execute("SET enable_topn = off")
        values = conn._values()
        assert values.enable_topn is False and values is conn._values()
        db.execute("SET max_udf_depth = 7")       # the globals moved
        assert conn._values() is not values
        assert conn.get_setting("max_udf_depth") == 7
        assert conn.get_setting("enable_topn") is False
        assert db.settings.active is db.settings.globals   # between statements


# ---------------------------------------------------------------------------
# the contract with benchmarks/e2e (frozen: it cannot follow a rename)
# ---------------------------------------------------------------------------


def _load_tracing():
    path = REPO / "benchmarks" / "e2e" / "tracing.py"
    spec = importlib.util.spec_from_file_location("e2e_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_entry_point_resolves():
    """``benchmarks/e2e/tracing.py`` patches these names with ``getattr`` /
    ``setattr``; one that no longer resolves kills the benchmark, so it
    fails here first."""
    entry_points = _load_tracing().ENTRY_POINTS
    assert len(entry_points) >= 20
    for module_name, owner_path, attr, span, _layer in entry_points:
        owner = importlib.import_module(module_name)
        for part in (owner_path.split(".") if owner_path else ()):
            owner = getattr(owner, part)
        assert callable(getattr(owner, attr)), span


def test_serve_py_assignment_reaches_the_store(tmp_path):
    """``benchmarks/e2e/serve.py`` sets the auto-checkpoint threshold with
    ``db.wal_checkpoint_interval = N`` - the one attribute spelling kept."""
    serve = (REPO / "benchmarks" / "e2e" / "serve.py").read_text()
    assert re.search(r"^\s*db\.wal_checkpoint_interval = ", serve, re.M)
    db = Database(path=str(tmp_path / "wal.jsonl"))
    db.wal_checkpoint_interval = 7
    assert db.execute("SHOW wal_checkpoint_interval").scalar() == "7"
    assert db.connect().execute(
        "SHOW wal_checkpoint_interval").scalar() == "7"
    assert db.wal_checkpoint_interval == 7
    db.execute("CREATE TABLE t(x int)")
    for i in range(10):
        db.execute("INSERT INTO t VALUES ($1)", (i,))
    from repro.sql.profiler import WAL_CHECKPOINTS
    assert db.profiler.counts[WAL_CHECKPOINTS] >= 1
    db.wal.close()
