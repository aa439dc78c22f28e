"""The paper's four workloads: oracles, equivalence, and scenario pieces."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads import make_parseable_input
from repro.workloads.fibonacci import fibonacci_reference
from repro.workloads.parser_fsm import csv_number_fsm
from repro.workloads.robot import (default_grid, random_grid, value_iteration,
                                   walk_reference)


class TestMdp:
    def test_value_iteration_covers_all_cells(self):
        grid = default_grid()
        policy = value_iteration(grid)
        assert set(policy) == set(grid.cells())
        assert set(policy.values()) <= {"up", "down", "left", "right"}

    def test_transition_probabilities_sum_to_one(self):
        grid = default_grid()
        for cell in grid.cells():
            for action in ("up", "down", "left", "right"):
                total = sum(grid.transition(cell, action).values())
                assert total == pytest.approx(1.0)

    def test_walls_bounce_back(self):
        grid = default_grid()
        # (4,1) is a wall; stepping right from (3,1) can bounce back
        outcomes = grid.transition((3, 1), "right")
        assert (4, 1) not in outcomes
        assert (3, 1) in outcomes

    def test_policy_prefers_reward(self):
        # a tiny 1x3 grid with a prize on the right must walk right
        from repro.workloads.robot import GridWorld
        grid = GridWorld(3, 1, {(0, 0): 0, (1, 0): 0, (2, 0): 5})
        policy = value_iteration(grid)
        assert policy[(0, 0)] == "right"
        assert policy[(1, 0)] == "right"


class TestWalk:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("win,loose,steps", [(10, -10, 30), (3, -3, 50),
                                                 (10**6, -(10**6), 20)])
    def test_three_way_equivalence(self, demo, seed, win, loose, steps):
        db = demo.db
        db.reseed(seed)
        interp = db.query_value(
            "SELECT walk(row(0,0)::coord, $1, $2, $3)", [win, loose, steps])
        db.reseed(seed)
        compiled = db.query_value(
            "SELECT walk_c(row(0,0)::coord, $1, $2, $3)", [win, loose, steps])
        db.reseed(seed)
        iterate = db.query_value(
            "SELECT walk_it(row(0,0)::coord, $1, $2, $3)", [win, loose, steps])
        oracle = walk_reference(db, demo.grid, (0, 0), win, loose, steps, seed)
        assert interp == compiled == iterate == oracle

    def test_zero_steps_is_draw(self, demo):
        assert demo.db.query_value(
            "SELECT walk_c(row(0,0)::coord, 5, -5, 0)") == 0

    def test_sign_encodes_outcome(self, demo):
        db = demo.db
        # loose threshold 0: first negative reward ends the walk negatively
        db.reseed(1)
        value = db.query_value("SELECT walk_c(row(0,0)::coord, 1000, -1, 50)")
        assert value != 0

    @settings(max_examples=5, deadline=None)
    @given(st.integers(0, 10**6))
    def test_random_grids_property(self, seed):
        from repro.compiler import compile_plsql
        from repro.sql import Database
        from repro.workloads.robot import WALK_SOURCE, setup_robot
        db = Database()
        grid = setup_robot(db, random_grid(seed))
        compile_plsql(WALK_SOURCE, db).register(db, name="walk_c")
        db.reseed(seed)
        interp = db.query_value(
            "SELECT walk(row(0,0)::coord, 8, -8, 25)")
        db.reseed(seed)
        compiled = db.query_value(
            "SELECT walk_c(row(0,0)::coord, 8, -8, 25)")
        assert interp == compiled
        assert interp == walk_reference(db, grid, (0, 0), 8, -8, 25, seed)


class TestParse:
    def test_fsm_oracle_accepts_generated_input(self):
        fsm = csv_number_fsm()
        for seed in range(5):
            text = make_parseable_input(30, seed=seed)
            assert fsm.run(text) == 30

    def test_fsm_rejects_bad_char(self):
        fsm = csv_number_fsm()
        assert fsm.run("12x") == -3
        assert fsm.run("12,") == -4  # dangles in non-accepting state

    @pytest.mark.parametrize("length", [0, 1, 10, 120])
    def test_equivalence_on_valid_input(self, demo, length):
        db = demo.db
        text = make_parseable_input(length, seed=length) if length else ""
        interp = db.query_value("SELECT parse($1)", [text])
        compiled = db.query_value("SELECT parse_c($1)", [text])
        iterate = db.query_value("SELECT parse_it($1)", [text])
        assert interp == compiled == iterate == demo.fsm.run(text)

    @pytest.mark.parametrize("text", ["abc", "1..2", "-", "1,,2", "+x"])
    def test_equivalence_on_invalid_input(self, demo, text):
        db = demo.db
        interp = db.query_value("SELECT parse($1)", [text])
        compiled = db.query_value("SELECT parse_c($1)", [text])
        assert interp == compiled == demo.fsm.run(text)

    @settings(max_examples=20, deadline=None)
    @given(st.text(alphabet="0123456789.,+-x", max_size=25))
    def test_arbitrary_strings_property(self, demo, text):
        db = demo.db
        assert db.query_value("SELECT parse($1)", [text]) == \
            db.query_value("SELECT parse_c($1)", [text]) == \
            demo.fsm.run(text)


class TestTraverse:
    @pytest.mark.parametrize("start,hops", [(0, 0), (0, 10), (5, 33), (63, 7)])
    def test_equivalence(self, demo, start, hops):
        db = demo.db
        interp = db.query_value("SELECT traverse($1, $2)", [start, hops])
        compiled = db.query_value("SELECT traverse_c($1, $2)", [start, hops])
        oracle = demo.graph.traverse_reference(start, hops)
        assert interp == compiled == oracle

    def test_dead_end_returns_partial_sum(self, db):
        from repro.compiler import compile_plsql
        from repro.workloads.graph import (PARAMETRIC_TRAVERSE_SOURCE, Digraph,
                                           setup_graph)
        graph = Digraph(3, [(0, 1, 1.0), (1, 2, 1.0)])  # 2 is a dead end
        setup_graph(db, graph)
        compile_plsql(PARAMETRIC_TRAVERSE_SOURCE, db).register(
            db, name="traverse_c")
        assert db.query_value("SELECT traverse(0, 10)") == 3  # 1 + 2
        assert db.query_value("SELECT traverse_c(0, 10)") == 3


class TestFibonacci:
    @pytest.mark.parametrize("n", [0, 1, 2, 10, 40])
    def test_equivalence(self, demo, n):
        db = demo.db
        assert db.query_value(f"SELECT fibonacci({n})") == \
            db.query_value(f"SELECT fibonacci_c({n})") == \
            fibonacci_reference(n)

    def test_no_embedded_queries(self, demo):
        db = demo.db
        db.query_value("SELECT fibonacci(5)")
        db.profiler.reset()
        db.profiler.enabled = True
        try:
            db.query_value("SELECT fibonacci(20)")
        finally:
            db.profiler.enabled = False
        assert db.profiler.counts.get("switch f->Q", 0) == 0


class TestLoader:
    def test_demo_database_contains_everything(self, demo):
        db = demo.db
        for table in ("cells", "policy", "actions", "fsm", "fsm_accept",
                      "edges"):
            assert db.catalog.has_table(table), table
        for fn in ("walk", "parse", "traverse", "fibonacci"):
            assert db.catalog.get_function(fn) is not None
            assert db.catalog.get_function(fn + "_c") is not None
        assert demo.compiled["walk"].is_recursive

    def test_tables_match_figure2_shape(self, demo):
        db = demo.db
        grid = demo.grid
        cell_count = len(grid.cells())
        assert db.query_value("SELECT count(*) FROM cells") == cell_count
        assert db.query_value("SELECT count(*) FROM policy") == cell_count
        # every (here, action) pair has a probability distribution summing 1
        rows = db.query_all(
            "SELECT here, action, sum(prob) FROM actions GROUP BY here, action")
        assert len(rows) == cell_count * 4
        for _here, _action, total in rows:
            assert total == pytest.approx(1.0)

    def test_compiled_sql_is_the_same_in_every_process(self):
        """The paper's artifact is a text: compiling the four functions in
        two processes with different hash seeds must give the same SQL
        byte for byte (phi placement once iterated a set of names, so the
        parameter order of the ANF functions - Qf's column order - came
        out of the hash seed)."""
        script = (
            "from repro.compiler import compile_plsql\n"
            "from repro.sql.errors import CompileError\n"
            "from repro.workloads import WORKLOADS, build_demo_database\n"
            "db = build_demo_database(compile_functions=False).db\n"
            "for name, source in sorted(WORKLOADS.items()):\n"
            "    compiled = compile_plsql(source, db)\n"
            "    print(f'-- {name} udf_sql')\n"
            "    print(compiled.udf_sql())\n"
            "    for dialect in ('postgres', 'sqlite'):\n"
            "        try:\n"
            "            text = compiled.sql(dialect)\n"
            "        except CompileError as error:\n"
            "            text = f'CompileError: {error}'\n"
            "        print(f'-- {name} {dialect} sql')\n"
            "        print(text)\n")
        src = str(Path(__file__).resolve().parent.parent / "src")
        outputs = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            outputs.append(subprocess.run(
                [sys.executable, "-c", script], env=env, check=True,
                capture_output=True).stdout)
        assert outputs[0] == outputs[1]
        assert outputs[0].count(b"WITH RECURSIVE") >= 4


class TestInputGenerator:
    @given(st.integers(0, 300))
    @settings(max_examples=30, deadline=None)
    def test_exact_length_and_valid(self, n):
        fsm = csv_number_fsm()
        text = make_parseable_input(n, seed=n)
        assert len(text) == n
        if n:
            assert fsm.run(text) == n
