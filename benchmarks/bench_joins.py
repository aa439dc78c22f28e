"""Join-strategy benchmark: hash join vs the seed nested loop.

The paper's thesis is that compiling PL/SQL into plain queries lets the
relational engine optimize the workload *as queries*.  This benchmark
quantifies the first such optimization this engine grew: a 1k x 1k
equi-join runs as a build/probe hash join (O(n + m) key evaluations)
instead of the seed's nested loop (O(n * m) condition evaluations).

Asserted here (the PR's acceptance criteria):

* the hash join beats the nested-loop plan by >= 10x on the 1k x 1k
  equi-join,
* EXPLAIN names ``HashJoin`` for the equi-join and still names
  ``NestLoop`` for a non-equi join.
"""

from __future__ import annotations

from repro.bench.harness import render_table, time_query
from repro.sql import Database

ROWS = 1000

EQUI_JOIN = ("SELECT count(*), sum(a.v + b.v) "
             "FROM a JOIN b ON a.id = b.id")
NON_EQUI_JOIN = ("SELECT count(*) FROM a JOIN b "
                 "ON a.id < b.id WHERE b.id <= 3")
PUSHDOWN_JOIN = ("SELECT count(*) FROM a JOIN b ON a.id = b.id "
                 "WHERE a.v % 10 = 0 AND b.v % 10 = 0")


def _build_db() -> Database:
    db = Database(profile=False)
    db.execute("CREATE TABLE a(id int, v int)")
    db.execute("CREATE TABLE b(id int, v int)")
    for name in ("a", "b"):
        table = db.catalog.get_table(name)
        for i in range(ROWS):
            table.insert((i, i * 7 % 1000))
    return db


def _timed(db: Database, sql: str, hashjoin: bool, runs: int = 3) -> float:
    db.settings.assign("enable_hashjoin", hashjoin)
    db.settings.assign("enable_pushdown", hashjoin)
    return time_query(db, sql, runs=runs, warmup=1).minimum


def test_hash_join_beats_nested_loop(write_artifact, write_json, benchmark):
    db = _build_db()

    # Sanity: both strategies agree before we time anything.
    db.execute("SET enable_hashjoin = on")
    hash_rows = db.query_all(EQUI_JOIN)
    explain_hash = db.explain(EQUI_JOIN)
    explain_non_equi = db.explain(NON_EQUI_JOIN)
    db.execute("SET enable_hashjoin = off")
    db.execute("SET enable_pushdown = off")
    nested_rows = db.query_all(EQUI_JOIN)
    explain_nested = db.explain(EQUI_JOIN)
    assert hash_rows == nested_rows
    assert "HashJoin" in explain_hash
    assert "NestLoop" in explain_nested
    assert "HashJoin" not in explain_non_equi
    assert "NestLoop" in explain_non_equi

    hash_s = _timed(db, EQUI_JOIN, hashjoin=True)
    nested_s = _timed(db, EQUI_JOIN, hashjoin=False)
    speedup = nested_s / hash_s
    pushdown_hash_s = _timed(db, PUSHDOWN_JOIN, hashjoin=True)
    pushdown_nested_s = _timed(db, PUSHDOWN_JOIN, hashjoin=False)

    rows = [
        ["equi-join 1kx1k, nested loop (seed)", round(nested_s * 1000, 1)],
        ["equi-join 1kx1k, hash join", round(hash_s * 1000, 1)],
        ["speedup", round(speedup, 1)],
        ["filtered equi-join, nested loop", round(pushdown_nested_s * 1000, 1)],
        ["filtered equi-join, hash + pushdown", round(pushdown_hash_s * 1000, 1)],
    ]
    write_artifact("bench_joins.txt", render_table(
        ["plan", "ms (min)"], rows,
        title=f"Hash join vs nested loop ({ROWS}x{ROWS} rows)"))
    write_json("joins", {
        "rows": ROWS,
        "timings_s": {
            "equi_join_nested_loop": nested_s,
            "equi_join_hash": hash_s,
            "filtered_equi_join_nested_loop": pushdown_nested_s,
            "filtered_equi_join_hash_pushdown": pushdown_hash_s,
        },
        "speedups": {"equi_join": speedup},
        "rows_per_s": {"equi_join_hash": ROWS / hash_s},
    })

    assert speedup >= 10.0, f"hash join only {speedup:.1f}x faster"

    db.execute("SET enable_hashjoin = on")
    db.execute("SET enable_pushdown = on")
    benchmark.pedantic(lambda: db.query_all(EQUI_JOIN), rounds=3, iterations=1)
