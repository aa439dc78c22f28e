"""Join-strategy benchmark: hash join vs the seed nested loop.

The paper's thesis is that compiling PL/SQL into plain queries lets the
relational engine optimize the workload *as queries*.  This benchmark
quantifies the first such optimization this engine grew: a 1k x 1k
equi-join runs as a build/probe hash join (O(n + m) key evaluations)
instead of the seed's nested loop (O(n * m) condition evaluations).

**Gated: what the speedup rests on**, read from ``EXPLAIN`` and the
profiler's counters on one counted execution per statement (ROADMAP item
6: none of it depends on the host) —

* EXPLAIN names ``HashJoin`` for the equi-join and ``NestLoop`` for a
  non-equi join and for the equi-join with ``enable_hashjoin`` off,
* a join builds one hash table,
* over the smaller input, whichever side of ``JOIN`` it is written on,
* and single-table WHERE conjuncts are evaluated below the join: both
  leaves carry a pushed-down filter, the build holds only the rows that
  passed it, and only matching pairs are joined.

**Reported: the time ratios.**  Hash join vs nested loop on the 1k x 1k
equi-join, kept over the loose 10x floor the bench has always had (it
reads 100x and more), the filtered equi-join both ways, and the hash join
itself under ``enable_vectorize`` on (the vectorized core's batch hash
join) and off (the row operator).
"""

from __future__ import annotations

from repro.bench.harness import counted, render_table, time_query
from repro.sql import Database
from repro.sql.profiler import (HASHJOIN_BUILD_ROWS, HASHJOIN_BUILDS,
                                VECTOR_FALLBACKS, VECTOR_JOIN_ROWS)

ROWS = 1000
SMALL_ROWS = 100
FLOOR = 10.0

EQUI_JOIN = ("SELECT count(*), sum(a.v + b.v) "
             "FROM a JOIN b ON a.id = b.id")
NON_EQUI_JOIN = ("SELECT count(*) FROM a JOIN b "
                 "ON a.id < b.id WHERE b.id <= 3")
PUSHDOWN_JOIN = ("SELECT count(*) FROM a JOIN b ON a.id = b.id "
                 "WHERE a.v % 10 = 0 AND b.v % 10 = 0")
SMALL_LEFT = "SELECT count(*) FROM small JOIN a ON small.id = a.id"
SMALL_RIGHT = "SELECT count(*) FROM a JOIN small ON small.id = a.id"


def _build_db() -> Database:
    db = Database(profile=False)
    for name, rows in (("a", ROWS), ("b", ROWS), ("small", SMALL_ROWS)):
        db.execute(f"CREATE TABLE {name}(id int, v int)")
        table = db.catalog.get_table(name)
        for i in range(rows):
            table.insert((i, i * 7 % 1000))
    return db


def _timed(db: Database, sql: str, hashjoin: bool, vectorize: bool = True,
           runs: int = 3) -> float:
    db.settings.assign("enable_hashjoin", hashjoin)
    db.settings.assign("enable_pushdown", hashjoin)
    db.settings.assign("enable_vectorize", vectorize)
    return time_query(db, sql, runs=runs, warmup=1).minimum


def test_hash_join_beats_nested_loop(write_artifact, write_json, benchmark):
    db = _build_db()

    # Sanity: both strategies agree before we time anything.
    db.execute("SET enable_hashjoin = on")
    hash_rows = db.query_all(EQUI_JOIN)
    explain_hash = db.explain(EQUI_JOIN)
    explain_non_equi = db.explain(NON_EQUI_JOIN)
    explain_pushdown = db.explain(PUSHDOWN_JOIN)
    explain_small_left = db.explain(SMALL_LEFT)
    explain_small_right = db.explain(SMALL_RIGHT)
    facts = {}
    for name, sql in (("equi_join", EQUI_JOIN),
                      ("filtered_equi_join", PUSHDOWN_JOIN),
                      ("small_left", SMALL_LEFT),
                      ("small_right", SMALL_RIGHT)):
        counts = counted(db, sql)
        facts[name] = {counter: counts.get(counter, 0)
                       for counter in (HASHJOIN_BUILDS, HASHJOIN_BUILD_ROWS,
                                       VECTOR_JOIN_ROWS, VECTOR_FALLBACKS)}
    db.execute("SET enable_vectorize = off")
    assert db.query_all(EQUI_JOIN) == hash_rows
    db.execute("SET enable_vectorize = on")
    db.execute("SET enable_hashjoin = off")
    db.execute("SET enable_pushdown = off")
    nested_rows = db.query_all(EQUI_JOIN)
    explain_nested = db.explain(EQUI_JOIN)
    assert hash_rows == nested_rows

    # The gate: plan shape and counts.
    assert "HashJoin" in explain_hash
    assert "NestLoop" in explain_nested
    assert "HashJoin" not in explain_non_equi
    assert "NestLoop" in explain_non_equi
    assert all(fact[HASHJOIN_BUILDS] == 1 for fact in facts.values()), facts
    assert all(fact[VECTOR_FALLBACKS] == 0 for fact in facts.values()), facts
    assert facts["equi_join"][HASHJOIN_BUILD_ROWS] == ROWS
    assert "[build=left]" in explain_small_left
    assert "[build=right]" in explain_small_right
    assert facts["small_left"][HASHJOIN_BUILD_ROWS] == SMALL_ROWS
    assert facts["small_right"][HASHJOIN_BUILD_ROWS] == SMALL_ROWS
    assert explain_pushdown.count("(pushed-down filter)") == 2
    assert facts["filtered_equi_join"][HASHJOIN_BUILD_ROWS] == ROWS // 10
    assert facts["filtered_equi_join"][VECTOR_JOIN_ROWS] == ROWS // 10

    hash_s = _timed(db, EQUI_JOIN, hashjoin=True)
    hash_row_s = _timed(db, EQUI_JOIN, hashjoin=True, vectorize=False)
    nested_s = _timed(db, EQUI_JOIN, hashjoin=False)
    speedup = nested_s / hash_s
    pushdown_hash_s = _timed(db, PUSHDOWN_JOIN, hashjoin=True)
    pushdown_nested_s = _timed(db, PUSHDOWN_JOIN, hashjoin=False)

    rows = [
        ["equi-join 1kx1k, nested loop (seed)", round(nested_s * 1000, 1)],
        ["equi-join 1kx1k, hash join", round(hash_s * 1000, 1)],
        ["speedup", round(speedup, 1)],
        ["equi-join 1kx1k, hash join, row engine",
         round(hash_row_s * 1000, 1)],
        ["batch hash join vs row hash join", round(hash_row_s / hash_s, 1)],
        ["filtered equi-join, nested loop", round(pushdown_nested_s * 1000, 1)],
        ["filtered equi-join, hash + pushdown", round(pushdown_hash_s * 1000, 1)],
    ]
    write_artifact("bench_joins.txt", render_table(
        ["plan", "ms (min)"], rows,
        title=f"Hash join vs nested loop ({ROWS}x{ROWS} rows); gated on: "
              f"HashJoin in EXPLAIN, one build per join, build rows = the "
              f"smaller side, filters below the join"))
    write_json("joins", {
        "rows": ROWS,
        "timings_s": {
            "equi_join_nested_loop": nested_s,
            "equi_join_hash": hash_s,
            "equi_join_hash_row_engine": hash_row_s,
            "filtered_equi_join_nested_loop": pushdown_nested_s,
            "filtered_equi_join_hash_pushdown": pushdown_hash_s,
        },
        "speedups": {"equi_join": speedup,
                     "equi_join_vector_vs_row": hash_row_s / hash_s},
        "rows_per_s": {"equi_join_hash": ROWS / hash_s},
        "counters": facts,
        "floors": {"equi_join": FLOOR},
    })

    assert speedup >= FLOOR, f"hash join only {speedup:.1f}x faster"

    db.execute("SET enable_hashjoin = on")
    db.execute("SET enable_pushdown = on")
    benchmark.pedantic(lambda: db.query_all(EQUI_JOIN), rounds=3, iterations=1)
