"""Figure 10 — iterative PL/SQL vs recursive SQL: wall-clock time of walk().

Paper: one invocation of walk() across 10k..100k intra-function iterations
on PostgreSQL 11.3; the WITH RECURSIVE variant saves ~43 % consistently,
min/max envelope over 10 runs.

Scaled here to 250..2000 iterations (Python engine), 5 runs.  The gates
are the paper's claims as counts, read from the profiler on one call per
variant: the interpreter switches f->Q once per embedded-query evaluation,
the compiled Qf never does and instantiates one plan for the whole
statement, and its re-opened embedded queries answer from the Memoize
memo (executor/memo.py).  On the machine, in a fresh database (nothing
carried from an earlier statement), the function's template memoizes
exactly the three lookups keyed by what repeats - ``policy``, the
windowed ``actions`` table and ``cells`` - and not the ``move`` lookup
keyed by the step's ``random()`` roll, so a call makes fewer than half as
many memo misses as trampoline iterations.
The relative runtime ("rel %") is reported, not gated: on a loaded host
it flaked past the old "< 95" / "< 90" floors.

The three paper series run the paper's inlined Qf (``conftest.demo`` pins
``batch_compiled = off``).  A fourth, "trampoline machine", is ``walk_c``
under the engine's default settings: the same transition rules stepped as
compiled closures, one activation per call, no working table at all.
"""

from __future__ import annotations

from conftest import walk_query

from repro.bench.harness import measure_series, render_table
from repro.sql.executor.memo import memoize_nodes
from repro.sql.profiler import (MEMO_HITS, MEMO_MISSES, PLAN_INSTANTIATIONS,
                                SWITCH_F_TO_Q, TRAMPOLINE_ITERATIONS)
from repro.workloads import build_demo_database

ITERATIONS = [250, 500, 1000, 2000]
WIN, LOOSE = 10**9, -(10**9)


def build_series(db, runs: int = 5):
    variants = {
        "PL/SQL": lambda steps: (walk_query("walk", per_call=True),
                                 [WIN, LOOSE, steps]),
        "WITH RECURSIVE": lambda steps: (walk_query("walk_c", per_call=True),
                                         [WIN, LOOSE, steps]),
        "WITH ITERATE": lambda steps: (walk_query("walk_it", per_call=True),
                                       [WIN, LOOSE, steps]),
    }
    series = measure_series(db, ITERATIONS, variants, runs=runs)
    db.execute("RESET batch_compiled")
    try:
        machine = measure_series(
            db, ITERATIONS,
            {"trampoline machine": variants["WITH RECURSIVE"]}, runs=runs)
    finally:
        db.execute("SET batch_compiled = off")
    series.variants.update(machine.variants)
    return series


def counted_call(db, function: str, steps: int) -> dict:
    """The profiler's counters over one call of *function* (the demo
    database keeps its profiler off while timing)."""
    db.profiler.enabled = True
    db.profiler.reset()
    try:
        db.reseed(42)
        db.execute(walk_query(function, per_call=True), [WIN, LOOSE, steps])
        return dict(db.profiler.counts)
    finally:
        db.profiler.enabled = False


def fresh_machine_call(steps: int) -> tuple[dict, list]:
    """:func:`counted_call` of ``walk_c`` on the machine (the engine's
    default, ``batch_compiled`` on), in a database no statement ran in,
    and the key names of its template's Memoize nodes."""
    db = build_demo_database(seed=7).db
    counts = counted_call(db, "walk_c", steps)
    template = db.catalog.get_function("walk_c").body_plans[db.plan_stamp()]
    return counts, [node.key_names
                    for node in memoize_nodes(template.trans_subplans)]


def test_fig10_report(demo, write_artifact, benchmark):
    db = demo.db

    def compiled_point():
        db.reseed(42)
        db.execute(walk_query("walk_c", per_call=True), [WIN, LOOSE, 500])

    benchmark.pedantic(compiled_point, rounds=3, iterations=1)

    series = build_series(db)
    rows = []
    for i, steps in enumerate(series.x_values):
        interp = series.variants["PL/SQL"][i]
        compiled = series.variants["WITH RECURSIVE"][i]
        iterate = series.variants["WITH ITERATE"][i]
        machine = series.variants["trampoline machine"][i]
        rows.append([
            steps,
            round(interp.mean * 1000, 1),
            f"[{interp.minimum * 1000:.1f}..{interp.maximum * 1000:.1f}]",
            round(compiled.mean * 1000, 1),
            f"[{compiled.minimum * 1000:.1f}..{compiled.maximum * 1000:.1f}]",
            round(iterate.mean * 1000, 1),
            round(machine.mean * 1000, 1),
            round(100.0 * compiled.mean / interp.mean, 1),
        ])
    steps = ITERATIONS[0]
    interp = counted_call(db, "walk", steps)
    compiled = counted_call(db, "walk_c", steps)
    machine, memo_keys = fresh_machine_call(steps)
    table = render_table(
        ["#iterations", "PL/SQL ms", "env", "RECURSIVE ms", "env",
         "ITERATE ms", "machine ms", "rel %"],
        rows, "Figure 10: walk() wall-clock, one invocation (scaled sweep; "
              "machine = walk_c under default settings)")
    table += (f"\nmemo misses of one {steps}-step call: inlined Qf "
              f"{compiled[MEMO_MISSES]}, machine {machine[MEMO_MISSES]} over "
              f"{machine[TRAMPOLINE_ITERATIONS]} iterations (fresh database)")
    write_artifact("fig10_walk_scaling.txt", table)

    # Three embedded queries per iteration, each an f->Q switch that
    # instantiates its plan; the Qf has none of either beyond its own.
    assert interp[SWITCH_F_TO_Q] == 3 * steps, interp
    assert compiled.get(SWITCH_F_TO_Q, 0) == 0, compiled
    assert compiled[PLAN_INSTANTIATIONS] == 1, compiled
    assert compiled[MEMO_HITS] > 0, compiled
    # policy, the actions window and cells; a memo keyed by the step's
    # random() roll would miss on every step.
    assert memo_keys == [("s.location_2",),
                         ("s.location_2", "_lets.movement_3"),
                         ("_lets.location_3",)], memo_keys
    assert 2 * machine[MEMO_MISSES] < machine[TRAMPOLINE_ITERATIONS], machine
