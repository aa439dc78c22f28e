"""Figure 11b — heat map for parse(), "Beyond PostgreSQL" (Oracle).

Paper: the same transformation applied to Oracle; parse() improves to
42-55 % relative runtime over most of the grid (values near 100 % in the
tiny corner omitted due to Oracle's coarse timer).

Substitution: no Oracle is available offline — we run the sweep on our
engine and additionally emit the compiled query in the SQLite dialect
(``results/fig11b_parse_sqlite.sql``), the one foreign text that is
executed (by the stdlib sqlite3, in the fuzz loop and in
``examples/sqlite_scripting.py``), to demonstrate the "modulo syntactic
details" claim.  Shape criteria: the relative runtime *improves*
(decreases) as the input grows — parse's per-iteration interpreter overhead
is large relative to its tiny FSM lookup, so longer inputs amortize better,
matching the paper's left-to-right gradient in Figure 11b.

Each invocation of a cell parses its own input, all of the cell's length:
the inlined Qf reads its argument from the row that binds it, so the
engine memoizes its ``WITH RECURSIVE`` body by argument value, and
invocations repeating one input would be memo hits where the interpreter
runs every one.

The heat map is reported, not gated cell by cell: one cell times three runs
of a statement of tens of milliseconds, and on a shared 2-vCPU host its
1,024-character column read 71-169 %.  The gates are the paper's claims as
counts, read from the profiler on one call per input length: the
interpreter switches f->Q once per embedded-query evaluation (one FSM
lookup per character, then the accepting-state lookup), the compiled Qf
never does and instantiates one plan for the whole statement.
"""

from __future__ import annotations

from conftest import parse_query

from repro.bench.harness import measure_heatmap, render_heatmap
from repro.sql.profiler import PLAN_INSTANTIATIONS, SWITCH_F_TO_Q
from repro.workloads import make_parseable_input

INVOCATIONS = [1, 2, 4, 8, 16]
INPUT_LENGTHS = [4, 16, 64, 256, 1024]


def build_heatmap(db, runs: int = 3):
    inputs = {n: [make_parseable_input(n, seed=5 + i)
                  for i in range(max(INVOCATIONS))] for n in INPUT_LENGTHS}

    def make_query(function: str, iterations: int):
        return (f"SELECT count({function}(($1)[b.i + 1])) "
                f"FROM bench_calls AS b"), [inputs[iterations]]

    return measure_heatmap(db, INVOCATIONS, INPUT_LENGTHS, make_query,
                           slow_name="parse", fast_name="parse_c", runs=runs)


def counted_call(db, function: str, text: str) -> dict:
    """The profiler's counters over one call of *function* (the demo
    database keeps its profiler off while timing)."""
    db.profiler.enabled = True
    db.profiler.reset()
    try:
        db.execute(parse_query(function, per_call=True), [text])
        return dict(db.profiler.counts)
    finally:
        db.profiler.enabled = False


def test_fig11b_report(demo, write_artifact, benchmark):
    db = demo.db

    from repro.bench.harness import ensure_calls_table
    ensure_calls_table(db, 4)
    text_input = make_parseable_input(64, seed=5)

    def one_cell():
        db.execute(parse_query("parse_c"), [text_input])

    benchmark.pedantic(one_cell, rounds=3, iterations=1)

    result = build_heatmap(db)
    text = render_heatmap(result, "Figure 11b: parse, relative runtime % "
                                  "(recursive SQL vs PL/SQL)")
    write_artifact("fig11b_parse_heatmap.txt", text)

    # SQLite-dialect emission of the compiled query (textual artifact).
    sqlite_sql = demo.compiled["parse"].sql("sqlite")
    write_artifact("fig11b_parse_sqlite.sql", sqlite_sql)

    # Long inputs amortize: averaged over the grid, the large-input half
    # clearly beats the small-input half (per-cell timings at 4-16 chars
    # are microseconds — pure timer-noise territory).
    left = [row[0] for row in result.grid] + [row[1] for row in result.grid]
    right = [row[-1] for row in result.grid] + [row[-2] for row in result.grid]
    assert sum(right) / len(right) < sum(left) / len(left), (left, right)

    for length in INPUT_LENGTHS:
        text = make_parseable_input(length, seed=5)
        interp = counted_call(db, "parse", text)
        compiled = counted_call(db, "parse_c", text)
        # One embedded query per iteration (a character), plus the
        # accepting-state query once: each an f->Q switch.  The Qf has
        # none, and instantiates one plan for the statement.
        assert interp[SWITCH_F_TO_Q] == length + 1, (length, interp)
        assert compiled.get(SWITCH_F_TO_Q, 0) == 0, (length, compiled)
        assert compiled[PLAN_INSTANTIATIONS] == 1, (length, compiled)
