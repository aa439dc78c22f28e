"""Wire-path differential fuzzing: served engine vs embedded engine.

The wire axis answers a question the other oracles cannot: does a query
return the *same* answer through the whole service stack — protocol
framing, the EXECUTE fast path, session activation from an executor
thread, text rendering — as it does through a direct
:meth:`Database.execute` call?

Each case builds **twin databases** from the same generated schema, data
and functions (:meth:`DifferentialChecker.build_database`, so the
regular query-fuzz corpus is reused unchanged).  One twin stays
embedded; the other is served by a :class:`repro.server.ServerThread`
and queried through the blocking client.  Every query variant then runs
on both and the outcomes must agree:

* **status** — both succeed, or both fail *in the same taxonomy class*
  (the wire carries the class as a SQLSTATE; :data:`~repro.server.
  protocol.LABEL_FOR_SQLSTATE` reverses the injective mapping, so a
  plan error downgraded to an execution error by the wire path would be
  caught here),
* **rows** — the embedded rows, rendered through the same
  :func:`~repro.server.protocol.render_row` the server uses, must equal
  the text rows that crossed the wire (ordered comparison when the
  query's ORDER BY is total, bag comparison otherwise).

One variant per case is sent a second time as a two-statement payload,
``SET LOCAL <planner flag> = off; <query>``, against ``execute_script`` on
the embedded twin: a ``Query`` message is a script (the scope of ``SET
LOCAL``) on both sides, so both plan the query with the flag off.

The variant list is sent :data:`PASSES` times, each pass compared with the
embedded twin.  A one-statement text is admitted to the text cache on its
second sight, so the third pass is served from cached statement records:
when a variant that takes the text door succeeded, the served twin must
have counted a plan-cache hit (kind ``cache``).

Like the txn axis there is no reducer: a failing case prints its script
and seed, and ``--index`` replays it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.server import ServerError, ServerThread, connect
from repro.server.handler import takes_text_door
from repro.server.protocol import LABEL_FOR_SQLSTATE, render_row
from repro.sql.profiler import (FUZZ_CASES, FUZZ_COMPARISONS,
                                FUZZ_DISCREPANCIES, FUZZ_EXECUTIONS,
                                PLAN_CACHE_HIT, Profiler)

from .oracle import (DifferentialChecker, Outcome, rows_equal,
                     run_statement)
from .querygen import Case, Query

#: Times the variant list is sent: the first sight of a text, its
#: admission to the text cache, and a pass served from the cache.
PASSES = 3


@dataclass
class WireDiscrepancy:
    """One disagreement between the served and embedded twins."""

    kind: str            # 'status' | 'result' | 'cache'
    case: Case
    query: Query
    sql: str
    embedded: Outcome
    wire: Outcome

    def describe(self) -> str:
        return (f"[wire/{self.kind}] case seed {self.case.seed}\n"
                f"  sql: {self.sql}\n"
                f"  embedded: {self.embedded.describe()}\n"
                f"  wire:     {self.wire.describe()}")


def wire_outcome(client, sql: str) -> Outcome:
    """Run *sql* over the wire, folded into an :class:`Outcome` whose
    ``error`` is the taxonomy label recovered from the SQLSTATE."""
    try:
        results = client.query(sql)
    except ServerError as error:
        label = LABEL_FOR_SQLSTATE.get(error.sqlstate,
                                       f"sqlstate:{error.sqlstate}")
        return Outcome("error", error=label, message=error.message)
    for result in reversed(results):
        if result.rows is not None:
            return Outcome("ok", rows=result.rows)
    return Outcome("ok", rows=[])


def check_wire_case(case: Case, *, profiler: Optional[Profiler] = None
                    ) -> list[WireDiscrepancy]:
    """Run one case on twin databases (one served, one embedded)."""
    profiler = profiler if profiler is not None else Profiler()
    profiler.bump(FUZZ_CASES)
    builder = DifferentialChecker(use_sqlite=False, profiler=profiler)
    embedded, compiled = builder.build_database(case)
    served, _ = builder.build_database(case)
    served.profiler.enabled = True  # the cache check reads its hit count

    variants: list[tuple[Query, str]] = [
        (query, sql) for query in case.queries
        for _, _, sql in query.variants(compiled)]
    script = None
    if variants:  # one of them again, as the second statement of a script
        flags = [s.name for s, _ in embedded.settings.plan_axes()]
        query, sql = variants[case.seed % len(variants)]
        script = f"SET LOCAL {flags[case.seed % len(flags)]} = off; {sql}"
        variants.append((query, script))

    discrepancies: list[WireDiscrepancy] = []

    def report(kind, query, sql, emb, wire):
        profiler.bump(FUZZ_DISCREPANCIES)
        discrepancies.append(WireDiscrepancy(
            kind=kind, case=case, query=query, sql=sql,
            embedded=emb, wire=wire))

    cacheable = None  # a one-statement variant that succeeded
    with ServerThread(served, workers=2) as address:
        with connect(*address) as client:
            for _ in range(PASSES):
                for query, sql in variants:
                    emb = run_statement(embedded, sql, script=sql is script)
                    wire = wire_outcome(client, sql)
                    profiler.bump(FUZZ_EXECUTIONS, 2)
                    profiler.bump(FUZZ_COMPARISONS)
                    if emb.status != wire.status:
                        report("status", query, sql, emb, wire)
                        continue
                    if emb.status == "error":
                        if emb.error != wire.error:
                            report("status", query, sql, emb, wire)
                        continue
                    if cacheable is None and takes_text_door(sql):
                        cacheable = (query, sql, emb, wire)
                    rendered = [render_row(row) for row in emb.rows]
                    if not rows_equal(rendered, wire.rows,
                                      ordered=query.order == "total"):
                        report("result", query, sql, emb, wire)
    if cacheable is not None and not served.profiler.counts[PLAN_CACHE_HIT]:
        report("cache", *cacheable)
    return discrepancies
