"""Query handling for one wire session — runs on executor worker threads.

:func:`run_script` is the bridge between a ``Query`` message and the
engine: it parses the SQL into statements, dispatches each one in the
connection's session (under the database execution lock, via session
activation), and renders the outcome into wire-neutral output records the
async layer encodes without touching the engine:

* ``("rows", columns, rendered_rows, tag)`` — RowDescription + DataRows
  + CommandComplete,
* ``("complete", tag)`` — CommandComplete only (DML / DDL / session),
* ``("notice", message)`` — one NoticeResponse,
* ``("error", sqlstate, message)`` — ErrorResponse (ends the script),
* ``("empty",)`` — EmptyQueryResponse.

Multi-statement ``Query`` scripts run sequentially and stop at the first
error.  (PostgreSQL additionally wraps such scripts in an implicit
transaction; this engine's autocommit statements commit individually — a
documented divergence, see ARCHITECTURE.md.)

Everything here happens off the event loop; the per-statement engine work
serializes on ``Database._exec_lock`` while parse and row rendering run
outside it, so concurrent sessions overlap their non-engine CPU.
"""

from __future__ import annotations

import re
import time
from typing import TYPE_CHECKING, Optional

from ..sql import ast as A
from ..sql.ast import ROWS
from ..sql.errors import SqlError
from ..sql.parser import parse_script
from ..sql.profiler import (SERVER_ERRORS, SERVER_QUERIES,
                            SERVER_SLOW_QUERIES)
from .protocol import render_row, sqlstate_for

if TYPE_CHECKING:  # pragma: no cover
    from ..sql.session import Connection
    from .telemetry import Telemetry

def command_tag(stmt, kind: str, result, session: "Connection") -> str:
    """The CommandComplete tag for one executed statement: the template
    of its row in the statement table; EXECUTE has none and is tagged by
    the prepared statement's kind, like PostgreSQL."""
    if isinstance(stmt, A.ExecuteStmt):
        try:
            stmt = session.lookup_prepared(stmt.name).ast
        except SqlError:  # deallocated meanwhile: tag by result kind
            stmt = None
    row = A.STATEMENTS.get(type(stmt))
    template = row.tag if row is not None else "SELECT {n}"
    if kind == ROWS:
        return template.format(n=len(result.rows))
    return template.format(n=result.rows[0][0] if result.rows else 0)


def _records(session: "Connection", notices_before: int, stmt,
             outcome) -> list[tuple]:
    """The output records of one statement: the notices it raised, then
    its error or its rows and tag.  *outcome* is the ``(kind, result)``
    it returned or the exception it raised."""
    records = [("notice", m) for m in session.notices[notices_before:]]
    if isinstance(outcome, Exception):
        message = str(outcome) if isinstance(outcome, SqlError) \
            else f"{type(outcome).__name__}: {outcome}"
        records.append(("error", sqlstate_for(outcome), message))
        return records
    kind, result = outcome
    tag = command_tag(stmt, kind, result, session)
    if kind == ROWS:
        records.append(("rows", list(result.columns),
                        [render_row(row) for row in result.rows], tag))
    else:
        records.append(("complete", tag))
    return records


#: Fast path for the hottest wire shape: ``EXECUTE name(literal, ...)``.
#: The simple protocol has no Parse/Bind/Execute phase, so a prepared
#: point query arrives as text on every round trip — a full parse of
#: that text costs more than running the (handle-cached) plan.  A
#: micro-parser recognizes the shape and binds literal arguments
#: directly; anything it doesn't recognize falls back to the real
#: parser, so this is an optimization, never a semantic fork.
_FAST_EXECUTE = re.compile(
    r"^\s*EXECUTE\s+([A-Za-z_][A-Za-z_0-9]*)\s*\(([^()';]*)\)\s*;?\s*$",
    re.IGNORECASE)
_INT = re.compile(r"^-?\d+$")
_FLOAT = re.compile(r"^-?\d+\.\d+$")

_KEYWORD_ARGS = {"null": None, "true": True, "false": False}


def _parse_literal_args(argstr: str) -> Optional[list]:
    """Literal EXECUTE arguments, or None when beyond the micro-parser."""
    args: list = []
    argstr = argstr.strip()
    if not argstr:
        return args
    for token in argstr.split(","):
        token = token.strip()
        if _INT.match(token):
            args.append(int(token))
        elif _FLOAT.match(token):
            args.append(float(token))
        elif token.lower() in _KEYWORD_ARGS:
            args.append(_KEYWORD_ARGS[token.lower()])
        else:
            return None
    return args


def _fast_execute(session: "Connection", sql: str):
    """Run ``EXECUTE name(literals)`` without the full parser; returns
    ``(outputs, error)`` or None when the shape doesn't match (the
    caller falls back)."""
    match = _FAST_EXECUTE.match(sql)
    if match is None:
        return None
    args = _parse_literal_args(match.group(2))
    if args is None:
        return None
    notices_before = len(session.notices)
    stmt = error = None
    try:
        with session._activated():
            handle = session.lookup_prepared(match.group(1))
            stmt = handle.ast
            outcome = handle.dispatch(tuple(args))
    except Exception as exc:
        outcome = error = exc
    return _records(session, notices_before, stmt, outcome), error


def run_script(session: "Connection", sql: str,
               telemetry: "Telemetry") -> list[tuple]:
    """Execute one ``Query`` payload; returns wire-neutral output records."""
    db = session.db
    profiler = db.profiler
    started = time.perf_counter()
    fast = _fast_execute(session, sql)
    if fast is not None:
        outputs, error = fast
        return _account(profiler, telemetry, sql, started, error, outputs)
    error = None
    try:
        statements = parse_script(sql)
        outputs = [] if statements else [("empty",)]
    except Exception as exc:  # a lexer crash too - still answer the client
        error = exc
        statements = []
        outputs = _records(session, len(session.notices), None, exc)
    # One Query payload is one script - the scope of SET LOCAL outside a
    # transaction block - exactly as Connection.execute_script.
    session.begin_script()
    try:
        for stmt in statements:
            notices_before = len(session.notices)
            try:
                with session._activated():
                    # Only the dispatch holds the engine lock; tag
                    # derivation and row rendering happen outside it so
                    # concurrent sessions overlap their non-engine CPU.
                    outcome = db._dispatch_ast(stmt, (), session)
            except Exception as exc:
                outcome = error = exc
            outputs += _records(session, notices_before, stmt, outcome)
            if error is not None:
                break
    finally:
        session.end_script()
    return _account(profiler, telemetry, sql, started, error, outputs)


def _account(profiler, telemetry: "Telemetry", sql: str, started: float,
             error, outputs: list[tuple]) -> list[tuple]:
    elapsed = time.perf_counter() - started
    profiler.bump(SERVER_QUERIES)
    if error is not None:
        profiler.bump(SERVER_ERRORS)
    if telemetry.record(sql, elapsed, error=error):
        profiler.bump(SERVER_SLOW_QUERIES)
    return outputs
