"""Query handling for one wire session — runs on executor worker threads.

:func:`run_script` is the bridge between a ``Query`` message and the
engine.  A payload takes one of three paths, each running its statements
in the connection's session (under the database execution lock, via
session activation):

* ``EXECUTE name(literals)`` — the fast path: a micro-parser binds the
  arguments and runs the prepared handle;
* a payload with no ``;`` inside it — the text door of
  ``Database.execute``: inside one activation the text cache is probed
  with ``(payload text, settings fingerprint)``, and a hit runs its
  statement record without parsing or planning; only a miss parses, and
  its record is offered to the cache after the run (admitted on second
  sight, see :class:`repro.sql.statement.PlanCache`);
* anything else — a script: parsed outside the lock, then one activation
  per statement, stopping at the first error.  Scripts are never cached.

Outcomes are rendered into wire-neutral output records the async layer
encodes without touching the engine:

* ``("rows", columns, rendered_rows, tag)`` — RowDescription + DataRows
  + CommandComplete,
* ``("complete", tag)`` — CommandComplete only (DML / DDL / session),
* ``("notice", message)`` — one NoticeResponse,
* ``("error", sqlstate, message)`` — ErrorResponse (ends the script),
* ``("empty",)`` — EmptyQueryResponse.

Every payload is one script, the scope of ``SET LOCAL`` outside a
transaction block.  (PostgreSQL additionally wraps multi-statement
scripts in an implicit transaction; this engine's autocommit statements
commit individually — a documented divergence, see ARCHITECTURE.md.)

Everything here happens off the event loop; row rendering runs outside
the engine lock, so concurrent sessions overlap their non-engine CPU.
"""

from __future__ import annotations

import re
import time
from typing import TYPE_CHECKING, Optional

from ..sql.ast import ROWS
from ..sql.errors import SqlError
from ..sql.parser import parse_script
from ..sql.profiler import (SERVER_ERRORS, SERVER_QUERIES,
                            SERVER_SLOW_QUERIES)
from ..sql.statement import Statement
from .protocol import render_row, sqlstate_for

if TYPE_CHECKING:  # pragma: no cover
    from ..sql.session import Connection
    from .telemetry import Telemetry

def command_tag(statement, kind: str, result) -> str:
    """The CommandComplete tag for one executed statement record: the
    template of its row in the statement table; an EXECUTE is tagged by
    its prepared statement's row, like PostgreSQL."""
    template = (statement.target or statement).row.tag
    if kind == ROWS:
        return template.format(n=len(result.rows))
    return template.format(n=result.rows[0][0] if result.rows else 0)


def _records(session: "Connection", notices_before: int, statement,
             outcome) -> list[tuple]:
    """The output records of one statement: the notices it raised, then
    its error or its rows and tag.  *outcome* is the ``(kind, result)``
    the record *statement* returned or the exception it raised."""
    records = [("notice", m) for m in session.notices[notices_before:]]
    if isinstance(outcome, Exception):
        message = str(outcome) if isinstance(outcome, SqlError) \
            else f"{type(outcome).__name__}: {outcome}"
        records.append(("error", sqlstate_for(outcome), message))
        return records
    kind, result = outcome
    tag = command_tag(statement, kind, result)
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
    handle = error = None
    try:
        with session._activated():
            handle = session.lookup_prepared(match.group(1))
            outcome = handle.dispatch(tuple(args))
    except Exception as exc:
        outcome = error = exc
    return _records(session, notices_before, handle, outcome), error


def run_script(session: "Connection", sql: str,
               telemetry: "Telemetry") -> list[tuple]:
    """Execute one ``Query`` payload; returns wire-neutral output records."""
    started = time.perf_counter()
    fast = _fast_execute(session, sql)
    if fast is not None:
        outputs, error = fast
    else:
        # One Query payload is one script - the scope of SET LOCAL outside
        # a transaction block - exactly as Connection.execute_script.
        session.begin_script()
        try:
            if takes_text_door(sql):
                outputs, error = _run_text(session, sql)
            else:
                outputs, error = _run_statements(session, sql)
        finally:
            session.end_script()
    return _account(session.db.profiler, telemetry, sql, started, error,
                    outputs)


def takes_text_door(sql: str) -> bool:
    """Whether a payload goes through :func:`_run_text`: it has no ``;``
    before its trailing ones, so it holds at most one statement - or
    several with no ``;`` between them, which the parse finds out."""
    return ";" not in sql.rstrip().rstrip(";")


def _run_text(session: "Connection", sql: str):
    """Run a payload with no ``;`` inside it through the text door of
    ``Database.execute``, in one activation: a text-cache hit runs its
    record, the text's literals bound as parameters, without parsing or
    planning; a miss parses the tokens the lookup lexed (under the lock,
    as ``Connection.execute`` does) and offers its record to the cache
    after the run.  Returns ``(outputs, error)``."""
    db = session.db
    notices_before = len(session.notices)
    statement = lexed = error = None
    try:
        with session._activated():
            statement, params, lexed = db._plan_cache.lookup(
                sql, (), db.settings.active)
            if statement is None:
                statements = parse_script(lexed)
                if len(statements) == 1:
                    statement = Statement(db, statements[0], session,
                                          lexed=lexed)
            if statement is not None:
                outcome = db._dispatch_ast(statement, params, session, lexed)
    except Exception as exc:  # a lexer crash too - still answer the client
        outcome = error = exc
    if statement is None and error is None:
        # No statement, or several with no ``;`` between them: parsed
        # again, with their literals as written.
        lexed.params = None
        return _run_statements(session, sql, parse_script(lexed))
    return _records(session, notices_before, statement, outcome), error


def _run_statements(session: "Connection", sql: str, statements=None):
    """Run the statements of *sql* (parsed here unless given), one
    activation each, stopping at the first error; returns ``(outputs,
    error)``.  Only the dispatch holds the engine lock: parsing, tag
    derivation and row rendering happen outside it, so concurrent
    sessions overlap their non-engine CPU."""
    db = session.db
    try:
        if statements is None:
            statements = parse_script(sql)
    except Exception as exc:  # a lexer crash too - still answer the client
        return _records(session, len(session.notices), None, exc), exc
    outputs = [] if statements else [("empty",)]
    error = None
    for stmt in statements:
        notices_before = len(session.notices)
        statement = None
        try:
            with session._activated():
                statement = Statement(db, stmt, session)
                outcome = db._dispatch_ast(statement, (), session)
        except Exception as exc:
            outcome = error = exc
        outputs += _records(session, notices_before, statement, outcome)
        if error is not None:
            break
    return outputs, error


def _account(profiler, telemetry: "Telemetry", sql: str, started: float,
             error, outputs: list[tuple]) -> list[tuple]:
    elapsed = time.perf_counter() - started
    profiler.bump(SERVER_QUERIES)
    if error is not None:
        profiler.bump(SERVER_ERRORS)
    if telemetry.record(sql, elapsed, error=error):
        profiler.bump(SERVER_SLOW_QUERIES)
    return outputs
