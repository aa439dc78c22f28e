"""Error hierarchy for the SQL engine and the PL/SQL compiler.

Every error raised on purpose by this package derives from :class:`SqlError`
so that callers can catch one base class.  The subclasses mirror the stages of
query processing: lexing/parsing, name resolution and planning, execution, and
PL/SQL compilation.
"""

from __future__ import annotations


class SqlError(Exception):
    """Base class for all errors raised by the repro engine."""


class ParseError(SqlError):
    """Raised by the lexer or a parser on malformed input.

    Carries the offending line/column when known so error messages can point
    at the source position.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        if line is not None:
            message = f"{message} (at line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class NameResolutionError(SqlError):
    """An identifier (table, column, function, type) could not be resolved."""


class VariableConflictError(NameResolutionError):
    """A bare name that both a FROM relation and an enclosing PL/pgSQL
    variable scope supply (PostgreSQL's ``plpgsql.variable_conflict =
    error``, its default)."""


class PlanError(SqlError):
    """The planner rejected a query (unsupported shape, arity mismatch, ...)."""


class ExecutionError(SqlError):
    """A runtime error during plan execution (e.g. bad scalar subquery)."""


class TypeError_(SqlError):
    """A value had the wrong type for an operation or CAST failed."""


class CatalogError(SqlError):
    """Schema-level problem: duplicate table, unknown type, and so on."""


class SettingError(SqlError):
    """An unknown configuration parameter, or a value outside its domain
    (see :mod:`repro.sql.settings`)."""


class SerializationError(SqlError):
    """Write-write conflict under snapshot isolation.

    Raised when a transaction tries to update or delete a row version that
    another transaction has already written (first-writer-wins): either the
    other writer is still in progress, or it committed after this
    transaction's snapshot was taken.  The losing transaction should be
    rolled back and retried.
    """


class QueryCanceledError(SqlError):
    """The running statement was canceled (SQLSTATE 57014 family).

    Raised cooperatively from executor hot loops and the PL/pgSQL
    interpreter when the session's :class:`~repro.sql.cancel.CancelToken`
    was tripped (wire ``CancelRequest``, programmatic trip), when
    ``statement_timeout`` expired, or when the interpreter's statement
    budget ran out — PostgreSQL classifies all of these as "operator
    intervention / query canceled".  Only the canceled statement rolls
    back; an enclosing explicit transaction block survives.
    """


class LogFlushError(SqlError):
    """The write-ahead log could not be made durable (SQLSTATE 58030,
    PostgreSQL's ``io_error``).

    PostgreSQL's rule: a failed write or fsync of the log is fatal for the
    log, because the kernel may already have dropped the dirty pages and a
    retried fsync could report success over data that never reached disk.
    The commit that met the failure is rolled back in memory and its
    client gets this error; from then on every statement that would write
    gets it too, until the database is reopened and replay decides whether
    that commit's marker reached the disk.  Reads keep working.
    """


class PlsqlError(SqlError):
    """Base class for PL/pgSQL front-end and interpreter errors."""


class PlsqlRuntimeError(PlsqlError):
    """Raised while interpreting a PL/pgSQL function body."""


class NoReturnError(PlsqlRuntimeError):
    """Control reached the end of a function without RETURN.

    PostgreSQL raises this at run time (SQLSTATE 2F005); both execution
    strategies here do the same — the interpreter when it walks off the
    body, compiled functions via the ``__no_return`` builtin planted on
    the CFG's synthetic fall-off edge.  The static analyzer flags the
    same condition at CREATE FUNCTION time (codes CF002/CF003)."""


class CompileError(SqlError):
    """The PL/SQL -> SQL compiler could not translate a function."""


class LoopNotSupportedError(CompileError):
    """Raised by the Froid baseline when the input function contains a loop."""


#: Stable taxonomy labels, most-specific class first: :func:`error_class`
#: returns the label of the first matching entry.  The differential
#: fuzzer's oracle compares *labels*, not exception identity, so two
#: execution strategies "agree" when both reject a statement at the same
#: stage — while an exception outside the :class:`SqlError` hierarchy
#: (KeyError, RecursionError, ...) classifies as ``"crash"`` and is always
#: reported, even when every strategy crashes alike.
_ERROR_TAXONOMY: tuple[tuple[type, str], ...] = (
    (SerializationError, "serialization"),
    (QueryCanceledError, "query-canceled"),
    (LogFlushError, "io"),
    (ParseError, "parse"),
    (NameResolutionError, "name-resolution"),
    (PlanError, "plan"),
    (ExecutionError, "execution"),
    (TypeError_, "type"),
    (CatalogError, "catalog"),
    (SettingError, "setting"),
    (LoopNotSupportedError, "compile"),
    (CompileError, "compile"),
    (NoReturnError, "no-return"),
    (PlsqlRuntimeError, "plsql-runtime"),
    (PlsqlError, "plsql"),
    (SqlError, "sql"),
)

#: Label for exceptions no deliberate engine error path raised.
CRASH = "crash"


def error_class(error: BaseException) -> str:
    """Classify *error* into the engine's error taxonomy.

    Returns a stable stage label ("parse", "plan", "execution", ...) for
    deliberate :class:`SqlError` rejections and :data:`CRASH` for anything
    else, letting oracles distinguish "both strategies reject this input"
    (agreement) from "the engine fell over" (always a bug).
    """
    for exc_type, label in _ERROR_TAXONOMY:
        if isinstance(error, exc_type):
            return label
    return CRASH
