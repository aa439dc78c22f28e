"""Diagnostic records and the stable code catalog.

Every finding the analyzer can produce has a fixed code so tests, the
fuzzer's soundness oracle, and downstream tooling can match on it instead
of on message text.  Codes group by family:

======  ========  ============================================================
code    severity  meaning
======  ========  ============================================================
CF000   error     function body does not parse / lower to a CFG
CF001   warning   unreachable statement
CF002   error     control can never leave the function through RETURN —
                  every terminating path falls off the end
CF003   warning   some path may fall off the end without RETURN
CF004   warning   loop has no reachable EXIT/RETURN (likely infinite)
DF001   warning   variable may be used before assignment
DF002   warning   dead store (value reassigned/never read before exit)
DF003   warning   variable declared but never used
DF004   info      parameter never used
DF005   error*    assignment to undeclared variable
SQ001   error*    embedded query references an unknown table
SQ002   error*    embedded query references an unknown, ambiguous or
                  ungrouped column (or fails to plan otherwise)
SQ003   error*    call to an unknown function
SQ004   error*    call with wrong number of arguments
SQ005   warning   literal of the wrong type assigned / returned
VL001   info      inferred volatility class (informational)
VL002   warning   declared volatility is stricter than the inferred class
======  ========  ============================================================

``error*`` codes demote to **warning** unless the offending statement is
*must-execute* — reachable and dominating every reachable function exit —
because only then is the defect guaranteed to fire on every call.  That
demotion rule is what makes the severity scheme sound: a function that
executes cleanly for some input can, by construction, never carry an
error-severity diagnostic (the fuzz oracle in :mod:`repro.fuzz.oracle`
checks exactly this).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

#: Rank order for sorting and for the ``check_function_bodies=error`` gate.
SEVERITIES = ("info", "warning", "error")

#: code -> (default severity, short description).  The default is what a
#: non-must-execute occurrence reports; see the module docstring.
CATALOG: dict[str, tuple[str, str]] = {
    "CF000": ("error", "body does not parse or lower"),
    "CF001": ("warning", "unreachable statement"),
    "CF002": ("error", "control cannot reach RETURN on any path"),
    "CF003": ("warning", "control may fall off the end without RETURN"),
    "CF004": ("warning", "loop with no reachable EXIT or RETURN"),
    "DF001": ("warning", "variable may be used before assignment"),
    "DF002": ("warning", "dead store"),
    "DF003": ("warning", "unused variable"),
    "DF004": ("info", "unused parameter"),
    "DF005": ("error", "assignment to undeclared variable"),
    "SQ001": ("error", "unknown table"),
    "SQ002": ("error", "unknown column or other planning error"),
    "SQ003": ("error", "unknown function"),
    "SQ004": ("error", "wrong number of arguments"),
    "SQ005": ("warning", "suspicious literal type"),
    "VL001": ("info", "inferred volatility"),
    "VL002": ("warning", "declared volatility stricter than inferred"),
}

#: Codes whose error default demotes to warning off the must-execute path.
CONDITIONAL_CODES = frozenset({"DF005", "SQ001", "SQ002", "SQ003", "SQ004"})


@dataclass(frozen=True)
class Diagnostic:
    """One analyzer finding, as surfaced by ``CHECK FUNCTION``."""

    function: str
    severity: str  # 'info' | 'warning' | 'error'
    code: str
    message: str
    line: Optional[int] = None

    def row(self) -> list:
        """The CHECK FUNCTION result row."""
        return [self.function, self.severity, self.code, self.line,
                self.message]

    def sort_key(self):
        return (self.line if self.line is not None else 10 ** 9,
                -SEVERITIES.index(self.severity), self.code, self.message)


class DiagnosticSink:
    """Collects diagnostics for one function, applying the must-execute
    demotion rule centrally so no analysis pass can forget it."""

    def __init__(self, function: str):
        self.function = function
        self.items: list[Diagnostic] = []

    def add(self, code: str, message: str, line: Optional[int] = None,
            must_execute: bool = False,
            severity: Optional[str] = None) -> None:
        if severity is None:
            severity = CATALOG[code][0]
            if code in CONDITIONAL_CODES and not must_execute:
                severity = "warning"
        self.items.append(Diagnostic(self.function, severity, code,
                                     message, line))

    def sorted(self) -> list[Diagnostic]:
        return sorted(self.items, key=Diagnostic.sort_key)
