"""GUC-style settings: one declared table, one store, one pointer.

Every setting is declared once, in :data:`SETTINGS`: its **type** (bool /
int / enum), **domain** (choices, minimum), **default** and whether it is
**plan-affecting**.  Values never live anywhere else:

* a :class:`SettingValues` is one immutable assignment of *every* setting,
  carrying the tuple of its plan-affecting values as ``fingerprint``
  (computed when the object is built, not when it is read);
* :attr:`SettingsRegistry.globals` is the database-wide assignment
  (``SET`` on the root session, :meth:`SettingsRegistry.assign`);
  a session's effective values are ``globals`` or
  ``globals.replace(**overlay)``;
* :attr:`SettingsRegistry.active` is what the engine reads - planner,
  executor, interpreter, WAL.  Session activation installs the session's
  values there with one assignment under the execution lock and puts
  ``globals`` back on exit (:class:`repro.sql.session._Activation`).

``SET name = value`` / ``SHOW name`` / ``RESET name`` validate against the
declaration (:class:`SettingError` otherwise).  No assignment invalidates
anything: every cached plan - statement plan-cache key, prepared-statement
stamp, function-body plan - carries the fingerprint it was built under
(:meth:`repro.sql.engine.Database.plan_stamp`), so a plan built under one
combination of flags is simply invisible under any other.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from .errors import SettingError

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Database

_BOOL_WORDS = {
    "true": True, "on": True, "yes": True, "1": True, "t": True,
    "false": False, "off": False, "no": False, "0": False, "f": False,
}


@dataclass(frozen=True)
class Setting:
    """One declared configuration parameter.

    ``plan_affecting`` settings make up the plan fingerprint: cached plans
    depend on their value at plan time.
    """

    name: str
    type: str                       # 'bool' | 'int' | 'enum'
    default: object
    plan_affecting: bool
    description: str
    choices: Optional[tuple[str, ...]] = None
    minimum: Optional[int] = None

    # -- value conversion ------------------------------------------------

    def parse(self, raw) -> object:
        """Coerce *raw* (a literal from SET, or a Python value from the
        programmatic API) into this setting's domain, or raise
        :class:`SettingError`."""
        if self.type == "bool":
            if isinstance(raw, bool):
                return raw
            if isinstance(raw, int) and raw in (0, 1):
                return bool(raw)
            if isinstance(raw, str):
                value = _BOOL_WORDS.get(raw.strip().lower())
                if value is not None:
                    return value
            raise SettingError(
                f"parameter {self.name!r} requires a boolean value "
                f"(got {raw!r})")
        if self.type == "int":
            if isinstance(raw, bool) or not isinstance(raw, (int, float, str)):
                raise SettingError(
                    f"parameter {self.name!r} requires an integer value "
                    f"(got {raw!r})")
            try:
                value = int(str(raw)) if isinstance(raw, str) else int(raw)
            except ValueError:
                raise SettingError(
                    f"parameter {self.name!r} requires an integer value "
                    f"(got {raw!r})")
            if isinstance(raw, float) and raw != value:
                raise SettingError(
                    f"parameter {self.name!r} requires an integer value "
                    f"(got {raw!r})")
            if self.minimum is not None and value < self.minimum:
                raise SettingError(
                    f"{value} is out of range for parameter "
                    f"{self.name!r} (minimum {self.minimum})")
            return value
        # enum
        if not isinstance(raw, str):
            raise SettingError(
                f"parameter {self.name!r} requires one of "
                f"{', '.join(self.choices or ())} (got {raw!r})")
        value = raw.strip().lower()
        if self.choices and value not in self.choices:
            raise SettingError(
                f"invalid value {raw!r} for parameter {self.name!r} "
                f"(one of: {', '.join(self.choices)})")
        return value

    def format(self, value) -> str:
        """Render *value* for SHOW (PostgreSQL style: booleans as on/off)."""
        if self.type == "bool":
            return "on" if value else "off"
        return str(value)

    def enumerable_values(self) -> Optional[tuple]:
        """Every value of a finitely-enumerable domain, or None.

        Bools enumerate to ``(False, True)`` and enums to their declared
        choices; int settings have no finite domain and return None.  This
        is the hook the differential fuzzer's oracle matrix is built from
        (:func:`repro.fuzz.oracle.settings_matrix`): a new planner flag
        declared in :data:`SETTINGS` joins the fuzzed
        configuration space with no fuzzer change.
        """
        if self.type == "bool":
            return (False, True)
        if self.type == "enum":
            return tuple(self.choices or ())
        return None


#: Every setting there is.  The six ``enable_*`` flags and
#: ``batch_compiled`` are the A/B levers of the checked-in benches
#: (bench_joins, bench_ordered_paths, bench_vectorized, bench_batched_udf)
#: and the axes of the fuzzer's settings matrix.
SETTINGS: tuple[Setting, ...] = (
    Setting("enable_rangescan", "bool", True, True,
            "Push range conjuncts into bisect-backed IndexRangeScans."),
    Setting("enable_sort_elim", "bool", True, True,
            "Drop Sort nodes an existing sorted index already satisfies."),
    Setting("enable_topn", "bool", True, True,
            "Fuse constant ORDER BY .. LIMIT into a bounded-heap TopN."),
    Setting("enable_vectorize", "bool", True, True,
            "Run single-table SELECT cores batch-at-a-time (column batches)."),
    Setting("enable_hashjoin", "bool", True, True,
            "Plan equi-joins as build/probe hash joins."),
    Setting("enable_pushdown", "bool", True, True,
            "Push single-relation WHERE conjuncts down to their scans."),
    Setting("batch_compiled", "bool", True, True,
            "Run recursive compiled-UDF calls on the trampoline machine "
            "(one activation per call, memoized by argument values where "
            "the function is not volatile, the results kept by the "
            "function for later statements while the tables they read "
            "are unchanged and committed); off inlines the WITH "
            "RECURSIVE Qf at every site."),
    # PostgreSQL's max_stack_depth: directly recursive SQL UDFs (the
    # paper's intermediate UDF form) blow this quickly.
    Setting("max_udf_depth", "int", 192, False,
            "Stack-depth limit for directly recursive SQL UDFs.",
            minimum=1),
    Setting("max_interp_statements", "int", 10_000_000, False,
            "Statement budget per PL/pgSQL activation (runaway guard).",
            minimum=1),
    Setting("max_recursion_iterations", "int", 10_000_000, False,
            "Iteration limit for WITH RECURSIVE evaluation.", minimum=1),
    Setting("plan_cache_size", "int", 256, False,
            "Maximum cached statement plans (LRU; 0 disables caching).",
            minimum=0),
    Setting("statement_timeout", "int", 0, False,
            "Cancel any statement running longer than this many "
            "milliseconds (0 disables the timeout).", minimum=0),
    # The default is large enough that short-lived test logs never compact
    # behind the tests' backs.
    Setting("wal_checkpoint_interval", "int", 10_000, False,
            "Auto-checkpoint the WAL after this many appended records "
            "(0 disables auto-checkpointing; CHECKPOINT always works).",
            minimum=0),
    # Deliberately not plan_affecting: it gates DDL-time diagnostics,
    # never a plan choice, and must stay out of the fuzzer's
    # settings matrix (plan_axes) and the plan fingerprint.
    Setting("check_function_bodies", "enum", "warn", False,
            "Run the static analyzer at CREATE FUNCTION time: off "
            "(skip), warn (report diagnostics as notices), error "
            "(reject functions with error-severity diagnostics).",
            choices=("off", "warn", "error")),
)

_BY_NAME = {s.name: s for s in SETTINGS}
_PLAN_AFFECTING = tuple(s for s in SETTINGS if s.plan_affecting)


class SettingValues(namedtuple(
        "SettingValues", [s.name for s in SETTINGS] + ["fingerprint"])):
    """One immutable assignment of every setting, plus the tuple of the
    plan-affecting values (``fingerprint``: part of every plan-cache key
    and plan stamp, so it is computed here, once per assignment)."""

    __slots__ = ()

    def replace(self, **changes) -> "SettingValues":
        values = self._replace(**changes)
        return values._replace(fingerprint=tuple(
            getattr(values, s.name) for s in _PLAN_AFFECTING))


DEFAULTS = SettingValues(*(s.default for s in SETTINGS),
                         fingerprint=()).replace()


class SettingsRegistry:
    """The settings store of one :class:`~repro.sql.engine.Database`.

    ``globals`` is the database-wide assignment; ``active`` is what the
    engine reads: the executing session's values while a statement runs
    (installed by session activation), ``globals`` otherwise.
    """

    def __init__(self, db: "Database"):
        self._db = db
        self.globals = DEFAULTS
        self.active = DEFAULTS

    def __iter__(self):
        return iter(SETTINGS)

    def names(self) -> list[str]:
        return sorted(_BY_NAME)

    def lookup(self, name: str) -> Setting:
        setting = _BY_NAME.get(name.lower())
        if setting is None:
            raise SettingError(
                f"unrecognized configuration parameter {name!r}")
        return setting

    def get(self, name: str):
        """Current effective (typed) value of *name*."""
        return getattr(self.active, self.lookup(name).name)

    def show(self, name: str) -> str:
        """Current effective value of *name*, rendered for SHOW."""
        return self.lookup(name).format(self.get(name))

    def plan_axes(self) -> list[tuple[Setting, tuple]]:
        """The machine-enumerable plan-affecting settings with their domains.

        Each entry is ``(setting, values)`` where *values* is the setting's
        full finite domain (see :meth:`Setting.enumerable_values`).  The
        differential fuzzer derives its oracle configuration matrix from
        this list, so the matrix tracks the declarations: adding a planner
        flag to :data:`SETTINGS` is all it takes for the fuzzer to sweep it.
        """
        return [(s, s.enumerable_values()) for s in _PLAN_AFFECTING
                if s.enumerable_values() is not None]

    def assign(self, name: str, raw) -> object:
        """Validate and apply a global assignment; returns the typed value.

        Under the execution lock: no statement of another thread is
        running, so ``active`` is either the old ``globals`` (follow it) or
        the overlay values of a session of this thread (which reinstalls
        its own, see ``Connection._store``).
        """
        setting = self.lookup(name)
        value = setting.parse(raw)
        with self._db._exec_lock:
            if getattr(self.globals, setting.name) != value:
                follow = self.active is self.globals
                self.globals = self.globals.replace(**{setting.name: value})
                if follow:
                    self.active = self.globals
        if setting.name == "plan_cache_size":
            self._db._trim_plan_cache()
        return value
