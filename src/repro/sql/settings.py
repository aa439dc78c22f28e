"""GUC-style settings registry: declarative, validated engine configuration.

Before this module, plan-affecting knobs were bare attributes
(``db.planner.enable_rangescan = False``) that the caller had to remember to
follow with ``db.clear_plan_cache()`` — forget it and cached plans keep the
old strategy.  The registry replaces that imperative knob-poking with a
declarative surface (``SET name = value`` / ``SHOW name`` / ``RESET name``):

* every setting declares its **type** (bool / int / enum), **domain**
  (choices, minimum) and whether it is **plan-affecting**,
* values are validated before they are applied (`SettingError` otherwise),
* the tuple of all plan-affecting values is the :meth:`~SettingsRegistry.
  fingerprint` — part of every statement-plan-cache key and of every
  prepared-statement stamp, so a plan-affecting change can never resurrect
  a plan built under different flags,
* assigning a plan-affecting setting through :meth:`SettingsRegistry.assign`
  additionally clears the function-body plan caches (the part the
  fingerprint cannot reach), replacing the manual ``clear_plan_cache()``
  idiom.

Settings are *bound* to the pre-existing attributes on
:class:`~repro.sql.engine.Database` and :class:`~repro.sql.planner.Planner`
rather than duplicated: direct attribute access (the legacy surface, still
used by tests and benchmarks) and SET/SHOW always agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import TYPE_CHECKING, Optional, Sequence

from .errors import SettingError

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Database

_BOOL_WORDS = {
    "true": True, "on": True, "yes": True, "1": True, "t": True,
    "false": False, "off": False, "no": False, "0": False, "f": False,
}


@dataclass(frozen=True)
class Setting:
    """One registered configuration parameter.

    ``scope`` names the object carrying the backing attribute (``"db"`` or
    ``"planner"``); ``attr`` the attribute itself.  ``plan_affecting``
    settings participate in the plan fingerprint: cached plans depend on
    their value at plan time.
    """

    name: str
    scope: str                      # 'db' | 'planner'
    attr: str
    type: str                       # 'bool' | 'int' | 'enum'
    plan_affecting: bool
    description: str
    choices: Optional[tuple[str, ...]] = None
    minimum: Optional[int] = None

    def _target(self, db: "Database"):
        return db if self.scope == "db" else db.planner

    def get(self, db: "Database"):
        return getattr(self._target(db), self.attr)

    def set_raw(self, db: "Database", value) -> None:
        """Write the backing attribute without any validation or cache
        invalidation (session overlays use this: the value was validated
        when it entered the overlay, and plan correctness is carried by the
        fingerprint in the plan-cache keys)."""
        setattr(self._target(db), self.attr, value)

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
        declared in :func:`_default_settings` joins the fuzzed
        configuration space with no fuzzer change.
        """
        if self.type == "bool":
            return (False, True)
        if self.type == "enum":
            return tuple(self.choices or ())
        return None


def _default_settings() -> list[Setting]:
    planner_flags = [
        ("enable_rangescan",
         "Push range conjuncts into bisect-backed IndexRangeScans."),
        ("enable_sort_elim",
         "Drop Sort nodes an existing sorted index already satisfies."),
        ("enable_topn",
         "Fuse constant ORDER BY .. LIMIT into a bounded-heap TopN."),
        ("enable_mergejoin",
         "Merge join when both equi-join inputs are index-ordered."),
        ("enable_vectorize",
         "Run single-table SELECT cores batch-at-a-time (column batches)."),
        ("enable_hashjoin",
         "Plan equi-joins as build/probe hash joins."),
        ("enable_pushdown",
         "Push single-relation WHERE conjuncts down to their scans."),
        ("batch_compiled",
         "Run recursive compiled-UDF calls on the trampoline machine "
         "(BatchedUdf where safe, else one activation per call); off "
         "inlines the WITH RECURSIVE Qf at every site."),
    ]
    settings = [
        Setting(name, "planner", name, "bool", True, description)
        for name, description in planner_flags
    ]
    settings.extend([
        Setting("max_udf_depth", "db", "max_udf_depth", "int", False,
                "Stack-depth limit for directly recursive SQL UDFs.",
                minimum=1),
        Setting("max_interp_statements", "db", "max_interp_statements",
                "int", False,
                "Statement budget per PL/pgSQL activation (runaway guard).",
                minimum=1),
        Setting("max_recursion_iterations", "db",
                "max_recursion_iterations", "int", False,
                "Iteration limit for WITH RECURSIVE evaluation.", minimum=1),
        Setting("plan_cache_size", "db", "plan_cache_size", "int", False,
                "Maximum cached statement plans (LRU; 0 disables caching).",
                minimum=0),
        Setting("plan_cache_enabled", "db", "plan_cache_enabled", "bool",
                False, "Master switch for the statement plan cache."),
        Setting("statement_timeout", "db", "statement_timeout", "int", False,
                "Cancel any statement running longer than this many "
                "milliseconds (0 disables the timeout).", minimum=0),
        Setting("wal_checkpoint_interval", "db", "wal_checkpoint_interval",
                "int", False,
                "Auto-checkpoint the WAL after this many appended records "
                "(0 disables auto-checkpointing; CHECKPOINT always works).",
                minimum=0),
        # Deliberately not plan_affecting: it gates DDL-time diagnostics,
        # never a plan choice, and must stay out of the fuzzer's
        # settings matrix (plan_axes) and the plan fingerprint.
        Setting("check_function_bodies", "db", "check_function_bodies",
                "enum", False,
                "Run the static analyzer at CREATE FUNCTION time: off "
                "(skip), warn (report diagnostics as notices), error "
                "(reject functions with error-severity diagnostics).",
                choices=("off", "warn", "error")),
    ])
    return settings


def _tuple_getter(attrs: list[str]):
    """A callable reading *attrs* off one object as a tuple, C-fast."""
    if not attrs:
        empty = ()
        return lambda obj: empty
    if len(attrs) == 1:
        single = attrgetter(attrs[0])
        return lambda obj: (single(obj),)
    return attrgetter(*attrs)


class SettingsRegistry:
    """All registered settings of one :class:`~repro.sql.engine.Database`.

    The registry itself is stateless about values — it reads and writes the
    backing attributes — so the legacy attribute-poking surface and SET/SHOW
    can never disagree.
    """

    def __init__(self, db: "Database"):
        self._db = db
        self._settings: dict[str, Setting] = {
            s.name: s for s in _default_settings()}
        self._plan_affecting: tuple[Setting, ...] = tuple(
            s for s in self._settings.values() if s.plan_affecting)
        # Composite attrgetters make fingerprint() two C calls instead of
        # a Python-level get() per setting — it runs on every prepared
        # execution and every plan-cache probe, which the wire server
        # turned into a per-request cost.  (Values are still read live:
        # tests poke backing attributes directly, so caching the tuple
        # would go stale.)
        self._fp_db_get = _tuple_getter(
            [s.attr for s in self._plan_affecting if s.scope == "db"])
        self._fp_planner_get = _tuple_getter(
            [s.attr for s in self._plan_affecting if s.scope == "planner"])

    def __iter__(self):
        return iter(self._settings.values())

    def names(self) -> list[str]:
        return sorted(self._settings)

    def lookup(self, name: str) -> Setting:
        setting = self._settings.get(name.lower())
        if setting is None:
            raise SettingError(
                f"unrecognized configuration parameter {name!r}")
        return setting

    def get(self, name: str):
        """Current effective (typed) value of *name*."""
        return self.lookup(name).get(self._db)

    def show(self, name: str) -> str:
        """Current effective value of *name*, rendered for SHOW."""
        setting = self.lookup(name)
        return setting.format(setting.get(self._db))

    def defaults(self) -> dict[str, object]:
        """The boot-time defaults, captured by :class:`~repro.sql.engine.
        Database` right after construction (RESET targets)."""
        return {name: s.get(self._db) for name, s in self._settings.items()}

    def plan_axes(self) -> list[tuple[Setting, tuple]]:
        """The machine-enumerable plan-affecting settings with their domains.

        Each entry is ``(setting, values)`` where *values* is the setting's
        full finite domain (see :meth:`Setting.enumerable_values`).  The
        differential fuzzer derives its oracle configuration matrix from
        this list, so the matrix tracks the registry: adding a planner flag
        here is all it takes for the fuzzer to sweep it.
        """
        return [(s, s.enumerable_values()) for s in self._plan_affecting
                if s.enumerable_values() is not None]

    def fingerprint(self) -> tuple:
        """The tuple of all plan-affecting values, read live.

        Part of every statement-plan-cache key and prepared-statement
        stamp: a plan built under one fingerprint is invisible under any
        other, which is what makes SET safe without manual
        ``clear_plan_cache()`` calls — including for per-session overlays
        that swap values around single statements.
        """
        db = self._db
        return self._fp_db_get(db) + self._fp_planner_get(db.planner)

    def assign(self, name: str, raw) -> object:
        """Validate and apply a global assignment; returns the typed value.

        Plan-affecting changes also drop the function-body plan caches
        (compiled/SQL function bodies are not fingerprint-stamped), so the
        next call replans under the new flags — the automatic version of
        the manual ``clear_plan_cache()`` idiom.
        """
        setting = self.lookup(name)
        value = setting.parse(raw)
        changed = setting.get(self._db) != value
        setting.set_raw(self._db, value)
        if changed and setting.plan_affecting:
            self._db.clear_plan_cache()
        if setting.name == "plan_cache_size":
            self._db._trim_plan_cache()
        return value

    def reset(self, name: str) -> object:
        """Restore *name* to its boot-time default (global scope)."""
        setting = self.lookup(name)
        return self.assign(setting.name,
                           self._db._setting_defaults[setting.name])
