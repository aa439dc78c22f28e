"""SQL type names, normalization, and CAST semantics.

The engine is dynamically typed at runtime (see :mod:`repro.sql.values`) but
DDL, ``CAST`` expressions, and the compiler's ``WITH RECURSIVE`` template all
mention type names, so we keep a small registry of scalar types plus
user-defined composite types (e.g. the paper's ``coord``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import TypeError_
from .values import Row, Value

#: Canonical scalar type names and the aliases we accept for them.
_SCALAR_ALIASES = {
    "int": "int",
    "integer": "int",
    "int4": "int",
    "int8": "int",
    "bigint": "int",
    "smallint": "int",
    "float": "float",
    "float8": "float",
    "double precision": "float",
    "real": "float",
    "numeric": "float",
    "decimal": "float",
    "text": "text",
    "varchar": "text",
    "char": "text",
    "character varying": "text",
    "bool": "bool",
    "boolean": "bool",
}


def normalize_type_name(name: str) -> str:
    """Map a type name or alias to its canonical form (lower-cased)."""
    lowered = " ".join(name.lower().split())
    return _SCALAR_ALIASES.get(lowered, lowered)


def is_scalar_type(name: str) -> bool:
    return normalize_type_name(name) in {"int", "float", "text", "bool"}


@dataclass(frozen=True)
class CompositeType:
    """A named record type: ``CREATE TYPE name AS (field type, ...)``."""

    name: str
    field_names: tuple[str, ...]
    field_types: tuple[str, ...]

    def make_row(self, values: Sequence[Value]) -> Row:
        if len(values) != len(self.field_names):
            raise TypeError_(
                f"composite type {self.name} has {len(self.field_names)} fields, "
                f"got {len(values)} values")
        return Row(values, names=self.field_names, type_name=self.name)


def cast_value(value: Value, type_name: str,
               composite: CompositeType | None = None) -> Value:
    """Implement ``CAST(value AS type_name)``.

    NULL casts to NULL of any type.  Numeric <-> text casts follow SQL rules
    (text must look like a literal of the target type).  Casting a bare
    unnamed row to a composite type attaches that type's field names.
    """
    if value is None:
        return None
    target = normalize_type_name(type_name)
    if target == "int":
        if isinstance(value, bool):
            return int(value)
        if isinstance(value, (int, float)):
            # SQL rounds half away from zero; Python's round is banker's.
            if isinstance(value, float):
                import math
                if not math.isfinite(value):
                    raise TypeError_(f"cannot cast {value!r} to int")
                return int(math.floor(value + 0.5)) if value >= 0 else int(math.ceil(value - 0.5))
            return int(value)
        if isinstance(value, str):
            try:
                return int(value.strip())
            except ValueError:
                raise TypeError_(f"invalid input syntax for type int: {value!r}")
        raise TypeError_(f"cannot cast {type(value).__name__} to int")
    if target == "float":
        if isinstance(value, bool):
            raise TypeError_("cannot cast boolean to float")
        if isinstance(value, (int, float)):
            return float(value)
        if isinstance(value, str):
            try:
                return float(value.strip())
            except ValueError:
                raise TypeError_(f"invalid input syntax for type float: {value!r}")
        raise TypeError_(f"cannot cast {type(value).__name__} to float")
    if target == "text":
        from .values import render_value
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, (int, float, str)):
            return str(value)
        return render_value(value)
    if target == "bool":
        if isinstance(value, bool):
            return value
        if isinstance(value, str):
            lowered = value.strip().lower()
            if lowered in ("t", "true", "yes", "on", "1"):
                return True
            if lowered in ("f", "false", "no", "off", "0"):
                return False
            raise TypeError_(f"invalid input syntax for type boolean: {value!r}")
        if isinstance(value, int):
            return bool(value)
        raise TypeError_(f"cannot cast {type(value).__name__} to bool")
    # Composite target
    if composite is not None:
        if isinstance(value, Row):
            return composite.make_row(value.values)
        raise TypeError_(f"cannot cast {type(value).__name__} to {composite.name}")
    if isinstance(value, Row):
        # Unknown composite name: leave the row as-is but tag the type name.
        return Row(value.values, names=value.names, type_name=target)
    raise TypeError_(f"unknown type name in CAST: {type_name!r}")
