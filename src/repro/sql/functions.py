"""Builtin scalar functions, aggregates, and window functions.

Scalar builtins receive a :class:`~repro.sql.expr.RuntimeContext`-like
object (anything with an ``rng`` attribute and a ``catalog``) as their first
argument so that, e.g.,
``random()`` draws from the engine's seedable RNG — determinism matters for
the interpreted-vs-compiled equivalence tests.

Aggregates are small state machines (`create` / `step` / `final`) shared by
the GROUP BY executor and the window executor, which evaluates them over
frames (the paper's Q2 needs ``SUM(...) OVER`` with ``ROWS UNBOUNDED
PRECEDING EXCLUDE CURRENT ROW``).
"""

from __future__ import annotations

import functools
import inspect
import math
from typing import Any, Callable, Optional

from .errors import ExecutionError, NoReturnError, TypeError_
from .values import Value, compare

# ---------------------------------------------------------------------------
# Scalar builtins
# ---------------------------------------------------------------------------


def _strict(fn: Callable) -> Callable:
    """Wrap *fn* so that any NULL argument yields NULL (SQL STRICT)."""

    @functools.wraps(fn)
    def wrapper(ctx, *args):
        if any(a is None for a in args):
            return None
        return fn(ctx, *args)

    return wrapper


def _num(x: Value, what: str) -> float | int:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise TypeError_(f"{what} expects a number, got {type(x).__name__}")
    return x


@_strict
def _fn_sign(ctx, x):
    x = _num(x, "sign")
    return (x > 0) - (x < 0)


@_strict
def _fn_abs(ctx, x):
    return abs(_num(x, "abs"))


@_strict
def _fn_mod(ctx, a, b):
    if b == 0:
        raise ExecutionError("division by zero")
    result = math.fmod(a, b)
    return int(result) if isinstance(a, int) and isinstance(b, int) else result


@_strict
def _fn_power(ctx, a, b):
    return float(a) ** float(b)


@_strict
def _fn_sqrt(ctx, x):
    if x < 0:
        raise ExecutionError("cannot take square root of a negative number")
    return math.sqrt(x)


@_strict
def _fn_floor(ctx, x):
    return math.floor(_num(x, "floor"))


@_strict
def _fn_ceil(ctx, x):
    return math.ceil(_num(x, "ceil"))


#: PostgreSQL's NUMERIC_MAX_RESULT_SCALE: ``round`` and ``trunc`` clamp
#: their scale to +- this, so the scale factor stays bounded.
MAX_RESULT_SCALE = 2000

#: PostgreSQL's MaxAllocSize: ``repeat`` refuses a longer result.
MAX_ALLOC_SIZE = 0x3FFFFFFF


def _scale(digits):
    return max(-MAX_RESULT_SCALE, min(digits, MAX_RESULT_SCALE))


def _at_scale(x, digits, to_int):
    """*x* cut to *digits* places by *to_int*.  Past the float range a
    positive scale leaves *x* as it is, a negative one gives 0, as in
    PostgreSQL."""
    digits = _scale(digits)
    factor = 10 ** digits
    try:
        result = to_int(x * factor) / factor
    except OverflowError:
        if digits <= 0:
            raise
        result = float(x)
    except ZeroDivisionError:
        result = 0
    return int(result) if digits <= 0 else result


@_strict
def _fn_round(ctx, x, digits=0):
    return _at_scale(_num(x, "round"), digits,
                     lambda v: math.floor(v + 0.5) if v >= 0
                     else math.ceil(v - 0.5))


@_strict
def _fn_trunc(ctx, x, digits=0):
    return _at_scale(_num(x, "trunc"), digits, math.trunc)


@_strict
def _fn_exp(ctx, x):
    return math.exp(x)


@_strict
def _fn_ln(ctx, x):
    if x <= 0:
        raise ExecutionError("cannot take logarithm of a non-positive number")
    return math.log(x)


@_strict
def _fn_length(ctx, s):
    if isinstance(s, str):
        return len(s)
    raise TypeError_("length expects text")


@_strict
def _fn_substr(ctx, s, start, count=None):
    if not isinstance(s, str):
        raise TypeError_("substr expects text")
    start = int(start)
    if count is not None and count < 0:
        raise ExecutionError("negative substring length not allowed")
    # SQL substr is 1-based and tolerates out-of-range starts.
    begin = max(start, 1)
    if count is None:
        end = len(s) + 1
    else:
        end = start + count
    if end <= begin:
        return ""
    return s[begin - 1:end - 1]


@_strict
def _fn_left(ctx, s, n):
    n = int(n)
    return s[:n] if n >= 0 else s[:len(s) + n]


@_strict
def _fn_right(ctx, s, n):
    n = int(n)
    if n >= 0:
        return s[len(s) - n:] if n <= len(s) else s
    return s[-n:]


@_strict
def _fn_upper(ctx, s):
    return s.upper()


@_strict
def _fn_lower(ctx, s):
    return s.lower()


@_strict
def _fn_strpos(ctx, s, sub):
    return s.find(sub) + 1


@_strict
def _fn_replace(ctx, s, old, new):
    return s.replace(old, new)


@_strict
def _fn_repeat(ctx, s, n):
    count = max(int(n), 0)
    if len(s) * count > MAX_ALLOC_SIZE:
        raise ExecutionError("requested length too large")
    return s * count


@_strict
def _fn_reverse(ctx, s):
    return s[::-1]


@_strict
def _fn_btrim(ctx, s, chars=" "):
    return s.strip(chars)


@_strict
def _fn_ltrim(ctx, s, chars=" "):
    return s.lstrip(chars)


@_strict
def _fn_rtrim(ctx, s, chars=" "):
    return s.rstrip(chars)


@_strict
def _fn_ascii(ctx, s):
    if not s:
        raise ExecutionError("ascii() of empty string")
    return ord(s[0])


@_strict
def _fn_chr(ctx, n):
    return chr(int(n))


def _fn_concat(ctx, *args):
    # concat ignores NULLs (unlike ||).
    return "".join("" if a is None else _render_text(a) for a in args)


def _render_text(value: Value) -> str:
    from .values import render_value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return value
    return render_value(value)


def _fn_random(ctx):
    return ctx.rng.random()


@_strict
def _fn_setseed(ctx, seed):
    ctx.rng.seed(seed)
    return None


def _fn_greatest(ctx, *args):
    best = None
    for a in args:
        if a is None:
            continue
        if best is None or compare(a, best) > 0:
            best = a
    return best


def _fn_least(ctx, *args):
    best = None
    for a in args:
        if a is None:
            continue
        if best is None or compare(a, best) < 0:
            best = a
    return best


def _fn_nullif(ctx, a, b):
    c = compare(a, b)
    return None if c == 0 else a


@_strict
def _fn_array_length(ctx, arr, dim=1):
    if not isinstance(arr, list):
        raise TypeError_("array_length expects an array")
    if dim != 1:
        return None
    return len(arr) if arr else None


@_strict
def _fn_cardinality(ctx, arr):
    if not isinstance(arr, list):
        raise TypeError_("cardinality expects an array")
    return len(arr)


def _fn_array_append(ctx, arr, item):
    if arr is None:
        arr = []
    if not isinstance(arr, list):
        raise TypeError_("array_append expects an array")
    return list(arr) + [item]


@_strict
def _fn_string_to_array(ctx, s, sep):
    if sep == "":
        return [s]
    return s.split(sep)


@_strict
def _fn_array_to_string(ctx, arr, sep):
    return sep.join(_render_text(v) for v in arr if v is not None)


@_strict
def _fn_pi(ctx):
    return math.pi


def _fn_no_return(ctx, func_name):
    # Planted by the CFG builder on the synthetic fall-off-the-end edge of
    # compiled PL/pgSQL functions; reaching it at run time reproduces
    # PostgreSQL's SQLSTATE 2F005.  Deliberately not @_strict and listed in
    # VOLATILE_FUNCTIONS so it is never constant-folded away.
    raise NoReturnError(
        f"control reached end of function {func_name}() without RETURN")


SCALAR_BUILTINS: dict[str, Callable] = {
    "sign": _fn_sign,
    "abs": _fn_abs,
    "mod": _fn_mod,
    "power": _fn_power,
    "pow": _fn_power,
    "sqrt": _fn_sqrt,
    "floor": _fn_floor,
    "ceil": _fn_ceil,
    "ceiling": _fn_ceil,
    "round": _fn_round,
    "trunc": _fn_trunc,
    "exp": _fn_exp,
    "ln": _fn_ln,
    "length": _fn_length,
    "char_length": _fn_length,
    "character_length": _fn_length,
    "substr": _fn_substr,
    "substring": _fn_substr,
    "left": _fn_left,
    "right": _fn_right,
    "upper": _fn_upper,
    "lower": _fn_lower,
    "strpos": _fn_strpos,
    "position": _fn_strpos,
    "replace": _fn_replace,
    "repeat": _fn_repeat,
    "reverse": _fn_reverse,
    "btrim": _fn_btrim,
    "trim": _fn_btrim,
    "ltrim": _fn_ltrim,
    "rtrim": _fn_rtrim,
    "ascii": _fn_ascii,
    "chr": _fn_chr,
    "concat": _fn_concat,
    "random": _fn_random,
    "setseed": _fn_setseed,
    "greatest": _fn_greatest,
    "least": _fn_least,
    "nullif": _fn_nullif,
    "array_length": _fn_array_length,
    "cardinality": _fn_cardinality,
    "array_append": _fn_array_append,
    "string_to_array": _fn_string_to_array,
    "array_to_string": _fn_array_to_string,
    "pi": _fn_pi,
    "__no_return": _fn_no_return,
}


def _arity(fn: Callable) -> tuple[int, Optional[int]]:
    """(fewest, most) arguments *fn* takes, its context aside; (0, None)
    for a variadic builtin, which takes any number."""
    params = list(inspect.signature(fn).parameters.values())[1:]
    if any(p.kind is p.VAR_POSITIONAL for p in params):
        return 0, None
    return sum(p.default is p.empty for p in params), len(params)


#: name -> (fewest, most) arguments, derived once from each signature.
BUILTIN_ARITY = {name: _arity(fn) for name, fn in SCALAR_BUILTINS.items()}

#: Builtins whose value may change between calls — never constant-folded and
#: re-evaluated per row even with constant arguments.  ``__no_return``
#: raises instead of returning, so folding it would turn a reachable
#: fall-off-the-end into a create-time failure.
VOLATILE_FUNCTIONS = {"random", "setseed", "__no_return"}


# ---------------------------------------------------------------------------
# Aggregates
# ---------------------------------------------------------------------------


class Aggregate:
    """Interface for aggregate state machines."""

    name = "?"

    def create(self) -> Any:
        raise NotImplementedError

    def step(self, state: Any, value: Value) -> Any:
        raise NotImplementedError

    def final(self, state: Any) -> Value:
        raise NotImplementedError


class CountAgg(Aggregate):
    name = "count"

    def __init__(self, star: bool):
        self.star = star

    def create(self):
        return 0

    def step(self, state, value):
        if self.star or value is not None:
            return state + 1
        return state

    def final(self, state):
        return state


class SumAgg(Aggregate):
    name = "sum"

    def create(self):
        return None

    def step(self, state, value):
        if value is None:
            return state
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeError_("sum expects numbers")
        return value if state is None else state + value

    def final(self, state):
        return state


class AvgAgg(Aggregate):
    name = "avg"

    def create(self):
        # The running total starts as exact int 0, not float 0.0: integer
        # input then accumulates losslessly (Python bigints), like
        # PostgreSQL's numeric avg(int).  Seeding with a float made the
        # whole sum float, so avg over large ints depended on row order —
        # avg of {7, -2^63, 2^63} came out 0.0 or 7/3 depending on the
        # access path (found by differential fuzzing, seed 2001273).
        return (0, 0)

    def step(self, state, value):
        if value is None:
            return state
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeError_("avg expects numbers")
        count, total = state
        return (count + 1, total + value)

    def final(self, state):
        count, total = state
        return None if count == 0 else total / count


class MinMaxAgg(Aggregate):
    def __init__(self, want_max: bool):
        self.want_max = want_max
        self.name = "max" if want_max else "min"

    def create(self):
        return None

    def step(self, state, value):
        if value is None:
            return state
        if state is None:
            return value
        c = compare(value, state)
        if c is None:
            return state
        if (c > 0) == self.want_max and c != 0:
            return value
        return state

    def final(self, state):
        return state


class BoolAgg(Aggregate):
    def __init__(self, is_and: bool):
        self.is_and = is_and
        self.name = "bool_and" if is_and else "bool_or"

    def create(self):
        return None

    def step(self, state, value):
        if value is None:
            return state
        if not isinstance(value, bool):
            raise TypeError_(f"{self.name} expects booleans")
        if state is None:
            return value
        return (state and value) if self.is_and else (state or value)

    def final(self, state):
        return state


class ArrayAgg(Aggregate):
    name = "array_agg"

    def create(self):
        return []

    def step(self, state, value):
        state.append(value)
        return state

    def final(self, state):
        return list(state) if state else None


class StringAgg(Aggregate):
    """string_agg(value, sep) — the separator is bound at construction."""

    name = "string_agg"

    def __init__(self, separator: str = ""):
        self.separator = separator

    def create(self):
        return None

    def step(self, state, value):
        if value is None:
            return state
        if state is None:
            return str(value)
        return state + self.separator + str(value)

    def final(self, state):
        return state


AGGREGATE_NAMES = {"count", "sum", "avg", "min", "max", "bool_and", "bool_or",
                   "every", "array_agg", "string_agg"}


def make_aggregate(name: str, star: bool = False, separator=None,
                   ctx=None) -> Aggregate:
    """Instantiate the aggregate *name* (already validated to be aggregate);
    string_agg's compiled *separator* is evaluated in *ctx*, once per
    execution."""
    lowered = name.lower()
    if lowered == "count":
        return CountAgg(star)
    if lowered == "sum":
        return SumAgg()
    if lowered == "avg":
        return AvgAgg()
    if lowered == "min":
        return MinMaxAgg(want_max=False)
    if lowered == "max":
        return MinMaxAgg(want_max=True)
    if lowered in ("bool_and", "every"):
        return BoolAgg(is_and=True)
    if lowered == "bool_or":
        return BoolAgg(is_and=False)
    if lowered == "array_agg":
        return ArrayAgg()
    if lowered == "string_agg":
        return StringAgg(str(separator(ctx)))
    raise ExecutionError(f"unknown aggregate {name!r}")


#: Pure window functions (not aggregates evaluated over frames).
WINDOW_FUNCTION_NAMES = {"row_number", "rank", "dense_rank", "lag", "lead",
                         "first_value", "last_value", "nth_value", "ntile"}


def is_aggregate_name(name: str) -> bool:
    return name.lower() in AGGREGATE_NAMES


def is_window_function_name(name: str) -> bool:
    return name.lower() in WINDOW_FUNCTION_NAMES
