"""Literal twins: a generated statement with its literals re-drawn.

The text cache plans a statement's *shape* once - its literals become
parameters - and runs that plan for every text of the shape whose guard
holds (the literals a plan-time choice read keep their values).  A twin
is a text of the original's shape with every other literal re-drawn, so
the oracle runs it on the plan the original's text left in the cache and,
under ``plan_cache_size = 0``, on a plan of its own (see
``DifferentialChecker.check_case``): a value a plan depends on that its
guard does not hold shows as a difference.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.sql.errors import ParseError
from repro.sql.lexer import NUMBER, PARAM, QIDENT, STRING, tokenize


def _redraw(value, rng: random.Random):
    """Another value of *value*'s own type, mostly near it, and never
    negative (a sign is a token of its own: another shape)."""
    if type(value) is int:
        if rng.random() < 0.5:
            return max(0, value + rng.choice((-1, 1)))
        return rng.randrange(0, 2 * value + 10)
    if type(value) is float:
        return abs(round(value + rng.uniform(-2.0, 2.0), 2))
    return rng.choice((value, value[:-1], value + "a", "", "a", "b"))


def _spell(kind: str, value) -> str:
    if kind == STRING:
        return "'" + value.replace("'", "''") + "'"
    if kind == QIDENT:
        return '"' + value.replace('"', '""') + '"'
    if kind == NUMBER:
        return repr(value)
    if kind == PARAM:
        return f"${value}"
    return str(value)


def literal_twin(sql: str, rng: random.Random,
                 kept=frozenset()) -> Optional[str]:
    """*sql* with each int / float / text literal re-drawn from its own
    type but those whose positions (in text order) are *kept*, spelled
    one token at a time; None when it has no other literal (or does not
    lex)."""
    try:
        tokens = tokenize(sql)
    except ParseError:
        return None
    spelled, position = [], 0
    for token in tokens[:-1]:  # the EOF
        value = token.value
        if token.type in (NUMBER, STRING):
            if position not in kept:
                value = _redraw(value, rng)
            position += 1
        spelled.append(_spell(token.type, value))
    if position <= len(kept):
        return None
    return " ".join(spelled)
