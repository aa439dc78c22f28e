"""``parse()`` — string parsing via a finite state automaton (Table 1, row 2).

The function consumes its input one character per loop iteration, looking
the transition up in table ``fsm(source, symbol, target)``.  Crucially for
Table 2, the function's loop state carries the *residual input string*
(``rest``) which shrinks by one character per step — compiled to a
recursive CTE, every activation row therefore stores the residue, and
vanilla ``WITH RECURSIVE`` buffers a quadratic number of bytes while
``WITH ITERATE`` buffers none.

The default automaton recognises a classic pattern: comma-separated,
optionally signed decimal numbers (the kind of CSV-cell validation the
follow-up ByePy work also uses).  States::

    0 start        (expect sign or digit)
    1 in integer   (digits; ',' restarts; '.' begins fraction)
    2 after sign   (expect digit)
    3 in fraction  (digits; ',' restarts)

Accepting states: 1 and 3.  parse() returns the number of characters
consumed on success, or ``-position`` of the offending character.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..sql.engine import Database

_DIGITS = "0123456789"


@dataclass
class Fsm:
    """A deterministic finite automaton over single characters."""

    transitions: dict[tuple[int, str], int]
    accepting: set[int]
    start: int = 0

    def step(self, state: int, symbol: str) -> int | None:
        return self.transitions.get((state, symbol))

    def run(self, text: str) -> int:
        """Python oracle mirroring parse(): chars consumed or -position."""
        state = self.start
        for position, symbol in enumerate(text, start=1):
            target = self.step(state, symbol)
            if target is None:
                return -position
            state = target
        return len(text) if state in self.accepting else -len(text) - 1


def csv_number_fsm() -> Fsm:
    """The default automaton described in the module docstring."""
    transitions: dict[tuple[int, str], int] = {}
    for digit in _DIGITS:
        transitions[(0, digit)] = 1
        transitions[(1, digit)] = 1
        transitions[(2, digit)] = 1
        transitions[(3, digit)] = 3
    for sign in "+-":
        transitions[(0, sign)] = 2
    transitions[(1, ".")] = 3
    transitions[(1, ",")] = 0
    transitions[(3, ",")] = 0
    return Fsm(transitions=transitions, accepting={1, 3})


def make_parseable_input(length: int, seed: int = 0) -> str:
    """A random string of exactly *length* characters accepted by the FSM."""
    rng = random.Random(seed)
    out: list[str] = []
    remaining = length
    first = True
    while remaining > 0:
        # Budget for this number: keep at least 2 chars for ",d" if more
        # numbers follow.
        if not first:
            out.append(",")
            remaining -= 1
        number_length = min(remaining, rng.randint(1, 8))
        if remaining - number_length == 1:
            number_length += 1  # never strand a single trailing char budget
        number_length = min(number_length, remaining)
        body = [rng.choice(_DIGITS) for _ in range(number_length)]
        if number_length >= 3 and rng.random() < 0.4:
            body[rng.randint(1, number_length - 2)] = "."
        out.append("".join(body))
        remaining -= number_length
        first = False
    text = "".join(out)
    assert len(text) == length, (len(text), length)
    return text


PARSE_SOURCE = """
CREATE FUNCTION parse(input text) RETURNS int AS $$
DECLARE
  cur int = 0;
  rest text = input;
  chr text;
  nxt int;
  pos int = 0;
BEGIN
  -- consume one character per iteration via the FSM transition table
  WHILE length(rest) > 0 LOOP
    pos = pos + 1;
    chr = left(rest, 1);
    nxt = (SELECT f.target
           FROM fsm AS f
           WHERE f.source = cur AND f.symbol = chr);
    IF nxt IS NULL THEN
      RETURN 0 - pos;          -- reject: position of the offending char
    END IF;
    cur = nxt;
    rest = substr(rest, 2);
  END LOOP;
  IF (SELECT a.is_final FROM fsm_accept AS a WHERE a.state = cur) THEN
    RETURN pos;                -- accept: number of characters consumed
  END IF;
  RETURN 0 - pos - 1;          -- ran dry in a non-accepting state
END;
$$ LANGUAGE PLPGSQL
"""


def setup_parser(db: Database, fsm: Fsm | None = None) -> Fsm:
    """Create ``fsm``, ``fsm_accept``, and the ``parse()`` function."""
    if fsm is None:
        fsm = csv_number_fsm()
    fsm_table = db.catalog.create_table("fsm", ["source", "symbol", "target"],
                                        ["int", "text", "int"])
    for (source, symbol), target in sorted(fsm.transitions.items()):
        fsm_table.insert((source, symbol, target))
    states = {fsm.start} | {s for s, _ in fsm.transitions} \
        | set(fsm.transitions.values()) | fsm.accepting
    accept_table = db.catalog.create_table("fsm_accept", ["state", "is_final"],
                                           ["int", "bool"])
    for state in sorted(states):
        accept_table.insert((state, state in fsm.accepting))
    db.execute(PARSE_SOURCE)
    return fsm
