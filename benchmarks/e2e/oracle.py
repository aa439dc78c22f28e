"""Independent answer oracles and the failure tally.

Nothing here asks the engine under test what the right answer is.
Expected results come from a Python ``dict`` model (point reads, final
balances), from pure-Python folds over the generated rows (aggregates and
joins), from :meth:`repro.workloads.parser_fsm.Fsm.run` (``parse``) and
from a walk simulator drawing from the same ``random.Random`` stream that
``setseed`` installs (``walk``; :func:`walks` with one call is
``repro.workloads.robot.walk_reference``, which the smoke test asserts).

The same module counts what goes wrong: SQL errors, 53300/57P05
refusals, dropped connections and wrong answers all land in
:class:`Tally`, and ``failed`` is their sum.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Optional, Sequence

from repro.server import ServerError
from repro.workloads.robot import GridWorld, value_iteration

#: SQLSTATEs the server uses to refuse or drop a session rather than to
#: fail one statement: admission control and the idle reaper.
REFUSALS = {"53300", "57P05"}


class Tally:
    """Attempted operations and why some of them did not count."""

    __slots__ = ("attempted", "errors", "refusals", "wrong",
                 "serialization_failures")

    def __init__(self):
        self.attempted = 0
        self.errors = 0
        self.refusals = 0
        self.wrong = 0
        self.serialization_failures = 0

    @property
    def failed(self) -> int:
        return self.errors + self.refusals + self.wrong

    def record_exception(self, exc: BaseException) -> None:
        if isinstance(exc, ServerError) and exc.sqlstate in REFUSALS:
            self.refusals += 1
        else:
            self.errors += 1
        if isinstance(exc, ServerError) and exc.sqlstate == "40001":
            self.serialization_failures += 1

    def merge(self, other: "Tally") -> None:
        for name in self.__slots__:
            setattr(self, name, getattr(self, name) + getattr(other, name))


# ---------------------------------------------------------------------------
# Comparing a wire result (text columns) with expected Python values
# ---------------------------------------------------------------------------

def value_matches(wire: Optional[str], expected) -> bool:
    """One text cell against one expected Python value."""
    if expected is None or wire is None:
        return expected is None and wire is None
    if isinstance(expected, bool):
        return wire == ("true" if expected else "false")
    try:
        if isinstance(expected, int):
            return int(wire) == expected
        if isinstance(expected, float):
            return math.isclose(float(wire), expected,
                                rel_tol=1e-9, abs_tol=1e-9)
    except ValueError:
        return False
    return wire == expected


def rows_match(wire_rows, expected_rows) -> bool:
    if wire_rows is None or len(wire_rows) != len(expected_rows):
        return False
    for wire_row, expected_row in zip(wire_rows, expected_rows):
        if len(wire_row) != len(expected_row):
            return False
        for wire, expected in zip(wire_row, expected_row):
            if not value_matches(wire, expected):
                return False
    return True


class Rows:
    """Expect exactly these rows, in this order."""

    __slots__ = ("rows",)

    def __init__(self, rows: Sequence[tuple]):
        self.rows = rows

    def __call__(self, result) -> bool:
        return rows_match(result.rows, self.rows)


class Fold:
    """Expect the rows ``fold(*args)`` returns: in that order, or, with
    ``ordered=False`` (a statement without ORDER BY whose first column is
    a unique integer), matched up by that column.  The fold runs when an
    answer is checked, not when the stream is built."""

    __slots__ = ("fold", "args", "ordered")

    def __init__(self, fold: Callable, *args, ordered: bool = True):
        self.fold = fold
        self.args = args
        self.ordered = ordered

    def __call__(self, result) -> bool:
        wire_rows, expected = result.rows, self.fold(*self.args)
        if not self.ordered and wire_rows is not None:
            try:
                wire_rows = sorted(wire_rows, key=lambda row: int(row[0]))
            except (TypeError, ValueError, IndexError):
                return False
            expected = sorted(expected, key=lambda row: row[0])
        return rows_match(wire_rows, expected)


class Tag:
    """Expect a row-less statement with this CommandComplete tag."""

    __slots__ = ("tag",)

    def __init__(self, tag: str):
        self.tag = tag

    def __call__(self, result) -> bool:
        return result.command_tag == self.tag


def anything(result) -> bool:
    """For statements whose answer carries no information (``setseed``)."""
    return True


def check_op(results: Sequence[list], expects: Sequence[Callable]) -> bool:
    """*results* holds one ``WireClient.query`` return value per statement
    of the operation; every statement must satisfy its expectation."""
    for statement_results, expect in zip(results, expects):
        if len(statement_results) != 1 or not expect(statement_results[0]):
            return False
    return True


# ---------------------------------------------------------------------------
# Folds over generated rows (analytic_scan, adhoc_plan)
# ---------------------------------------------------------------------------

def filtered_aggregate(facts, threshold: int) -> list[tuple]:
    """``SELECT count(*), sum(v) FROM facts WHERE k + v < t``"""
    values = [v for (_id, _grp, k, v) in facts if k + v < threshold]
    return [(len(values), sum(values) if values else None)]


def grouped_aggregate(facts, threshold: int) -> list[tuple]:
    """``SELECT grp, count(*), sum(v), avg(v) ... WHERE k + v >= t GROUP BY
    grp``, by group"""
    groups: dict[int, list[int]] = {}
    for (_id, grp, k, v) in facts:
        if k + v >= threshold:
            groups.setdefault(grp, []).append(v)
    return [(grp, len(vs), sum(vs), sum(vs) / len(vs))
            for grp, vs in sorted(groups.items())]


def join_topn(orders, custs, segs, k_below: int, w_below: int,
              limit: int) -> list[tuple]:
    """orders JOIN custs JOIN segs, filtered, ``ORDER BY v DESC, id LIMIT``"""
    cust_by_id = {cid: (seg, name) for (cid, seg, name) in custs}
    seg_by_id = {sid: (label, w) for (sid, label, w) in segs}
    out = []
    for (oid, cust, k, v) in orders:
        if k >= k_below:
            continue
        seg, name = cust_by_id[cust]
        label, w = seg_by_id[seg]
        if w < w_below:
            out.append((oid, name, label, v))
    out.sort(key=lambda row: (-row[3], row[0]))
    return out[:limit]


def item_point(items_by_id, key: int, bump: int) -> list[tuple]:
    """``SELECT name, price + bump FROM items WHERE id = key``"""
    item = items_by_id.get(key)
    return [] if item is None else [(item[3], item[2] + bump)]


def item_join(items, cats_by_id, price_below: int,
              cat_below: int) -> list[tuple]:
    """items JOIN cats filtered on both sides, ``ORDER BY i.id``"""
    return [(name, cats_by_id[cat])
            for (_id, cat, price, name) in items
            if price < price_below and cat < cat_below]


def item_having(items, price_above: int, min_count: int) -> list[tuple]:
    """``... WHERE price > p GROUP BY cat HAVING count(*) > h ORDER BY cat``"""
    groups: dict[int, list[int]] = {}
    for (_id, cat, price, _name) in items:
        if price > price_above:
            groups.setdefault(cat, []).append(price)
    return [(cat, len(ps), sum(ps)) for cat, ps in sorted(groups.items())
            if len(ps) > min_count]


def item_topn(items, cat: int, not_price: int, limit: int) -> list[tuple]:
    """``... WHERE cat = c AND price <> p ORDER BY price DESC, id LIMIT l``"""
    hits = [(iid, price) for (iid, c, price, _name) in items
            if c == cat and price != not_price]
    hits.sort(key=lambda row: (-row[1], row[0]))
    return hits[:limit]


# ---------------------------------------------------------------------------
# walk(): the robot simulator under a shared RNG stream
# ---------------------------------------------------------------------------

class WalkOracle:
    """``walk()`` called *calls* times in a row after one ``setseed``.

    Step logic is :func:`repro.workloads.robot.walk_reference`'s; the
    difference is that consecutive calls keep drawing from one
    ``random.Random(seed)`` (what the engine's ``setseed`` + per-row
    ``random()`` does), and that the policy and the sorted outcome lists
    are computed once instead of per call.
    """

    def __init__(self, grid: GridWorld):
        self.grid = grid
        self.policy = value_iteration(grid)
        self.outcomes = {
            (cell, action): sorted(grid.transition(cell, action).items())
            for cell in grid.cells() for action in set(self.policy.values())}

    def walks(self, seed: int, calls: int, origin: tuple[int, int],
              win: int, loose: int, steps: int) -> list[int]:
        rng = random.Random(seed)
        return [self._walk(rng, origin, win, loose, steps)
                for _ in range(calls)]

    def _walk(self, rng, origin, win, loose, steps) -> int:
        grid = self.grid
        reward = 0
        location = origin
        for step in range(1, steps + 1):
            roll = rng.random()
            low = 0.0
            for target, probability in self.outcomes[
                    (location, self.policy[location])]:
                high = low + probability
                if low <= roll <= high:
                    location = target
                    break
                low = high
            else:
                raise AssertionError("roll outside the outcome distribution")
            reward += grid.reward(location)
            if reward >= win or reward <= loose:
                return step * (1 if reward > 0 else -1 if reward < 0 else 0)
        return 0


# ---------------------------------------------------------------------------
# Durability: the model against what a reopened database holds
# ---------------------------------------------------------------------------

def lost_writes(model: dict[str, dict], dumped: dict[str, list]) -> int:
    """Rows of *model* (``table -> {id: row}``) that the reopened database
    (``table -> [row, ...]``, id first) does not hold with equal values,
    plus rows it holds that the model never wrote."""
    lost = 0
    for table, expected in model.items():
        found = {row[0]: tuple(row) for row in dumped.get(table, [])}
        for key, row in expected.items():
            if found.get(key) != tuple(row):
                lost += 1
        lost += len(found.keys() - expected.keys())
    return lost
