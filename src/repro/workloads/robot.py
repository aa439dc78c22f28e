"""The robot-on-a-grid scenario of Figures 1–3.

A robot walks a grid whose cells hold rewards, following a policy that was
*precomputed by a Markov decision process* (paper, Section 1).  We build the
whole scenario from scratch:

* :class:`GridWorld` — rewards, walls, and the straying model (intended
  move with probability 0.8, perpendicular slips 0.1 each; bumping into a
  wall or the border leaves the robot in place, Figure 1c),
* :func:`value_iteration` — the MDP solver that precomputes the policy of
  Figure 1b,
* the tabular encoding of Figure 2 (``cells``, ``policy``, ``actions``),
* ``WALK_SOURCE`` — the PL/pgSQL function of Figure 3, verbatim modulo
  whitespace.

The paper's figure does not specify the full reward matrix (several cells
are illegible in print), so :func:`default_grid` reconstructs a 5x5 grid
with the same flavour: small negative step rewards, a few positive cells,
one wall.  EXPERIMENTS.md records this substitution; all results are
relative (interpreted vs compiled on the *same* grid), so the exact rewards
do not affect the claims being reproduced.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, Optional

from ..sql.engine import Database
from ..sql.values import Row

#: Action names and their (dx, dy) movement vectors.
ACTIONS: dict[str, tuple[int, int]] = {
    "up": (0, 1),
    "down": (0, -1),
    "left": (-1, 0),
    "right": (1, 0),
}

#: Perpendicular slip directions per intended action (Figure 1c).
_SLIPS: dict[str, tuple[str, str]] = {
    "up": ("left", "right"),
    "down": ("left", "right"),
    "left": ("up", "down"),
    "right": ("up", "down"),
}


@dataclass
class GridWorld:
    """A rectangular grid with rewards, walls, and an unreliable robot."""

    width: int
    height: int
    rewards: dict[tuple[int, int], int]
    walls: set[tuple[int, int]] = field(default_factory=set)
    move_prob: float = 0.8
    slip_prob: float = 0.1

    def cells(self) -> list[tuple[int, int]]:
        return [(x, y) for y in range(self.height) for x in range(self.width)
                if (x, y) not in self.walls]

    def _step(self, cell: tuple[int, int], action: str) -> tuple[int, int]:
        dx, dy = ACTIONS[action]
        target = (cell[0] + dx, cell[1] + dy)
        if not (0 <= target[0] < self.width and 0 <= target[1] < self.height):
            return cell
        if target in self.walls:
            return cell
        return target

    def transition(self, cell: tuple[int, int],
                   action: str) -> dict[tuple[int, int], float]:
        """Outcome distribution for taking *action* in *cell* (Figure 1c)."""
        out: dict[tuple[int, int], float] = {}
        slips = _SLIPS[action]
        for direction, probability in ((action, self.move_prob),
                                       (slips[0], self.slip_prob),
                                       (slips[1], self.slip_prob)):
            target = self._step(cell, direction)
            out[target] = out.get(target, 0.0) + probability
        return out

    def reward(self, cell: tuple[int, int]) -> int:
        return self.rewards.get(cell, 0)


def default_grid() -> GridWorld:
    """The reconstructed 5x5 scenario of Figure 1 (see module docstring)."""
    rewards = {
        (0, 0): -1, (1, 0): 0, (2, 0): -2, (3, 0): 0, (4, 0): -1,
        (0, 1): -2, (1, 1): 1, (2, 1): 0, (3, 1): -1,
        (0, 2): 1, (1, 2): 1, (2, 2): -1, (3, 2): -1, (4, 2): 0,
        (0, 3): -2, (1, 3): 0, (2, 3): -1, (3, 3): 1, (4, 3): 1,
        (0, 4): -2, (1, 4): 0, (2, 4): -1, (3, 4): 2, (4, 4): -2,
    }
    return GridWorld(width=5, height=5, rewards=rewards, walls={(4, 1)})


def random_grid(seed: int, width: int = 5, height: int = 5,
                wall_count: int = 1) -> GridWorld:
    """A random grid for property-based testing."""
    rng = random.Random(seed)
    cells = [(x, y) for x in range(width) for y in range(height)]
    walls: set[tuple[int, int]] = set()
    candidates = [c for c in cells if c != (0, 0)]
    for _ in range(min(wall_count, len(candidates) - 1)):
        walls.add(candidates.pop(rng.randrange(len(candidates))))
    rewards = {c: rng.choice([-2, -1, -1, 0, 0, 1, 1, 2])
               for c in cells if c not in walls}
    return GridWorld(width, height, rewards, walls)


def value_iteration(grid: GridWorld, gamma: float = 0.9,
                    epsilon: float = 1e-6,
                    max_sweeps: int = 10_000) -> dict[tuple[int, int], str]:
    """Precompute the Markov policy of Figure 1b by value iteration.

    ``V(s) = max_a Σ_s' P(s'|s,a) (R(s') + γ V(s'))`` until the sweep delta
    drops below *epsilon*; the policy picks the argmax action (ties broken
    by action-name order for determinism).
    """
    cells = grid.cells()
    values: dict[tuple[int, int], float] = {c: 0.0 for c in cells}
    for _ in range(max_sweeps):
        delta = 0.0
        new_values: dict[tuple[int, int], float] = {}
        for cell in cells:
            best = None
            for action in sorted(ACTIONS):
                total = 0.0
                for target, probability in grid.transition(cell, action).items():
                    total += probability * (grid.reward(target)
                                            + gamma * values[target])
                if best is None or total > best:
                    best = total
            new_values[cell] = best if best is not None else 0.0
            delta = max(delta, abs(new_values[cell] - values[cell]))
        values = new_values
        if delta < epsilon:
            break
    policy: dict[tuple[int, int], str] = {}
    for cell in cells:
        best_action = None
        best_value = None
        for action in sorted(ACTIONS):
            total = 0.0
            for target, probability in grid.transition(cell, action).items():
                total += probability * (grid.reward(target)
                                        + gamma * values[target])
            if best_value is None or total > best_value:
                best_value = total
                best_action = action
        policy[cell] = best_action or "up"
    return policy


#: PL/pgSQL source of Figure 3 (modulo our ASCII action names).
WALK_SOURCE = """
CREATE FUNCTION walk(origin coord, win int, loose int, steps int)
RETURNS int AS $$
DECLARE
  reward int = 0;
  location coord = origin;
  movement text = '';
  roll float;
BEGIN
  -- move robot repeatedly
  FOR step IN 1..steps LOOP
    -- where does the Markov policy send the robot from here?
    movement = (SELECT p.action
                FROM policy AS p
                WHERE location = p.loc);
    -- compute new location of robot,
    -- robot may randomly stray from policy's direction
    roll = random();
    location =
      (SELECT move.loc
       FROM (SELECT a.there AS loc,
                    COALESCE(SUM(a.prob) OVER lt, 0.0) AS lo,
                    SUM(a.prob) OVER leq AS hi
             FROM actions AS a
             WHERE location = a.here AND movement = a.action
             WINDOW leq AS (ORDER BY a.there),
                    lt AS (leq ROWS UNBOUNDED PRECEDING
                           EXCLUDE CURRENT ROW)
            ) AS move(loc, lo, hi)
       WHERE roll BETWEEN move.lo AND move.hi);
    -- robot collects reward (or penalty) at new location
    reward = reward + (SELECT c.reward
                       FROM cells AS c
                       WHERE location = c.loc);
    -- bail out if we win or loose early
    IF reward >= win OR reward <= loose THEN
      RETURN step * sign(reward);
    END IF;
  END LOOP;
  -- draw: robot performed all steps without winning or losing
  RETURN 0;
END;
$$ LANGUAGE PLPGSQL
"""


def setup_robot(db: Database, grid: Optional[GridWorld] = None,
                gamma: float = 0.9) -> GridWorld:
    """Create the ``coord`` type, the Figure 2 tables, and ``walk()``."""
    if grid is None:
        grid = default_grid()
    policy = value_iteration(grid, gamma=gamma)
    if not db.catalog.get_type("coord"):
        db.execute("CREATE TYPE coord AS (x int, y int)")
    coord = db.catalog.get_type("coord")
    assert coord is not None

    def loc(cell: tuple[int, int]) -> Row:
        return coord.make_row([cell[0], cell[1]])

    cells_table = db.catalog.create_table("cells", ["loc", "reward"],
                                          ["coord", "int"])
    for cell in grid.cells():
        cells_table.insert((loc(cell), grid.reward(cell)))

    policy_table = db.catalog.create_table("policy", ["loc", "action"],
                                           ["coord", "text"])
    for cell, action in sorted(policy.items()):
        policy_table.insert((loc(cell), action))

    actions_table = db.catalog.create_table(
        "actions", ["here", "action", "there", "prob"],
        ["coord", "text", "coord", "float"])
    for cell in grid.cells():
        for action in sorted(ACTIONS):
            for target, probability in sorted(
                    grid.transition(cell, action).items()):
                actions_table.insert((loc(cell), action, loc(target),
                                      probability))

    db.execute(WALK_SOURCE)
    return grid


def walk_reference(db: Database, grid: GridWorld, origin: tuple[int, int],
                   win: int, loose: int, steps: int, seed: int) -> int:
    """A plain-Python oracle for walk(), drawing from the same RNG model.

    Used by tests: with ``db.reseed(seed)`` before a SQL run and the same
    seed here, interpreted, compiled, and oracle walks agree step for step.
    """
    rng = random.Random(seed)
    policy = value_iteration(grid)
    reward = 0
    location = origin
    for step in range(1, steps + 1):
        action = policy[location]
        roll = rng.random()
        outcomes = sorted(grid.transition(location, action).items())
        low = 0.0
        new_location = None
        for target, probability in outcomes:
            high = low + probability
            if low <= roll <= high:
                new_location = target
                break
            low = high
        if new_location is None:
            # roll beyond cumulated probability (float residue): no match,
            # location becomes NULL in SQL; the paper's function would then
            # fail — our generator never reaches this.
            raise AssertionError("roll outside the outcome distribution")
        location = new_location
        reward += grid.reward(location)
        if reward >= win or reward <= loose:
            return step * (1 if reward > 0 else -1 if reward < 0 else 0)
    return 0
