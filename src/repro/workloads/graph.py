"""``traverse()`` — directed graph traversal (Table 1, row 3).

Starting from a node, the function repeatedly follows the heaviest outgoing
edge (ties broken by target id) for a given number of hops, accumulating
the ids of visited nodes.  One embedded query per hop — the classic
pointer-chasing pattern that PL/SQL forces into statement-by-statement
evaluation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..sql.engine import Database

PARAMETRIC_TRAVERSE_SOURCE = """
CREATE FUNCTION traverse(start int, hops int) RETURNS int AS $$
DECLARE
  cur int = start;
  nxt int;
  acc int = 0;
BEGIN
  FOR hop IN 1..hops LOOP
    nxt = (SELECT e.dst
           FROM edges AS e
           WHERE e.src = cur
           ORDER BY e.weight DESC, e.dst
           LIMIT 1);
    IF nxt IS NULL THEN
      RETURN acc;          -- dead end: sum of node ids seen so far
    END IF;
    cur = nxt;
    acc = acc + cur;
  END LOOP;
  RETURN acc;
END;
$$ LANGUAGE PLPGSQL
"""


@dataclass
class Digraph:
    node_count: int
    edges: list[tuple[int, int, float]]  # (src, dst, weight)

    def heaviest_successor(self, node: int) -> int | None:
        best: tuple[float, int] | None = None
        for src, dst, weight in self.edges:
            if src != node:
                continue
            key = (-weight, dst)
            if best is None or key < best:
                best = key
        return best[1] if best is not None else None

    def traverse_reference(self, start: int, hops: int) -> int:
        """Python oracle mirroring traverse()."""
        current = start
        accumulator = 0
        for _ in range(hops):
            successor = self.heaviest_successor(current)
            if successor is None:
                return accumulator
            current = successor
            accumulator += current
        return accumulator


def random_digraph(node_count: int = 64, out_degree: int = 3,
                   seed: int = 0) -> Digraph:
    """A random digraph where every node has at least one outgoing edge."""
    rng = random.Random(seed)
    edges: list[tuple[int, int, float]] = []
    for src in range(node_count):
        targets = rng.sample(range(node_count),
                             k=min(out_degree, node_count))
        for dst in targets:
            edges.append((src, dst, round(rng.random(), 6)))
    return Digraph(node_count, edges)


def setup_graph(db: Database, graph: Digraph | None = None) -> Digraph:
    """Create ``edges`` and the ``traverse()`` function."""
    if graph is None:
        graph = random_digraph()
    edges_table = db.catalog.create_table("edges", ["src", "dst", "weight"],
                                          ["int", "int", "float"])
    for src, dst, weight in graph.edges:
        edges_table.insert((src, dst, weight))
    db.execute(PARAMETRIC_TRAVERSE_SOURCE)
    return graph
