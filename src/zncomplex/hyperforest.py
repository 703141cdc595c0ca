"""The (1,1) pebble game for hypergraphs: hyperforests and their tight sets.

A multiset of hyperedges is a hyperforest, or (1,1)-sparse, when every k of
its edges touch at least k+1 vertices.  The incremental pebble game of
Lee & Streinu (Pebble game algorithms and sparse graphs, 2008) and Streinu &
Theran (Sparse hypergraphs and pebble game algorithms, 2009) decides this one
edge at a time.  Every vertex starts with one pebble.  An accepted edge is
covered by the pebble of one of its vertices, which then points along the
edge to the others, so a vertex holds either its pebble or exactly one edge.
A new edge is accepted when two pebbles can be gathered on two of its
vertices by reversing covered paths; otherwise the vertices reachable from
it along covered edges hold at least as many accepted edges as they have
vertices less one, and with the new edge they witness the violation.

In a sparse game a vertex set is tight when it holds exactly one edge fewer
than it has vertices.  Tight sets that meet form a tight union, so the
maximal ones are disjoint.  Two vertices share one exactly when two pebbles
cannot be gathered on them: the set reachable from them is then tight.
"""

from __future__ import annotations

from itertools import combinations
from typing import Hashable, Iterable, Sequence

from .report import Report


class PebbleGame:
    """Incremental (1,1) pebble game; vertices must be hashable and sortable."""

    def __init__(self):
        # Accepted edges with sorted vertices, so that searches, and hence
        # witnesses, do not depend on string hashing.
        self.accepted: list[tuple] = []
        self._cover: dict = {}  # vertex -> index of the accepted edge it covers

    def add(self, edge: Iterable[Hashable]) -> bool:
        """Accept the edge if the edges stay sparse with it; report which.

        After a rejection, closure(edge) is the witness: a vertex set with
        at least |closure| - 1 accepted edges inside, besides this one.
        """
        vertices = tuple(sorted(set(edge)))
        holders = self._gather(vertices)
        if holders is None:
            return False
        self._cover[holders[0]] = len(self.accepted)
        self.accepted.append(vertices)
        return True

    def closure(self, vertices: Iterable[Hashable]) -> set:
        """The vertices reachable from these along covered edges."""
        seen = set(vertices)
        stack = list(seen)
        while stack:
            x = stack.pop()
            if x in self._cover:
                for y in self.accepted[self._cover[x]]:
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
        return seen

    def components(self) -> list[frozenset]:
        """The maximal tight sets with at least two vertices.

        The accepted edges inside a maximal tight set connect it, so uniting
        the vertex pairs of accepted edges that cannot hold two pebbles
        finds every one.
        """
        group: dict = {}  # vertex -> the vertices known to share a tight set
        for edge in self.accepted:
            for u, v in combinations(edge, 2):
                if v in group.get(u, ()) or self._gather((u, v)) is not None:
                    continue
                merged = group.get(u, {u}) | group.get(v, {v})
                for w in merged:
                    group[w] = merged
        unique = {id(members): members for members in group.values()}
        return [frozenset(members) for members in unique.values()]

    def _gather(self, vertices) -> tuple | None:
        """Two vertices of the set holding a pebble each, or None if impossible.

        A vertex whose own search fails keeps failing while pebbles move to
        the others: its reachable set is closed and a later reversed path
        cannot enter it, because it would have to end at a free pebble there.
        """
        holders: list = []
        for x in vertices:
            if self._fetch(x, holders):
                holders.append(x)
                if len(holders) == 2:
                    return tuple(holders)
        return None

    def _fetch(self, start, pinned) -> bool:
        """Bring a free pebble to start along a reversed path avoiding pinned."""
        parent = {start: None}
        stack = [start]
        while stack:
            x = stack.pop()
            if x not in self._cover:
                while parent[x] is not None:
                    p = parent[x]
                    self._cover[x] = self._cover.pop(p)
                    x = p
                return True
            for y in self.accepted[self._cover[x]]:
                if y not in parent and y not in pinned:
                    parent[y] = x
                    stack.append(y)
        return False


def hyperforest_report(edges: Sequence[Iterable[Hashable]]) -> Report:
    """Check that every k edges (with multiplicity) touch >= k+1 vertices.

    The edges enter one pebble game in order.  The first rejection gives the
    witness (closure, edge indices): the closure of the rejected edge, a
    vertex set S, and the indices of every edge so far inside it, more than
    |S| - 1 of them.
    """
    edge_sets = [frozenset(e) for e in edges]
    game = PebbleGame()
    for i, edge in enumerate(edge_sets):
        if not game.add(edge):
            closure = frozenset(game.closure(edge))
            inside = tuple(j for j in range(i + 1) if edge_sets[j] <= closure)
            return Report.of(
                [f"{len(inside)} edges lie inside the {len(closure)} vertices "
                 f"{sorted(closure)}, more than {len(closure) - 1}"],
                (closure, inside))
    return Report(True)
