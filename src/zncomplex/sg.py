"""Exact point-line incidence checks and the hypergraph pruning reduction.

Points are integer vectors: PointConfig rejects any coordinate that is not
an int, and there is no floating point anywhere in this module.
Linear-mode configurations (nonzero points, pairwise spanning distinct lines
through the origin) support the pruning reduction.  intlinalg.plane_key keys
each edge's plane, and the line through points p and q as the plane of
(1, p) and (1, q), which meets the hyperplane of first coordinate 1 in
exactly that line.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import SgHypothesisError
from .hyperforest import hyperforest_report
from .intlinalg import plane_key, primitive_direction, rank_of_rows
from .report import Report


@dataclass(frozen=True)
class PointConfig:
    dimension: int
    points: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for p in self.points:
            if any(type(x) is not int for x in p):
                raise ValueError(f"point {list(p)!r} is not a list of integers")
            if len(p) != self.dimension:
                raise ValueError(f"point {p} does not have dimension {self.dimension}")


def config(points, dimension: int | None = None) -> PointConfig:
    pts = tuple(map(tuple, points))
    if dimension is None:
        if not pts:
            raise ValueError("dimension required for an empty configuration")
        dimension = len(pts[0])
    return PointConfig(dimension, pts)


def linear_mode_report(cfg: PointConfig) -> Report:
    """Nonzero points, pairwise distinct lines through the origin.

    Points are bucketed by primitive_direction; each pair in a bucket is
    reported, in index order.
    """
    violations = []
    lines: dict[tuple[int, ...], list[int]] = {}
    for i, p in enumerate(cfg.points):
        if not any(p):
            violations.append(f"point {i} is zero")
            continue
        lines.setdefault(primitive_direction(p), []).append(i)
    pairs = sorted(pair for members in lines.values()
                   for pair in combinations(members, 2))
    violations.extend(f"points {i} and {j} share a 1-dimensional subspace"
                      for i, j in pairs)
    return Report.of(violations)


def special_lines(cfg: PointConfig) -> dict:
    """Lines through at least three points, as {line key: point indices}."""
    lines: dict = {}
    lifted = [(1,) + p for p in cfg.points]
    for (i, p), (j, q) in combinations(enumerate(lifted), 2):
        if p == q:
            raise ValueError(f"points {i} and {j} coincide")
        lines.setdefault(plane_key([p, q]), set()).update((i, j))
    return {k: v for k, v in lines.items() if len(v) >= 3}


def is_delta_sg(cfg: PointConfig, delta) -> Report:
    """Does every point see delta * (n-1) others on lines through >= 3 points?

    The comparison is exact rational; the per-point tallies count the other
    points lying on special lines through the point (two special lines
    through a point meet only there, so the counts add up line by line).
    The witness is (required, tallies), whatever the verdict, with required
    = delta * (n-1); a failure names the first point with the lowest tally.
    An empty configuration (n = 0) raises ValueError.
    """
    delta = Fraction(delta)
    if not 0 <= delta <= 1:
        raise ValueError(f"delta must be in [0, 1], got {delta}")
    n = len(cfg.points)
    if n == 0:
        raise ValueError("the configuration has no points")
    lines = special_lines(cfg)
    tallies = [0] * n
    for members in lines.values():
        for i in members:
            tallies[i] += len(members) - 1
    required = delta * (n - 1)
    violations = []
    if any(t < required for t in tallies):
        worst = min(range(n), key=lambda i: tallies[i])
        violations.append(f"point {worst} sees only {tallies[worst]}")
    return Report.of(violations, (required, tuple(tallies)))


# ---------------------------------------------------------------------------
# 3-uniform hypergraphs over point configurations

@dataclass(frozen=True)
class Hypergraph3:
    """Vertices are point indices; edges form a multiset of 3-element sets."""

    vertices: tuple[int, ...]
    edges: tuple[frozenset[int], ...]

    def __post_init__(self):
        vset = set(self.vertices)
        for e in self.edges:
            if len(e) != 3:
                raise ValueError(f"edge {sorted(e)} does not have 3 distinct members")
            if not e <= vset:
                raise ValueError(f"edge {sorted(e)} uses unknown vertices")


def prune_min_degree(graph: Hypergraph3, threshold) -> Hypergraph3:
    """Largest sub-hypergraph of minimum degree >= threshold.

    Vertices of lower degree are removed (with their edges) until none
    remain; the fixpoint is unique, so removal order does not matter.
    """
    threshold = Fraction(threshold)
    if threshold <= 0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    alive = set(graph.vertices)
    edges = list(graph.edges)
    while True:
        degrees: dict[int, int] = {v: 0 for v in alive}
        for e in edges:
            for v in e:
                degrees[v] += 1
        doomed = {v for v in alive if degrees[v] < threshold}
        if not doomed:
            break
        alive -= doomed
        edges = [e for e in edges if not (e & doomed)]
    return Hypergraph3(tuple(sorted(alive)), tuple(edges))


@dataclass(frozen=True)
class SgReduction:
    """The surviving vertices, their points' span against the bound, and
    the number of removed edges against the budget."""

    kept: tuple[int, ...]
    dim_span: int
    bound: Fraction
    removed_edges: int
    removal_budget: Fraction

    @property
    def dim_within_bound(self) -> bool:
        return self.dim_span <= self.bound

    @property
    def removal_within_budget(self) -> bool:
        return self.removed_edges < self.removal_budget


def sg_reduce(cfg: PointConfig, graph: Hypergraph3, threshold) -> SgReduction:
    """Prune low-degree vertices and report the span of the survivors.

    Inputs must be in linear mode, every edge's three points must span a
    plane, and within each plane the edges must form a hyperforest (any k
    edges touch at least k+1 vertices); a violating vertex subset raises
    SgHypothesisError.  The pruning removes fewer than threshold * |V|
    edges, and the span of the surviving points is checked against the
    12 * |V| / threshold bound; an excess is reported, not silenced.  The
    surviving edges are counted, not returned.
    """
    threshold = Fraction(threshold)
    report = linear_mode_report(cfg)
    if not report:
        raise ValueError("; ".join(report.violations))
    if set(graph.vertices) - set(range(len(cfg.points))):
        raise ValueError("hypergraph vertices must index the points")
    by_plane: dict[tuple, list[frozenset[int]]] = {}
    for e in graph.edges:
        try:
            key = plane_key([cfg.points[v] for v in sorted(e)])
        except ValueError:
            raise ValueError(
                f"edge {sorted(e)} does not span a 2-dimensional subspace") from None
        by_plane.setdefault(key, []).append(e)
    for key in sorted(by_plane):
        forest = hyperforest_report(by_plane[key])
        if not forest:
            raise SgHypothesisError(forest.witness[0])
    pruned = prune_min_degree(graph, threshold)
    removed = len(graph.edges) - len(pruned.edges)
    dim_span = rank_of_rows([cfg.points[v] for v in pruned.vertices])
    bound = 12 * Fraction(len(graph.vertices)) / threshold
    return SgReduction(
        kept=pruned.vertices,
        dim_span=dim_span,
        bound=bound,
        removed_edges=removed,
        removal_budget=threshold * len(graph.vertices),
    )


# ---------------------------------------------------------------------------
# JSON forms

def points_from_json(data) -> PointConfig:
    """Parse the JSON form; any structural problem raises ValueError."""
    if not isinstance(data, dict) or not isinstance(data.get("points"), list):
        raise ValueError("points file must be a JSON object with a 'points' list")
    dimension = data.get("dimension")
    if type(dimension) is not int or dimension < 1:
        raise ValueError(
            f"points file needs a positive integer 'dimension', got {dimension!r}")
    for p in data["points"]:
        if not isinstance(p, list):
            raise ValueError(f"point {p!r} is not a list of integers")
    return config(data["points"], dimension=dimension)


def read_points(path) -> PointConfig:
    """Read a points file; JSON nested too deeply raises ValueError too."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return points_from_json(json.load(fh))
        except RecursionError:
            raise ValueError("the JSON is nested too deeply") from None
