"""Exact incidence geometry against brute-force oracles."""

import random
import re
from fractions import Fraction
from math import lcm

import pytest

from lattice_oracle import brute_rank, is_parallel
from sg_inputs import hypergraph, points_to_json
from zncomplex import sg
from zncomplex.errors import SgHypothesisError
from zncomplex.intlinalg import primitive_direction
from zncomplex.sg import (
    PointConfig,
    config,
    is_delta_sg,
    linear_mode_report,
    points_from_json,
    prune_min_degree,
    sg_reduce,
    special_lines,
)


def collinear(p, q, r):
    return brute_rank([[b - a for a, b in zip(p, q)],
                       [c - a for a, c in zip(p, r)]]) <= 1


def brute_delta_tallies(points):
    """Count, per point, the others on some >= 3-point line through it."""
    n = len(points)
    tallies = []
    for i in range(n):
        seen = set()
        for j in range(n):
            if j == i or j in seen:
                continue
            if any(collinear(points[i], points[j], points[k])
                   for k in range(n) if k not in (i, j)):
                seen.add(j)
        tallies.append(len(seen))
    return tallies


def random_distinct_points(rng, count, dim, spread=4):
    points = set()
    while len(points) < count:
        points.add(tuple(rng.randint(-spread, spread) for _ in range(dim)))
    return sorted(points)


def pairwise_linear_mode_violations(points):
    """The former all-pairs check, with is_parallel as the oracle."""
    violations = []
    for i, p in enumerate(points):
        if not any(p):
            violations.append(f"point {i} is zero")
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            if is_parallel(points[i], points[j]):
                violations.append(
                    f"points {i} and {j} share a 1-dimensional subspace")
    return violations


def test_linear_mode_report_matches_all_pairs_oracle():
    rng = random.Random(4142)
    values = (0, 0, 1, -1, 2, -3)
    failing = 0
    for _ in range(300):
        dim = rng.randint(1, 3)
        points = [[rng.choice(values) for _ in range(dim)]
                  for _ in range(rng.randint(0, 8))]
        for _ in range(rng.randint(0, 3)):  # scaled copies share a line
            if points:
                scale = rng.choice((-2, -1, 3))
                points.insert(rng.randint(0, len(points)),
                              [scale * x for x in rng.choice(points)])
        cfg = config(points, dimension=dim)
        report = linear_mode_report(cfg)
        expected = pairwise_linear_mode_violations(cfg.points)
        assert list(report.violations) == expected, points
        failing += not report
    assert failing > 100


def test_special_lines_grid():
    grid = config([(x, y) for x in range(3) for y in range(3)])
    lines = special_lines(grid)
    # 3 rows + 3 columns + 2 diagonals
    assert len(lines) == 8
    assert sorted(len(v) for v in lines.values()) == [3] * 8


def fraction_line_key(p, q):
    """The affine line through p and q as (anchor, direction) in rationals.

    This was special_lines' key when points could be rational: the
    primitive direction of q - p, and the point of the line whose
    coordinate is zero at the direction's first nonzero entry.
    """
    delta = [Fraction(b) - Fraction(a) for a, b in zip(p, q)]
    scale = lcm(*(x.denominator for x in delta))
    direction = primitive_direction([int(x * scale) for x in delta])
    k = next(i for i, x in enumerate(direction) if x)
    t = Fraction(p[k], direction[k])
    anchor = tuple(Fraction(x) - t * d for x, d in zip(p, direction))
    return anchor, direction


def oracle_special_lines(points):
    lines = {}
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            key = fraction_line_key(points[i], points[j])
            lines.setdefault(key, set()).update((i, j))
    return sorted(sorted(v) for v in lines.values() if len(v) >= 3)


def test_special_lines_match_the_fraction_line_key():
    rng = random.Random(2109)
    cases = [(2, [(x, y) for x in range(3) for y in range(3)])]
    while len(cases) < 500:
        dim, spread = rng.randint(1, 4), rng.randint(1, 4)
        count = rng.randint(0, min(12, (2 * spread + 1) ** dim))
        cases.append((dim, random_distinct_points(rng, count, dim, spread)))
    with_lines = 0
    for dim, pts in cases:
        lines = special_lines(config(pts, dimension=dim))
        expected = oracle_special_lines(pts)
        assert sorted(sorted(v) for v in lines.values()) == expected, pts
        with_lines += bool(expected)
    assert with_lines > 150


@pytest.mark.parametrize("value", [Fraction(1, 2), Fraction(2), 1.0, 1.5, True, "1"],
                         ids=["fraction", "whole-fraction", "whole-float", "float",
                              "bool", "str"])
def test_points_must_be_ints(value):
    message = re.escape(f"point [0, {value!r}] is not a list of integers")
    with pytest.raises(ValueError, match=f"^{message}$"):
        config([(1, 2), (0, value)])
    with pytest.raises(ValueError, match=f"^{message}$"):
        PointConfig(2, ((1, 2), (0, value)))


def test_is_delta_sg_examples():
    line = config([(i, 2 * i) for i in range(5)])
    assert is_delta_sg(line, 1)
    scatter = config([(0, 0), (1, 0), (0, 1)])
    report = is_delta_sg(scatter, Fraction(1, 100))
    assert not report
    _, tallies = report.witness
    assert tallies == (0, 0, 0)
    grid = config([(x, y) for x in range(3) for y in range(3)])
    assert is_delta_sg(grid, Fraction(1, 2))
    assert not is_delta_sg(grid, 1)


def test_is_delta_sg_rejects_empty_configuration():
    with pytest.raises(ValueError, match="no points"):
        is_delta_sg(config([], dimension=2), Fraction(1, 2))
    assert is_delta_sg(config([(1, 2)]), Fraction(1, 2))  # one point: 0 >= 0


def test_is_delta_sg_matches_brute_force():
    rng = random.Random(9177)
    for _ in range(80):
        dim = rng.randint(2, 4)
        pts = random_distinct_points(rng, rng.randint(3, 11), dim)
        cfg = config(pts)
        report = is_delta_sg(cfg, Fraction(1, 3))
        _, tallies = report.witness
        expected = brute_delta_tallies(pts)
        assert list(tallies) == expected, pts
        threshold = Fraction(1, 3) * (len(pts) - 1)
        assert report.ok == all(t >= threshold for t in expected)


def naive_prune(graph, threshold):
    """Remove one low-degree vertex at a time, scanning stubbornly."""
    alive = set(graph.vertices)
    edges = list(graph.edges)
    changed = True
    while changed:
        changed = False
        for v in sorted(alive):
            degree = sum(1 for e in edges if v in e)
            if degree < threshold:
                alive.discard(v)
                edges = [e for e in edges if v not in e]
                changed = True
                break
    return tuple(sorted(alive)), tuple(edges)


def test_prune_examples():
    graph = hypergraph([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)], 4)
    assert prune_min_degree(graph, 3) == graph
    lone = hypergraph([(0, 1, 2)], 3)
    pruned = prune_min_degree(lone, 2)
    assert pruned.vertices == () and pruned.edges == ()


def test_prune_matches_naive_fixpoint():
    rng = random.Random(555)
    for _ in range(60):
        n = rng.randint(3, 20)
        edges = [tuple(rng.sample(range(n), 3))
                 for _ in range(rng.randint(0, 2 * n))]
        graph = hypergraph(edges, n)
        threshold = Fraction(rng.randint(1, 6), rng.choice((1, 2, 3)))
        pruned = prune_min_degree(graph, threshold)
        alive, kept_edges = naive_prune(graph, threshold)
        assert pruned.vertices == alive
        assert sorted(map(sorted, pruned.edges)) == sorted(map(sorted, kept_edges))
        # idempotence
        assert prune_min_degree(pruned, threshold) == pruned
        # strict removal budget
        removed = len(graph.edges) - len(pruned.edges)
        if n:
            assert removed < threshold * n


def test_sg_reduce_empty_edges():
    cfg = config([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    out = sg_reduce(cfg, hypergraph([], 3), 1)
    assert out.kept == () and out.dim_span == 0
    assert out.removed_edges == 0


def test_sg_reduce_keeps_dense_plane():
    # Four coplanar directions with three edges: a hyperforest (any k edges
    # touch at least k+1 vertices) where every plane vertex has degree >= 1.
    cfg = config([(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, -1, 0), (0, 0, 1)])
    edges = [(0, 1, 2), (0, 1, 3), (0, 2, 3)]
    graph = hypergraph(edges, 5)
    out = sg_reduce(cfg, graph, 1)
    assert out.kept == (0, 1, 2, 3)
    assert out.dim_span == 2
    assert out.dim_within_bound and out.removal_within_budget
    assert out.removed_edges == 0


def test_sg_reduce_hypothesis_violation():
    cfg = config([(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)])
    graph = hypergraph([(0, 1, 2)] * 3, 4)
    with pytest.raises(SgHypothesisError) as info:
        sg_reduce(cfg, graph, 1)
    assert info.value.witness == frozenset({0, 1, 2})


def test_sg_reduce_rejects_rank_three_edge():
    cfg = config([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    with pytest.raises(ValueError):
        sg_reduce(cfg, hypergraph([(0, 1, 2)], 3), 1)


def test_sg_reduce_names_an_edge_off_a_plane():
    # linear mode leaves no two points parallel, so only rank three is left
    cfg = config([(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)])
    with pytest.raises(ValueError) as info:
        sg_reduce(cfg, hypergraph([(0, 1, 2), (1, 2, 3)], 4), 1)
    assert str(info.value) == "edge [1, 2, 3] does not span a 2-dimensional subspace"


def test_sg_reduce_ranks_only_the_survivors(monkeypatch):
    ranks = []

    def counted(rows):
        ranks.append(rows)
        return original(rows)

    original = sg.rank_of_rows
    monkeypatch.setattr(sg, "rank_of_rows", counted)
    cfg = config([(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, -1, 0), (0, 0, 1)])
    out = sg_reduce(cfg, hypergraph([(0, 1, 2), (0, 1, 3), (0, 2, 3)], 5), 1)
    assert out.dim_span == 2 and len(ranks) == 1


def test_points_json_round_trip():
    cfg = config([(1, 2, 3), (-4, 0, 5)])
    assert points_from_json(points_to_json(cfg)) == cfg
