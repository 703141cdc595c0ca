"""Exact incidence geometry against brute-force oracles."""

import random
import time
from fractions import Fraction

import pytest

from lattice_oracle import brute_rank, is_parallel
from sg_inputs import hypergraph, points_to_json
from zncomplex import sg
from zncomplex.errors import SgHypothesisError
from zncomplex.sg import (
    config,
    is_delta_sg,
    linear_mode_report,
    points_from_json,
    projectivize,
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
        if any(isinstance(x, Fraction) and x.denominator != 1 for x in p):
            violations.append(f"point {i} is not integral")
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
    values = (0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3))
    failing = 0
    for _ in range(300):
        dim = rng.randint(1, 3)
        points = [[rng.choice(values) for _ in range(dim)]
                  for _ in range(rng.randint(0, 8))]
        for _ in range(rng.randint(0, 3)):  # scaled copies share a line
            if points:
                scale = rng.choice((-2, -1, Fraction(1, 3), 3))
                points.insert(rng.randint(0, len(points)),
                              [scale * x for x in rng.choice(points)])
        cfg = config(points, dimension=dim)
        report = linear_mode_report(cfg)
        expected = pairwise_linear_mode_violations(cfg.points)
        assert list(report.violations) == expected, points
        failing += not report
    assert failing > 100


def test_projectivize_basis_example():
    cfg = config([(1, 0), (0, 1)])
    out, normal = projectivize(cfg)
    assert normal == (1, 1)
    assert out.points == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))


def test_projectivize_requires_linear_mode():
    with pytest.raises(ValueError):
        projectivize(config([(1, 0), (2, 0)]))
    with pytest.raises(ValueError):
        projectivize(config([(0, 0)]))


def roots_and_differences(dim):
    """The points e_i and e_i - e_j (i < j) of Z^dim, in linear mode.

    A normal orthogonal to none of them has dim distinct nonzero entries,
    so its max-norm is at least dim / 2, and a search by increasing
    max-norm tries exponentially many vectors in dim first.
    """
    unit = [tuple(int(k == i) for k in range(dim)) for i in range(dim)]
    return unit + [tuple(a - b for a, b in zip(unit[i], unit[j]))
                   for i in range(dim) for j in range(i + 1, dim)]


def test_projectivize_images_distinct_and_incidence_preserved():
    rng = random.Random(31)
    inputs = []
    while len(inputs) < 40:
        dim = rng.randint(2, 4)
        pts = random_distinct_points(rng, rng.randint(2, 7), dim)
        if linear_mode_report(config(pts)):
            inputs.append((pts, None))
    inputs.append((roots_and_differences(8), 1.0))
    for pts, budget in inputs:
        cfg = config(pts)
        start = time.perf_counter()
        out, normal = projectivize(cfg)
        if budget is not None:
            assert time.perf_counter() - start < budget
        assert len(set(out.points)) == len(out.points)
        for p in cfg.points:
            assert sum(a * b for a, b in zip(p, normal)) != 0
        # triples span a plane through 0 exactly when images are collinear
        n = len(pts)
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    through_zero = brute_rank(
                        [pts[i], pts[j], pts[k]]) <= 2
                    images_collinear = collinear(
                        out.points[i], out.points[j], out.points[k])
                    assert through_zero == images_collinear


def test_special_lines_grid():
    grid = config([(x, y) for x in range(3) for y in range(3)])
    lines = special_lines(grid)
    # 3 rows + 3 columns + 2 diagonals
    assert len(lines) == 8
    assert sorted(len(v) for v in lines.values()) == [3] * 8


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
