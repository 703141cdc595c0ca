"""The (1,1) pebble game against direct edge counts."""

import random
from itertools import combinations

from zncomplex.hyperforest import PebbleGame, hyperforest_report


def random_edges(rng, vertices, count):
    """Edges of two or three vertices, a quarter repeating an earlier one."""
    edges = []
    for _ in range(count):
        if edges and rng.random() < 0.25:
            edges.append(rng.choice(edges))
        else:
            size = min(vertices, rng.choice((2, 3, 3)))
            edges.append(frozenset(rng.sample(range(vertices), size)))
    return edges


def inside(edges, vertices):
    return sum(1 for e in edges if set(e) <= vertices)


def brute_components(edges, vertices):
    """Maximal sets of two or more vertices with |E'| = |V'| - 1 inside."""
    tight = [set(s) for size in range(2, vertices + 1)
             for s in combinations(range(vertices), size)
             if inside(edges, set(s)) == size - 1]
    return sorted(sorted(s) for s in tight if not any(s < t for t in tight))


def test_rejection_witness_violates_the_count():
    rng = random.Random(2009)
    rejections = 0
    for _ in range(300):
        n = rng.randint(2, 10)
        game = PebbleGame()
        for edge in random_edges(rng, n, rng.randint(1, 2 * n)):
            if game.add(edge):
                continue
            rejections += 1
            closure = game.closure(edge)
            assert set(edge) <= closure
            assert inside(game.accepted, closure) >= len(closure) - 1
            assert inside(game.accepted, closure) + 1 > len(closure) - 1
    assert rejections >= 200


def test_hyperforest_report_witness():
    rng = random.Random(2008)
    for _ in range(300):
        n = rng.randint(2, 8)
        edges = random_edges(rng, n, rng.randint(0, 2 * n))
        report = hyperforest_report(edges)
        expected = all(inside(edges, set(s)) <= len(s) - 1
                       for size in range(1, n + 1)
                       for s in combinations(range(n), size))
        assert bool(report) == expected
        if not report:
            witness, witness_edges = report.witness
            assert all(edges[i] <= witness for i in witness_edges)
            assert len(witness_edges) > len(witness) - 1


def test_insertion_order_keeps_size_and_components():
    rng = random.Random(1987)
    for _ in range(200):
        n = rng.randint(3, 9)
        edges = random_edges(rng, n, rng.randint(0, 2 * n))
        outcomes = []
        for _ in range(3):
            order = edges[:]
            rng.shuffle(order)
            game = PebbleGame()
            accepted = sum(game.add(e) for e in order)
            outcomes.append((accepted, sorted(sorted(c) for c in game.components())))
            assert outcomes[-1][1] == brute_components(game.accepted, n)
        assert outcomes[1] == outcomes[0] and outcomes[2] == outcomes[0]
