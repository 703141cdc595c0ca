"""Plane sparsity against brute-force subset enumeration."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from zncomplex.errors import SparsityError
from zncomplex.presentation import (
    AbelianMap,
    Presentation,
    SparsityPartition,
    abelian_images,
    critical_collection,
    exponent_matrix,
    is_sparse,
    maximal_sparse_subset,
    normalize,
    replace_sparse,
    replace_subspace,
    standard_zn,
    subset_dimension,
)
from zncomplex.intlinalg import smith_normal_form


def brute_rank(rows):
    """Row rank over Q by plain fraction elimination (test-local oracle)."""
    grid = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(grid[0]) if grid else 0
    for col in range(cols):
        pivot = next((i for i in range(rank, len(grid)) if grid[i][col]), None)
        if pivot is None:
            continue
        grid[rank], grid[pivot] = grid[pivot], grid[rank]
        for i in range(len(grid)):
            if i != rank and grid[i][col]:
                factor = grid[i][col] / grid[rank][col]
                grid[i] = [a - factor * b for a, b in zip(grid[i], grid[rank])]
        rank += 1
    return rank


def brute_sparse(phi, generators, supports):
    """Enumerate every generator subset of dimension two directly."""
    for size in range(1, len(generators) + 1):
        for subset in combinations(generators, size):
            rows = [phi.vector(g) for g in subset]
            if brute_rank(rows) != 2:
                continue
            inside = sum(1 for s in supports if s <= set(subset))
            if inside > size - 1:
                return False, frozenset(subset)
    return True, None


def brute_criticals(phi, generators, supports):
    out = []
    for size in range(1, len(generators) + 1):
        for subset in combinations(generators, size):
            rows = [phi.vector(g) for g in subset]
            if brute_rank(rows) != 2:
                continue
            inside = sum(1 for s in supports if s <= set(subset))
            if inside == size - 1:
                out.append(frozenset(subset))
    return out


def random_plane_hypergraph(rng, max_vertices=9):
    """A presentation whose relations are random triples inside one plane.

    Generators get distinct directions inside span(e1, e2) of Z^3 plus a
    helper outside, so all triples have dimension two.
    """
    count = rng.randint(3, max_vertices)
    directions = set()
    while len(directions) < count:
        x, y = rng.randint(-4, 4), rng.randint(-4, 4)
        if (x, y) == (0, 0):
            continue
        from math import gcd
        g = gcd(abs(x), abs(y))
        prim = (x // g, y // g)
        if prim[0] < 0 or (prim[0] == 0 and prim[1] < 0):
            prim = (-prim[0], -prim[1])
        directions.add(prim)
    names = [f"p{i}" for i in range(count)]
    images = {}
    for name, (x, y) in zip(names, sorted(directions)):
        scale = rng.randint(1, 3)
        images[name] = (scale * x, scale * y, 0)
    phi = AbelianMap(3, images)
    edge_count = rng.randint(0, count + 2)
    supports = [frozenset(rng.sample(names, 3)) for _ in range(edge_count)]
    return phi, names, supports


def hypergraph_as_presentation(phi, names, supports):
    """Wrap supports as honest relations so the library path applies.

    Each triple {a, b, c} with plane images u, v, w gets the Cramer
    dependency det(v,w)*u + det(w,u)*v + det(u,v)*w = 0; pairwise distinct
    directions keep all three coefficients nonzero.
    """
    from math import gcd

    def det2(p, q):
        return p[0] * q[1] - p[1] * q[0]

    relations = []
    for support in supports:
        a, b, c = sorted(support)
        u, v, w = phi.vector(a), phi.vector(b), phi.vector(c)
        x, y, z = det2(v, w), det2(w, u), det2(u, v)
        divisor = gcd(gcd(abs(x), abs(y)), abs(z))
        x, y, z = x // divisor, y // divisor, z // divisor
        assert x and y and z
        assert all(x * p + y * q + z * r == 0 for p, q, r in zip(u, v, w))
        relations.append(((a, x), (b, y), (c, z)))
    return Presentation(tuple(names), tuple(relations))


def test_is_sparse_trivial_cases():
    pres = standard_zn(2, "intro3")
    phi = abelian_images(pres)
    assert is_sparse(pres, phi, [0])
    assert is_sparse(pres, phi, [0, 1])  # equality 2 = 3 - 1 is allowed


def test_is_sparse_rejects_three_on_a_triple():
    pres = Presentation(("a", "b", "c"), (
        (("a", 1), ("b", 1), ("c", 1)),
        (("a", 1), ("b", 1), ("c", 1)),
        (("b", 1), ("a", 1), ("c", 1))))
    phi = abelian_images(pres)
    report = is_sparse(pres, phi, range(3))
    assert not report
    assert report.witness_generators == frozenset("abc")
    assert len(report.witness_relations) >= 3


def test_is_sparse_rejects_wrong_dimension():
    pres = Presentation(("a", "b"), ((("a", 1), ("b", -1)),))
    phi = abelian_images(pres)
    with pytest.raises(SparsityError):
        is_sparse(pres, phi, [0])


def test_is_sparse_matches_brute_force():
    rng = random.Random(314159)
    agree = 0
    for _ in range(120):
        phi, names, supports = random_plane_hypergraph(rng)
        pres = hypergraph_as_presentation(phi, names, supports)
        expected, witness = brute_sparse(phi, names,
                                         [frozenset(normalize(r).support)
                                          for r in pres.relations])
        got = is_sparse(pres, phi, range(len(pres.relations)))
        assert bool(got) == expected, (supports, witness, got)
        if not got:
            # the returned witness must itself violate the bound
            inside = sum(
                1 for r in pres.relations
                if normalize(r).support <= got.witness_generators)
            assert inside > len(got.witness_generators) - 1
        agree += 1
    assert agree == 120


def test_maximal_sparse_subset_properties():
    rng = random.Random(8)
    for _ in range(40):
        phi, names, supports = random_plane_hypergraph(rng, max_vertices=7)
        pres = hypergraph_as_presentation(phi, names, supports)
        chosen = maximal_sparse_subset(pres, phi)
        assert is_sparse(pres, phi, chosen)
        for idx in range(len(pres.relations)):
            if idx not in chosen:
                assert not is_sparse(pres, phi, list(chosen) + [idx])


def test_critical_collection_intro():
    for n in (2, 3, 4):
        pres = standard_zn(n, "intro3")
        phi = abelian_images(pres)
        collection = critical_collection(pres, phi, range(len(pres.relations)))
        expected = [frozenset({f"g{i}", f"g{j}", f"h{i}_{j}"})
                    for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        assert sorted(collection, key=sorted) == sorted(expected, key=sorted)


def test_critical_collection_empty():
    pres = Presentation(("a", "b", "c"), ((("a", 1), ("b", 1), ("c", 1)),))
    phi = abelian_images(pres)
    assert critical_collection(pres, phi, [0]) == []


def test_critical_collection_covers_brute_force():
    rng = random.Random(2718)
    for _ in range(60):
        phi, names, supports = random_plane_hypergraph(rng, max_vertices=7)
        pres = hypergraph_as_presentation(phi, names, supports)
        sup = [frozenset(normalize(r).support) for r in pres.relations]
        sparse_idx = maximal_sparse_subset(pres, phi)
        sparse_sup = [sup[i] for i in sparse_idx]
        collection = critical_collection(pres, phi, sparse_idx)
        for critical in brute_criticals(phi, names, sparse_sup):
            assert any(critical <= member for member in collection), (
                critical, collection)
        for i in range(len(collection)):
            for j in range(i + 1, len(collection)):
                left = {t for t, s in enumerate(sup) if s <= collection[i]}
                right = {t for t, s in enumerate(sup) if s <= collection[j]}
                assert not (left & right)


def test_replace_sparse_intro_identity():
    pres = standard_zn(2, "intro3")
    phi = abelian_images(pres)
    result = replace_sparse(pres, phi, SparsityPartition((0, 1), (), ()))
    out = result.presentation
    assert len(out.relations) - len(out.generators) == 2 - 3
    assert abelian_images(out).rank == 2
    assert result.relation_map == (None, None)


def test_replace_sparse_empty_collection_is_identity():
    # A lone triple is sparse with room to spare (1 <= 3 - 1 strictly), so
    # nothing is critical and the presentation passes through unchanged.
    pres = Presentation(("a", "b", "c"), ((("a", 1), ("b", 1), ("c", 1)),))
    phi = abelian_images(pres)
    result = replace_sparse(pres, phi, SparsityPartition((0,), (), ()))
    assert result.collection == ()
    assert result.presentation == pres
    assert result.relation_map == (0,)


def test_replace_sparse_extra_class():
    # Third relation on the same triple goes to the extra class.
    pres = Presentation(("a", "b", "c"), (
        (("a", 1), ("b", 1), ("c", 1)),
        (("a", 1), ("b", 1), ("c", 1)),
        (("b", 1), ("a", 1), ("c", 1))))
    phi = abelian_images(pres)
    partition = SparsityPartition((0, 1), (2,), ())
    result = replace_sparse(pres, phi, partition)
    out = result.presentation
    assert len(out.relations) - len(out.generators) == (2 + 0) - 3
    assert result.relation_map == (None, None, None)
    sig = smith_normal_form(exponent_matrix(out))
    assert sig.torsion == ()
    assert len(out.generators) - sig.rank == phi.rank


def test_replace_sparse_rejects_bad_partitions():
    pres = standard_zn(2, "intro3")
    phi = abelian_images(pres)
    with pytest.raises(ValueError):
        replace_sparse(pres, phi, SparsityPartition((0,), (), ()))
    triple = Presentation(("a", "b", "c"), (
        (("a", 1), ("b", 1), ("c", 1)),
        (("a", 1), ("b", 1), ("c", 1)),
        (("b", 1), ("a", 1), ("c", 1))))
    phi3 = abelian_images(triple)
    with pytest.raises(SparsityError):
        # other-class relation inside the critical set {a, b, c}
        replace_sparse(triple, phi3, SparsityPartition((0, 1), (), (2,)))
    with pytest.raises(SparsityError):
        # the extra relation must land inside a critical set, but with only
        # one sparse relation nothing is critical
        replace_sparse(triple, phi3, SparsityPartition((0,), (1,), (2,)))


def test_replace_subspace_examples():
    pres = standard_zn(2, "commutator")
    phi = abelian_images(pres)
    unchanged = replace_subspace(pres, phi, [])
    assert unchanged.presentation == pres
    dropped = replace_subspace(pres, phi, ["g1"])
    assert dropped.phi.rank == 1
    assert "g1" not in dropped.presentation.generators
    assert abelian_images(dropped.presentation).rank == 1
    intro = standard_zn(3, "intro3")
    phi3 = abelian_images(intro)
    out = replace_subspace(intro, phi3, ["g1", "g2", "h1_2"])
    assert out.phi.rank == 1
    assert abelian_images(out.presentation).rank == 1


def test_replace_subspace_rank_drop_random():
    rng = random.Random(1618)
    for _ in range(40):
        n = rng.randint(2, 5)
        pres = standard_zn(n, "intro3")
        phi = abelian_images(pres)
        subset = rng.sample(pres.generators, rng.randint(0, len(pres.generators)))
        d = subset_dimension(phi, subset)
        out = replace_subspace(pres, phi, subset)
        assert out.phi.rank == n - d
        snf = smith_normal_form(exponent_matrix(out.presentation))
        assert snf.torsion == ()
        assert len(out.presentation.generators) - snf.rank == n - d
