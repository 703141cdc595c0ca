"""Acceptance suite: one criterion per test, one printed verdict line each.

Every expected value here is exact; runtime budgets are asserted where the
criterion pins one.  Run with `pytest tests/test_acceptance.py -v -s` to see
the verdict lines.
"""

import random
import time
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from abelian_oracle import exponent_matrix
from euler_oracle import euler_characteristic
from lattice_oracle import brute_rank as oracle_rank, is_parallel
from sg_inputs import hypergraph
from spur_oracle import are_compatible
from zncomplex.construction import build_spurs, build_w, build_x, torus_block
from zncomplex.errors import UnsupportedSizeError
from zncomplex.factorization import (
    orthogonal_pair,
    validate_factorization,
    verify_orthogonal_pair,
)
from zncomplex.intlinalg import smith_normal_form
from zncomplex.pipeline import run_lower
from zncomplex.presentation import (
    AbelianMap,
    Presentation,
    SparsityPartition,
    abelian_images,
    critical_collection,
    deficiency_bounds,
    extract_presentation,
    is_sparse,
    maximal_sparse_subset,
    minimize,
    normalize,
    replace1,
    replace2,
    replace_sparse,
    replace_subspace,
    standard_zn,
    subset_dimension,
)
from zncomplex.sg import (
    config,
    is_delta_sg,
    prune_min_degree,
    sg_reduce,
)
from zncomplex.simplicial import (
    collapse_spur,
    homology_through,
    is_spur,
    validate,
)


def verdict(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:2d}: {status} - {detail}")
    assert ok, f"criterion {number}: {detail}"


# ---------------------------------------------------------------------------

X_SIZES = {1: 5, 2: 7, 7: 29, 8: 31, 9: 37, 10: 39, 11: 45, 12: 47}


def test_criterion_01_vertex_counts():
    start = time.monotonic()
    counts = {m: build_x(m).vertex_count for m in X_SIZES}
    refused = []
    for m in (3, 4, 5, 6):
        with pytest.raises(UnsupportedSizeError):
            build_x(m)
        refused.append(m)
    elapsed = time.monotonic() - start
    ok = counts == X_SIZES and refused == [3, 4, 5, 6] and elapsed < 10
    verdict(1, ok, f"vertex counts {counts}, refused {refused}, {elapsed:.1f}s < 10s")


def test_criterion_02_homology_certification():
    start = time.monotonic()
    ok = True
    details = []
    for m in X_SIZES:
        x = build_x(m)
        w, _ = build_w(m)
        hx = homology_through(x, 2)
        hw = homology_through(w, 2)
        good = (hx == hw
                and hx[1].betti == m and not hx[1].torsion
                and hx[2].betti == comb(m, 2) and not hx[2].torsion)
        ok = ok and good
        details.append(f"m={m}:Z^{hx[1].betti}")
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60
    verdict(2, ok, f"H1/H2 exact and collapse-invariant ({', '.join(details)}), "
                   f"{elapsed:.1f}s < 60s")


def test_criterion_03_w_census():
    ok = True
    for n in range(1, 9):
        complex_, _ = build_w(n)
        counts = complex_.face_counts() + [0, 0, 0]
        ok = ok and counts[0] == n * n + n + 1
        ok = ok and counts[1] == 3 * n + 15 * comb(n, 2)
        ok = ok and counts[2] == 14 * comb(n, 2)
        ok = ok and euler_characteristic(complex_) == 1 - n + comb(n, 2)
        ok = ok and bool(validate(complex_))
    verdict(3, ok, "vertex/edge/triangle counts and Euler characteristic "
                   "exact for n <= 8")


def test_criterion_04_factorizations():
    start = time.monotonic()
    ok = True
    for size in (2, 8, 10, 12, 14, 16):
        pair = orthogonal_pair(size)
        ok = ok and bool(validate_factorization(pair.first))
        ok = ok and bool(validate_factorization(pair.second))
        ok = ok and bool(verify_orthogonal_pair(pair))
    for size in (4, 6):
        with pytest.raises(UnsupportedSizeError):
            orthogonal_pair(size)
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60
    verdict(4, ok, f"orthogonal pairs for 2,8,10,12,14,16; 4 and 6 refused; "
                   f"{elapsed:.1f}s < 60s")


def test_criterion_05_spur_machinery():
    ok = True
    for n in (4, 5):
        for parity in ("even", "odd"):
            m = 2 * n if parity == "even" else 2 * n - 1
            complex_, labeling = build_w(m)
            pair = orthogonal_pair(2 * n)
            spurs = build_spurs(pair, labeling)
            ok = ok and len(spurs) == 4 * n - 2
            members = [v for s in spurs for v in s]
            ok = ok and len(members) == len(set(members))
            ok = ok and set(members) == set(labeling.w.values())
            current = complex_
            base = labeling.u
            pending = [set(s) for s in spurs]
            while pending:
                for s in pending:
                    ok = ok and bool(is_spur(current, base, s))
                for a, b in combinations(pending, 2):
                    ok = ok and are_compatible(current, base, a, b)
                head = pending.pop(0)
                current, step = collapse_spur(current, base, head)
                base = step[base]
                pending = [{step[v] for v in s} for s in pending]
                assert ok
    verdict(5, ok, "4n-2 spurs partition the paired vertices and stay "
                   "compatible through every collapse (n = 4, 5)")


def test_criterion_06_extraction():
    from zncomplex.simplicial import from_maximal_faces

    cases = [
        ("block", from_maximal_faces(torus_block(0, 1, 2, 3, 4, 5, 6)), 2),
        ("x7", build_x(7), 7),
        ("x8", build_x(8), 8),
    ]
    ok = True
    details = []
    for name, complex_, rank in cases:
        pres = extract_presentation(complex_, 0)
        k = complex_.vertex_count
        edges = len(complex_.faces_of_dim(1))
        triangles = len(complex_.faces_of_dim(2))
        ok = ok and len(pres.generators) == edges - k + 1
        ok = ok and len(pres.generators) <= comb(k, 2)
        ok = ok and len(pres.relations) == triangles
        ok = ok and len(pres.relations) <= comb(k, 3)
        for rel in pres.relations:
            ok = ok and 0 < len(rel) <= 3
            ok = ok and all(e in (1, -1) for _, e in rel)
        phi = abelian_images(pres)  # raises on torsion
        ok = ok and phi.rank == rank
        details.append(f"{name}: |S|={len(pres.generators)}, "
                       f"|R|={len(pres.relations)}, Z^{phi.rank}")
    verdict(6, ok, "; ".join(details))


def group_signature(pres):
    snf = smith_normal_form(exponent_matrix(pres))
    return (len(pres.generators) - snf.rank, snf.torsion)


def random_zn_presentation(rng, n):
    pres = standard_zn(n, "intro3")
    gens = list(pres.generators)
    rels = list(pres.relations)
    for extra in range(rng.randint(0, 2)):
        name = f"z{extra}"
        gens.append(name)
        if rng.random() < 0.4:
            rels.append(((name, rng.choice((1, -1))),))
        else:
            anchor = rng.choice(pres.generators)
            rels.append(((name, 1), (anchor, rng.choice((-2, -1, 1, 2, 3)))))
    if rng.random() < 0.4:
        rels.append(rng.choice(rels))
    rng.shuffle(rels)
    return Presentation(tuple(gens), tuple(rels))


def test_criterion_07_rewriting_soundness():
    rng = random.Random(70707)
    applications = 0
    ok = True
    while applications < 200:
        n = rng.randint(2, 6)
        pres = random_zn_presentation(rng, n)
        phi = abelian_images(pres)
        signature = group_signature(pres)
        zero = next((g for g in pres.generators if not any(phi.vector(g))), None)
        if zero is not None and rng.random() < 0.5:
            pres, phi = replace1(pres, phi, zero)
            applications += 1
        else:
            pres, phi = minimize(pres, phi)
            applications += 1
        ok = ok and group_signature(pres) == signature
    # replace2 on explicit coprime dependencies
    for _ in range(40):
        n = rng.randint(2, 5)
        base = standard_zn(n, "intro3")
        gens = base.generators + ("y",)
        anchor = rng.choice(base.generators)
        scale = rng.choice((-3, -2, -1, 1, 2))
        rels = base.relations + ((("y", 1), (anchor, scale)),)
        pres = Presentation(gens, rels)
        phi = abelian_images(pres)
        signature = group_signature(pres)
        out, _ = replace2(pres, phi, "y", anchor, 1, scale)
        ok = ok and group_signature(out) == signature
        applications += 1
    # replace_subspace: exact rank drop, no torsion
    for _ in range(30):
        n = rng.randint(2, 6)
        pres = standard_zn(n, "intro3")
        phi = abelian_images(pres)
        subset = rng.sample(pres.generators,
                            rng.randint(0, len(pres.generators)))
        d = subset_dimension(phi, subset)
        out = replace_subspace(pres, phi, subset)
        free, torsion = group_signature(out)
        ok = ok and free == n - d and torsion == ()
    # replace_sparse: the size identity on every run
    identity_runs = 0
    for _ in range(30):
        n = rng.randint(2, 5)
        raw = random_zn_presentation(rng, n)
        pres, phi = minimize(raw, abelian_images(raw))
        sparse_idx = maximal_sparse_subset(pres, phi)
        rest = tuple(i for i in range(len(pres.relations))
                     if i not in set(sparse_idx))
        result = replace_sparse(pres, phi, SparsityPartition(sparse_idx, rest, ()))
        lhs = len(result.presentation.relations) - len(result.presentation.generators)
        rhs = len(sparse_idx) - len(pres.generators)
        ok = ok and lhs == rhs
        free, torsion = group_signature(result.presentation)
        ok = ok and free == n and torsion == ()
        identity_runs += 1
    verdict(7, ok, f"{applications} rewrite applications preserve the group "
                   f"signature; subspace drops rank by d exactly; sparse "
                   f"identity held on {identity_runs} runs")


def determinant(matrix):
    """Laplace expansion along the first row; exact on integers."""
    if len(matrix) == 1:
        return matrix[0][0]
    return sum((-1) ** j * x * determinant([row[:j] + row[j + 1:]
                                            for row in matrix[1:]])
               for j, x in enumerate(matrix[0]) if x)


def independent(rows):
    """Do the rows have a nonzero maximal minor?"""
    return any(determinant([[row[c] for c in cols] for row in rows])
               for cols in combinations(range(len(rows[0])), len(rows)))


def random_plane_hypergraph(rng, max_vertices):
    from math import gcd

    count = rng.randint(3, max_vertices)
    directions = set()
    while len(directions) < count:
        x, y = rng.randint(-5, 5), rng.randint(-5, 5)
        if (x, y) == (0, 0):
            continue
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
    supports = [frozenset(rng.sample(names, 3))
                for _ in range(rng.randint(0, count + 2))]

    def det2(p, q):
        return p[0] * q[1] - p[1] * q[0]

    relations = []
    for support in supports:
        a, b, c = sorted(support)
        u, v, w = images[a], images[b], images[c]
        x, y, z = det2(v, w), det2(w, u), det2(u, v)
        g = gcd(gcd(abs(x), abs(y)), abs(z))
        relations.append(((a, x // g), (b, y // g), (c, z // g)))
    return phi, names, Presentation(tuple(names), tuple(relations))


def test_criterion_08_sparsity_oracle_equivalence():
    rng = random.Random(80808)
    ok = True
    runs = 0
    for _ in range(500):
        phi, names, pres = random_plane_hypergraph(rng, max_vertices=12)
        supports = [frozenset(normalize(r).support) for r in pres.relations]
        got = is_sparse(pres, phi, range(len(pres.relations)))
        # Both loops below share one independent set of images per subset:
        # the set of the subset without its last generator, which gains that
        # generator's image when a maximal minor stays nonzero.  Its size is
        # the subset's rank, which the first 20 cases check against the
        # Fraction elimination oracle.  A set as large as the rank of all
        # the images gains nothing, so no minor is taken for it.
        bases = {(): []}
        top = len(names)

        def basis(subset):
            if subset not in bases:
                prefix = basis(subset[:-1])
                grown = prefix + [phi.vector(subset[-1])]
                bases[subset] = grown if len(prefix) < top and independent(
                    grown) else prefix
                if runs < 20:
                    assert len(bases[subset]) == oracle_rank(
                        [phi.vector(g) for g in subset]), subset
            return bases[subset]

        def planar(subset):
            return len(basis(subset)) == 2

        top = len(basis(tuple(names)))

        expected = True
        for size in range(1, len(names) + 1):
            for subset in combinations(names, size):
                if not planar(subset):
                    continue
                inside = sum(1 for s in supports if s <= set(subset))
                if inside > size - 1:
                    expected = False
                    break
            if not expected:
                break
        ok = ok and bool(got) == expected
        sparse_idx = maximal_sparse_subset(pres, phi)
        collection = critical_collection(pres, phi, sparse_idx)
        sparse_sup = [supports[i] for i in sparse_idx]
        for size in range(1, len(names) + 1):
            for subset in combinations(names, size):
                if not planar(subset):
                    continue
                inside = sum(1 for s in sparse_sup if s <= set(subset))
                if inside == size - 1:
                    ok = ok and any(set(subset) <= member
                                    for member in collection)
        for i in range(len(collection)):
            for j in range(i + 1, len(collection)):
                left = {t for t, s in enumerate(supports) if s <= collection[i]}
                right = {t for t, s in enumerate(supports) if s <= collection[j]}
                ok = ok and not (left & right)
        runs += 1
        assert ok, f"disagreement on run {runs}"
    verdict(8, ok, f"is_sparse and critical sets agree with brute force on "
                   f"{runs} random plane hypergraphs")


def test_criterion_09_deficiency_bounds():
    ok = True
    produced = []
    for n in range(1, 9):
        produced.append((standard_zn(n, "commutator"), n, "commutator"))
        intro = standard_zn(n, "intro3")
        produced.append((intro, n, "intro3"))
        minimized, _ = minimize(intro, abelian_images(intro))
        produced.append((minimized, n, "minimized intro3"))
    from zncomplex.simplicial import from_maximal_faces
    block = from_maximal_faces(torus_block(0, 1, 2, 3, 4, 5, 6))
    produced.append((extract_presentation(block, 0), 2, "block extraction"))
    produced.append((extract_presentation(build_x(7), 0), 7, "x7 extraction"))
    produced.append((extract_presentation(build_x(8), 0), 8, "x8 extraction"))
    for pres, n, label in produced:
        good = bool(deficiency_bounds(pres, n))
        assert good, label
        ok = ok and good
    for n in range(1, 9):
        com = standard_zn(n, "commutator")
        ok = ok and len(com.generators) == n
        ok = ok and len(com.relations) == comb(n, 2)
        ok = ok and len(com.relations) - len(com.generators) == comb(n, 2) - n
    verdict(9, ok, f"|S| >= n, |R|-|S| >= C(n,2)-n, |R| >= C(n,2) on "
                   f"{len(produced)} presentations; commutator attains equality")


def collinear(p, q, r):
    """Three distinct points on one line: q - p and r - p are parallel."""
    return is_parallel([b - a for a, b in zip(p, q)],
                       [c - a for a, c in zip(p, r)])


def test_criterion_10_sg_module():
    rng = random.Random(101010)
    ok = True
    # is_delta_sg against brute-force line enumeration
    for _ in range(200):
        dim = rng.randint(2, 4)
        count = rng.randint(3, 15)
        points = set()
        while len(points) < count:
            points.add(tuple(rng.randint(-4, 4) for _ in range(dim)))
        points = sorted(points)
        _, tallies = is_delta_sg(config(points), Fraction(1, 3)).witness
        for i, p in enumerate(points):
            seen = 0
            for j, q in enumerate(points):
                if j != i and any(collinear(p, q, points[k])
                                  for k in range(len(points)) if k not in (i, j)):
                    seen += 1
            ok = ok and tallies[i] == seen
        assert ok
    # prune against the naive fixpoint
    for _ in range(60):
        n = rng.randint(3, 18)
        graph = hypergraph([tuple(rng.sample(range(n), 3))
                            for _ in range(rng.randint(0, 2 * n))], n)
        threshold = Fraction(rng.randint(1, 5), rng.choice((1, 2)))
        pruned = prune_min_degree(graph, threshold)
        alive = set(graph.vertices)
        edges = list(graph.edges)
        changed = True
        while changed:
            changed = False
            for v in sorted(alive):
                if sum(1 for e in edges if v in e) < threshold:
                    alive.discard(v)
                    edges = [e for e in edges if v not in e]
                    changed = True
                    break
        ok = ok and pruned.vertices == tuple(sorted(alive))
        ok = ok and sorted(map(sorted, pruned.edges)) == sorted(map(sorted, edges))
    # sg_reduce bound checks on hypothesis-satisfying runs
    reduce_runs = 0
    for n in range(2, 7):
        pres = standard_zn(n, "intro3")
        phi = abelian_images(pres)
        points = [phi.vector(g) for g in pres.generators]
        index = {g: i for i, g in enumerate(pres.generators)}
        edges = tuple(frozenset(index[g] for g in normalize(r).support)
                      for r in pres.relations)
        graph = hypergraph([sorted(e) for e in edges], len(points))
        for threshold in (Fraction(1, 2), Fraction(1), Fraction(24 * len(points), n)):
            out = sg_reduce(config(points, dimension=n), graph, threshold)
            ok = ok and out.removed_edges < threshold * len(points)
            ok = ok and out.dim_span <= 12 * len(points) / threshold
            reduce_runs += 1
    verdict(10, ok, f"delta-SG tallies match brute force on 200 configs; "
                    f"pruning matches the naive fixpoint; bounds held on "
                    f"{reduce_runs} reduction runs")


def test_criterion_11_end_to_end():
    start = time.monotonic()
    ok = True
    details = []
    for n in range(2, 7):
        report = run_lower(standard_zn(n, "intro3"), c=Fraction(24))
        ok = ok and report.ok
        ranks = [s.rank for s in report.stages]
        # rank constant until replace-subspace, which drops it by exactly d
        ok = ok and len(set(ranks[:7])) == 1
        k = report.stages[1].generators
        d = ranks[0] - ranks[-1]
        ok = ok and report.final_difference <= Fraction(24) * k * k / n + d
        ok = ok and report.final_bound == Fraction(24) * k * k / n + d
        details.append(f"n={n}: {report.final_difference} <= {report.final_bound}")
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 120
    verdict(11, ok, "; ".join(details) + f"; {elapsed:.1f}s < 120s")
