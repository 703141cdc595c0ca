"""Plane sparsity against brute-force subset enumeration."""

import random
import time
from itertools import combinations, permutations
from math import gcd

import pytest

from abelian_oracle import exponent_matrix
from lattice_oracle import brute_rank
from zncomplex import presentation
from zncomplex.construction import build_x
from zncomplex.errors import SparsityError, TooLongError
from zncomplex.presentation import (
    AbelianMap,
    Presentation,
    SparsityPartition,
    abelian_images,
    critical_collection,
    extract_presentation,
    is_sparse,
    maximal_sparse_subset,
    minimize,
    normalize,
    relation_planes,
    replace_sparse,
    replace_subspace,
    standard_zn,
    subset_dimension,
)
from zncomplex.intlinalg import primitive_direction, smith_normal_form


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


def plane_images(rng, count):
    """count generators with distinct directions inside span(e1, e2) of Z^3."""
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
    return AbelianMap(3, images), names


def random_plane_hypergraph(rng, max_vertices=9):
    """A presentation whose relations are random triples inside one plane.

    Generators get distinct directions inside span(e1, e2) of Z^3 plus a
    helper outside, so all triples have dimension two.
    """
    count = rng.randint(3, max_vertices)
    phi, names = plane_images(rng, count)
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
    witness_generators, witness_relations = report.witness
    assert witness_generators == frozenset("abc")
    assert len(witness_relations) >= 3


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
            witness_generators, _ = got.witness
            inside = sum(
                1 for r in pres.relations
                if normalize(r).support <= witness_generators)
            assert inside > len(witness_generators) - 1
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


def hall_hyperforest(supports):
    """Every k edges touch >= k+1 vertices: for each vertex v, a matching of
    every edge to one of its other vertices exists (Hall; test-local oracle)."""
    for v in set().union(*supports):
        match = {}

        def augment(i, seen):
            for w in sorted(supports[i] - {v}):
                if w not in seen:
                    seen.add(w)
                    if w not in match or augment(match[w], seen):
                        match[w] = i
                        return True
            return False

        if not all(augment(i, set()) for i in range(len(supports))):
            return False
    return True


def greedy_sparse_subset(pres, phi):
    """The greedy that re-ran the Hall-matching test on every insertion."""
    by_plane = {}
    chosen = []
    for idx in range(len(pres.relations)):
        (key, _), = relation_planes(pres, phi, [idx]).items()
        trial = by_plane.get(key, []) + [normalize(pres.relations[idx]).support]
        if hall_hyperforest(trial):
            by_plane[key] = trial
            chosen.append(idx)
    return tuple(chosen)


def enumerated_critical_collection(pres, phi, rel_indices):
    """The 2^k enumeration of each plane's criticals, then the merge loop."""
    supports = [normalize(r).support for r in pres.relations]
    planes = relation_planes(pres, phi, rel_indices)
    if not all(hall_hyperforest([supports[i] for i in idxs])
               for idxs in planes.values()):
        raise SparsityError("not sparse")

    def full_inside(member):
        return {i for i, s in enumerate(supports) if s <= member}

    collection = []
    for idxs in planes.values():
        basis = [phi.vector(g) for g in supports[idxs[0]]]
        members = [g for g in pres.generators
                   if brute_rank(basis + [phi.vector(g)]) == 2]
        direction = {g: primitive_direction(phi.vector(g)) for g in members}
        edge_masks = [sum(1 << members.index(g) for g in supports[i])
                      for i in idxs]
        criticals = []
        for mask in range(1, 1 << len(members)):
            size = mask.bit_count()
            if size < 3 or sum(1 for em in edge_masks if em & ~mask == 0) != size - 1:
                continue
            subset = [g for t, g in enumerate(members) if mask >> t & 1]
            if len({direction[g] for g in subset}) >= 2:
                criticals.append(frozenset(subset))
        merged = True
        while merged:
            merged = False
            for i, j in combinations(range(len(criticals)), 2):
                if full_inside(criticals[i]) & full_inside(criticals[j]):
                    union = criticals[i] | criticals[j]
                    criticals = [s for t, s in enumerate(criticals)
                                 if t not in (i, j) and s != union] + [union]
                    merged = True
                    break
        collection.extend(criticals)
    return sorted(collection, key=lambda s: tuple(sorted(s)))


def oracle_plane_cases(seed, cases):
    """One-plane presentations with 3..16 generators, a quarter of the
    relations repeating an earlier triple."""
    rng = random.Random(seed)
    for case in range(cases):
        count = 3 + case % 14
        phi, names = plane_images(rng, count)
        supports = []
        for _ in range(rng.randint(count - 2, count + 2)):
            if supports and rng.random() < 0.25:
                supports.append(rng.choice(supports))
            else:
                supports.append(frozenset(rng.sample(names, 3)))
        yield phi, hypergraph_as_presentation(phi, names, supports)


def test_maximal_sparse_subset_equals_greedy_oracle():
    for phi, pres in oracle_plane_cases(161803, 210):
        assert maximal_sparse_subset(pres, phi) == greedy_sparse_subset(pres, phi)


def test_critical_collection_equals_enumeration_oracle():
    nonempty = rejected = 0
    for phi, pres in oracle_plane_cases(141421, 210):
        chosen = maximal_sparse_subset(pres, phi)
        collection = critical_collection(pres, phi, chosen)
        assert collection == enumerated_critical_collection(pres, phi, chosen)
        nonempty += bool(collection)
        everything = range(len(pres.relations))
        if len(chosen) < len(pres.relations):
            rejected += 1
            with pytest.raises(SparsityError):
                critical_collection(pres, phi, everything)
            with pytest.raises(SparsityError):
                enumerated_critical_collection(pres, phi, everything)
    assert nonempty >= 50 and rejected >= 50, (nonempty, rejected)


def test_critical_collection_of_forty_generators():
    # One plane, generator pi with image (1, i, 0).  A chain of triples
    # {p_i, p_i+1, p_i+2} on p0..p19 with its first triple doubled has
    # 19 relations on 20 generators and every prefix tight; the plain chain
    # on p20..p39 has no tight set of three or more.
    names = [f"p{i}" for i in range(40)]
    phi = AbelianMap(3, {g: (1, i, 0) for i, g in enumerate(names)})
    supports = [frozenset(names[0:3])]
    supports += [frozenset(names[i:i + 3]) for i in range(18)]
    supports += [frozenset(names[i:i + 3]) for i in range(20, 38)]
    pres = hypergraph_as_presentation(phi, names, supports)
    start = time.perf_counter()
    assert maximal_sparse_subset(pres, phi) == tuple(range(len(supports)))
    collection = critical_collection(pres, phi, range(len(supports)))
    assert time.perf_counter() - start < 1.0
    assert collection == [frozenset(names[:20])]


def fresh_copies(pres, phi):
    return (Presentation(pres.generators, pres.relations),
            AbelianMap(phi.rank, dict(phi.images)))


def sparsity_calls(pres, phi):
    """The four memo readers, each returning its answer or its error."""
    everything = range(len(pres.relations))
    chosen = greedy_sparse_subset(pres, phi)
    rest = tuple(i for i in everything if i not in chosen)

    def outcome(call):
        def run(p, f):
            try:
                return call(p, f)
            except SparsityError as exc:
                return ("raised", str(exc), exc.witness)
        return run

    return {
        "is_sparse": outcome(lambda p, f: is_sparse(p, f, everything)),
        "maximal": outcome(maximal_sparse_subset),
        "critical": outcome(lambda p, f: critical_collection(p, f, everything)),
        "replace": outcome(lambda p, f: replace_sparse(
            p, f, SparsityPartition(chosen, rest, ()))),
    }


def test_memoized_calls_agree_in_every_order():
    cases = [(abelian_images(standard_zn(3, "intro3")), standard_zn(3, "intro3"))]
    cases += list(oracle_plane_cases(57721, 12))
    for phi, pres in cases:
        calls = sparsity_calls(pres, phi)
        expected = {name: call(*fresh_copies(pres, phi))
                    for name, call in calls.items()}
        for order in permutations(calls):
            shared = fresh_copies(pres, phi)
            for name in order:
                assert calls[name](*shared) == expected[name], (order, name)


def test_each_support_gets_one_plane_key(monkeypatch):
    keys = []

    def counted(rows):
        keys.append(rows)
        return original(rows)

    original = presentation.plane_key
    monkeypatch.setattr(presentation, "plane_key", counted)
    for phi, pres in oracle_plane_cases(16180, 20):
        keys.clear()
        everything = range(len(pres.relations))
        is_sparse(pres, phi, everything)
        chosen = maximal_sparse_subset(pres, phi)
        rest = tuple(i for i in everything if i not in chosen)
        replace_sparse(pres, phi, SparsityPartition(chosen, rest, ()))
        distinct = {normalize(rel).support for rel in pres.relations}
        assert len(keys) == len(distinct)


def test_planes_make_no_rank_call_on_success(monkeypatch):
    def refuse(rows):
        raise AssertionError("rank_of_rows called")

    monkeypatch.setattr(presentation, "rank_of_rows", refuse)
    for phi, pres in oracle_plane_cases(2024, 10):
        relation_planes(pres, phi, range(len(pres.relations)))


def test_is_sparse_ignores_a_long_relation_outside_its_indices():
    phi = AbelianMap(2, {"a": (1, 0), "b": (0, 1), "c": (1, 1), "d": (2, 1)})
    pres = Presentation(("a", "b", "c", "d"), (
        (("a", 1), ("b", 1), ("c", -1)),
        (("a", 1), ("b", 1), ("c", 1), ("d", 1))))
    assert is_sparse(pres, phi, [0])
    assert 1 not in pres._supports
    with pytest.raises(TooLongError):
        is_sparse(pres, phi, [0, 1])


def test_relation_planes_names_the_wrong_dimension():
    phi = AbelianMap(3, {"a": (1, 0, 0), "b": (2, 0, 0), "c": (0, 1, 0),
                         "d": (0, 0, 1)})
    cases = {
        1: (("a", 1), ("b", 1)),
        3: (("a", 1), ("c", 1), ("d", 1)),
        0: (),
    }
    for dim, rel in cases.items():
        pres = Presentation(("a", "b", "c", "d"),
                            ((("a", 1), ("c", 1), ("b", -1)), rel))
        for call in (lambda: relation_planes(pres, phi, [0, 1]),
                     lambda: is_sparse(pres, phi, [0, 1]),
                     lambda: maximal_sparse_subset(pres, phi)):
            with pytest.raises(SparsityError) as info:
                call()
            assert str(info.value) == (
                f"relation 1 has dimension {dim}; the plane analysis needs "
                f"dimension exactly 2")
            assert info.value.witness == 1
    with pytest.raises(ValueError, match="unknown generator"):
        relation_planes(Presentation(("a", "e"), ((("a", 1), ("e", 1)),)), phi, [0])


def test_memo_leaves_equality_hash_and_repr_alone():
    pres = standard_zn(3, "intro3")
    phi = abelian_images(pres)
    before = (repr(pres), hash(pres), repr(phi))
    critical_collection(pres, phi, range(len(pres.relations)))
    assert pres._supports and phi._planes
    copy, phi_copy = fresh_copies(pres, phi)
    assert (repr(pres), hash(pres), repr(phi)) == before
    assert pres == copy and hash(pres) == hash(copy)
    assert phi == phi_copy
    for value in (phi, phi_copy):
        with pytest.raises(TypeError):  # images is a dict, before and after
            hash(value)


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


def test_replace_sparse_returns_its_inputs_when_nothing_is_critical():
    pres = Presentation(("a", "b", "c"), ((("a", 1), ("b", 1), ("c", 1)),))
    phi = abelian_images(pres)
    result = replace_sparse(pres, phi, SparsityPartition((0,), (), ()))
    assert result.presentation is pres and result.phi is phi


def test_replace_sparse_rejects_an_extra_relation_when_nothing_is_critical():
    # One sparse relation leaves nothing critical, so the extra relation
    # lies in no critical set.
    relation = (("a", 1), ("b", 1), ("c", 1))
    pres = Presentation(("a", "b", "c"), (relation, relation))
    phi = abelian_images(pres)
    with pytest.raises(SparsityError, match="^extra relation 1 lies in no ") as info:
        replace_sparse(pres, phi, SparsityPartition((0,), (1,), ()))
    assert info.value.witness == 1


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


def test_replace_sparse_guards_raise_sparsity_errors(monkeypatch):
    # No partition or map reaches these three guards: each critical set
    # spans a rank-two lattice, echelon's basis spans every member image, and
    # the size identity follows from the critical sets being tight.  Each is
    # forced here by breaking the step it guards.  They are raises, not
    # asserts, so they hold under python -O as well.
    pres = standard_zn(2, "intro3")
    phi = abelian_images(pres)
    partition = SparsityPartition((0, 1), (), ())
    member = frozenset(pres.generators)
    echelon = presentation.echelon
    with monkeypatch.context() as patch:
        patch.setattr(presentation, "echelon",
                      lambda rows: (echelon(rows)[0][:1], None, None))
        with pytest.raises(SparsityError, match="rank 1, not two") as info:
            replace_sparse(pres, phi, partition)
    assert info.value.witness == member
    with monkeypatch.context() as patch:
        patch.setattr(presentation, "coordinates", lambda vector, basis: None)
        with pytest.raises(SparsityError, match="outside the lattice") as info:
            replace_sparse(pres, phi, partition)
    assert info.value.witness == pres.generators[0]
    triple = Presentation(("a", "b", "c"), ((("a", 1), ("b", 1), ("c", 1)),))
    with monkeypatch.context() as patch:
        # {a, b, c} holds one relation, not two: it is not critical.
        patch.setattr(presentation, "critical_collection",
                      lambda pres, phi, idx: [frozenset("abc")])
        with pytest.raises(SparsityError, match="size identity") as info:
            replace_sparse(triple, abelian_images(triple),
                           SparsityPartition((0,), (), ()))
    assert info.value.witness == (-1, -2)


def test_empty_relation_is_rejected_before_any_plane():
    # An empty relation in the sparse class would otherwise be keyed as a
    # plane and rejected for its dimension 0; the support guard comes first.
    pres = Presentation(("a", "b", "c"), (
        (("a", 1), ("b", 1), ("c", 1)), (("a", 1), ("a", -1))))
    phi = abelian_images(pres)
    message = "empty-normal-form relations must be stripped first"
    for call in (lambda: critical_collection(pres, phi, [0, 1]),
                 lambda: critical_collection(pres, phi, [0]),
                 lambda: replace_sparse(pres, phi, SparsityPartition((0, 1), (), ())),
                 lambda: replace_sparse(pres, phi, SparsityPartition((0,), (), (1,)))):
        with pytest.raises(SparsityError) as info:
            call()
        assert str(info.value) == message


def plane_cramer_triple(images, triple):
    """The relation a^x b^y c^z of three plane images with x u + y v + z w = 0.

    images maps each name to (plane basis, 2D coordinates); Cramer's rule on
    the coordinates gives the dependency, nonzero for distinct directions.
    """
    (_, u), (_, v), (_, w) = (images[g] for g in triple)
    x = v[0] * w[1] - v[1] * w[0]
    y = w[0] * u[1] - w[1] * u[0]
    z = u[0] * v[1] - u[1] * v[0]
    divisor = gcd(gcd(x, y), z)
    return tuple(zip(triple, (x // divisor, y // divisor, z // divisor)))


def multi_plane_case(rng, hub=False):
    """Generators in three planes of Z^4, two of which share the generator s.

    Each plane gets 3..6 generators of distinct directions and random
    triples among them, a quarter of them repeats.  s has image e1 and
    coordinates (1, 0) in every plane whose first basis vector is e1, so
    relations, and critical sets, of each such plane can hold it.  With
    hub, all three planes (e1, e2), (e1, e3) and (e1, e4) share s.
    """
    e = [tuple(int(i == j) for j in range(4)) for i in range(4)]
    images, relations = {"s": ((e[0], e[1]), (1, 0))}, []
    last = (e[0], e[3]) if hub else (e[2], e[3])
    for basis in ((e[0], e[1]), (e[0], e[2]), last):
        shared = basis[0] == e[0]
        directions, count = {(1, 0)} if shared else set(), rng.randint(3, 6)
        while len(directions) < count:
            x, y = rng.randint(-3, 3), rng.randint(1, 3)
            directions.add((x, y) if gcd(x, y) == 1 else (1, 0))
        names = []
        for x, y in sorted(directions):
            if shared and (x, y) == (1, 0):
                names.append("s")
                continue
            name = f"p{len(images)}"
            scale = rng.randint(1, 2)
            images[name] = (basis, (scale * x, scale * y))
            names.append(name)
        plane_relations = []
        for _ in range(rng.randint(len(names) - 2, len(names) + 2)):
            if plane_relations and rng.random() < 0.25:
                plane_relations.append(rng.choice(plane_relations))
            else:
                triple = sorted(rng.sample(names, 3))
                plane_relations.append(plane_cramer_triple(images, triple))
        relations += plane_relations
    rng.shuffle(relations)
    phi = AbelianMap(4, {g: tuple(x * p + y * q for p, q in zip(*basis))
                         for g, (basis, (x, y)) in images.items()})
    return Presentation(tuple(images), tuple(relations)), phi


def minimized_extract(m):
    pres = extract_presentation(build_x(m), 0)
    return minimize(pres, abelian_images(pres))


def test_replace_sparse_drops_exactly_the_relations_inside_a_critical_set():
    rng = random.Random(8128)
    cases = [multi_plane_case(rng) for _ in range(60)]
    cases += [minimized_extract(m) for m in (7, 8)]
    # s in the critical sets of three planes: an index that keeps one set
    # per generator misses relations inside all but one of them.
    hub_rng = random.Random(1729)
    cases += [multi_plane_case(hub_rng, hub=True) for _ in range(30)]
    outcomes = {"dropped": 0, "kept": 0, "extra": 0, "other": 0, "overlapping": 0}
    three_planes = 0
    for pres, phi in cases:
        shared = False
        supports = [normalize(rel).support for rel in pres.relations]
        maximal = maximal_sparse_subset(pres, phi)
        subsets = [maximal] + [tuple(i for i in maximal if rng.random() < 0.8)
                               for _ in range(3)]
        for sparse in subsets:
            collection = enumerated_critical_collection(pres, phi, sparse)
            inside = {i for i, s in enumerate(supports)
                      if any(s <= member for member in collection)}
            rest = [i for i in range(len(pres.relations)) if i not in sparse]
            natural = ([i for i in rest if i in inside],
                       [i for i in rest if i not in inside])
            shuffled = ([], [])
            for i in rest:
                shuffled[rng.random() < 0.5].append(i)
            for extra, other in (natural, shuffled):
                partition = SparsityPartition(sparse, tuple(extra), tuple(other))
                outside = [i for i in extra if i not in inside]
                trapped = [i for i in other if i in inside]
                if outside or trapped:
                    kind, idx = ("extra", outside[0]) if outside else ("other", trapped[0])
                    with pytest.raises(SparsityError, match=f"^{kind}") as info:
                        replace_sparse(pres, phi, partition)
                    assert info.value.witness == idx
                    outcomes[kind] += 1
                    continue
                result = replace_sparse(pres, phi, partition)
                assert list(result.collection) == collection
                dropped = {i for i, j in enumerate(result.relation_map) if j is None}
                assert dropped == inside
                outcomes["dropped"] += len(dropped)
                outcomes["kept"] += len(pres.relations) - len(dropped)
                outcomes["overlapping"] += any(
                    a & b for a, b in combinations(collection, 2))
                shared = shared or any(
                    sum(g in member for member in collection) >= 3
                    for g in pres.generators)
        three_planes += shared
    assert min(outcomes.values()) >= 30, outcomes
    assert three_planes >= 10, three_planes


def test_replace_subspace_examples():
    pres = standard_zn(2, "commutator")
    phi = abelian_images(pres)
    assert replace_subspace(pres, phi, []) is pres
    dropped = replace_subspace(pres, phi, ["g1"])
    assert "g1" not in dropped.generators
    assert abelian_images(dropped).rank == 1
    intro = standard_zn(3, "intro3")
    phi3 = abelian_images(intro)
    out = replace_subspace(intro, phi3, ["g1", "g2", "h1_2"])
    assert abelian_images(out).rank == 1


def test_replace_subspace_reads_a_one_shot_iterable_once():
    intro = standard_zn(3, "intro3")
    phi = abelian_images(intro)
    with pytest.raises(ValueError, match="unknown generator 'nope'"):
        replace_subspace(intro, phi, (g for g in ["nope"]))
    with pytest.raises(ValueError, match="unknown generator 'nope'"):
        replace_subspace(intro, phi, iter(["g1", "nope"]))
    subset = ["g1", "g2", "h1_2"]
    assert replace_subspace(intro, phi, iter(subset)) == \
        replace_subspace(intro, phi, subset)


def test_replace_subspace_rank_drop_random():
    rng = random.Random(1618)
    for _ in range(40):
        n = rng.randint(2, 5)
        pres = standard_zn(n, "intro3")
        phi = abelian_images(pres)
        subset = rng.sample(pres.generators, rng.randint(0, len(pres.generators)))
        d = subset_dimension(phi, subset)
        out = replace_subspace(pres, phi, subset)
        snf = smith_normal_form(exponent_matrix(out))
        assert snf.torsion == ()
        assert len(out.generators) - snf.rank == n - d


def nonzero_diagonal(rows):
    return tuple(d for d in smith_normal_form(rows).diagonal if d)


def test_replace_sparse_rebases_each_critical_set_on_its_lattice():
    rebased = 0
    for phi, pres in oracle_plane_cases(2718, 60):
        sparse_idx = maximal_sparse_subset(pres, phi)
        rest = tuple(i for i in range(len(pres.relations)) if i not in sparse_idx)
        result = replace_sparse(pres, phi, SparsityPartition(sparse_idx, rest, ()))
        out, images = result.presentation, result.phi.images
        new = out.generators[len(pres.generators):]
        added = out.relations[len(out.relations)
                              - sum(len(s) + 2 for s in result.collection):]
        position = 0
        for c, member in enumerate(result.collection):
            h1, h2, hstar = new[3 * c:3 * c + 3]
            rows = [list(phi.vector(g)) for g in pres.generators if g in member]
            assert nonzero_diagonal(rows) == \
                nonzero_diagonal(rows + [list(images[h1]), list(images[h2])])
            for g in pres.generators:
                if g not in member:
                    continue
                rel = added[position]
                position += 1
                assert rel[0] == (g, -1) and {h for h, _ in rel[1:]} <= {h1, h2}
                b = dict(rel[1:])
                assert phi.vector(g) == tuple(
                    b.get(h1, 0) * x + b.get(h2, 0) * y
                    for x, y in zip(images[h1], images[h2]))
            assert added[position:position + 2] == (
                ((hstar, -1), (h1, 1), (h2, 1)), ((hstar, -1), (h2, 1), (h1, 1)))
            position += 2
            rebased += 1
        assert position == len(added)
    assert rebased >= 20


def test_replace_subspace_kills_the_saturated_span():
    # The words enter with the subset's syllables deleted, which changes
    # their images by vectors of the subset lattice L.  So the words' images
    # together with L span what the words did with L: the span of L
    # intersected with Z^n, a lattice of rank d with all-ones Smith diagonal.
    rng = random.Random(1729)
    for _ in range(40):
        n = rng.randint(2, 5)
        pres = standard_zn(n, "intro3")
        phi = abelian_images(pres)
        subset = rng.sample(pres.generators, rng.randint(1, len(pres.generators)))
        d = subset_dimension(phi, subset)
        out = replace_subspace(pres, phi, subset)
        assert len(out.relations) == len(pres.relations) + d
        words = [[sum(e * phi.vector(g)[t] for g, e in rel) for t in range(n)]
                 for rel in out.relations[len(out.relations) - d:]]
        lattice = words + [list(phi.vector(g)) for g in subset]
        assert nonzero_diagonal(lattice) == (1,) * d
