"""Normal forms, extraction, abelianization, and the rewrites."""

import hashlib
import os
import random
import subprocess
import sys
import time
from math import comb, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bezout_oracle
import word_oracle
import zncomplex
from abelian_oracle import dense_abelian_rank, exponent_matrix
from lattice_oracle import is_parallel, smith_diagonal
from zncomplex import presentation
from zncomplex.construction import build_x, torus_block
from zncomplex.errors import NotFreeAbelianError, PipelineStageError, TooLongError
from zncomplex.presentation import (
    AbelianMap,
    Presentation,
    _coprime_dependency,
    abelian_images,
    deficiency_bounds,
    dumps_presentation,
    exponent_rows,
    extract_presentation,
    loads_presentation,
    maximal_sparse_subset,
    minimize,
    normalize,
    relations_on,
    replace1,
    replace2,
    replace_subspace,
    standard_zn,
    subset_dimension,
)
from zncomplex.intlinalg import (
    _eliminate_units,
    rank_of_rows,
    smith_normal_form,
)
from zncomplex.simplicial import from_maximal_faces


def test_normalize_examples():
    assert normalize([("g", 0), ("h", 1), ("i", 1)]).word == (("h", 1), ("i", 1))
    assert normalize([("g", 1), ("g", 2), ("h", 1)]).word == (("g", 3), ("h", 1))
    assert normalize([("g", 2), ("h", 3), ("g", -1)]).word == (("g", 1), ("h", 3))
    assert normalize([]).word == ()
    assert normalize([("g", 5)]).word == (("g", 5),)


def test_normalize_too_long():
    with pytest.raises(TooLongError):
        normalize([("g", 1), ("h", 1), ("g", -1), ("h", -1)])
    # 4 alternating syllables on 3 generators cannot shorten either
    with pytest.raises(TooLongError):
        normalize([("g", 1), ("a", 1), ("g", 1), ("b", 1)])


def test_normalize_collapse_to_empty():
    assert normalize([("g", 1), ("g", -1)]).word == ()
    assert normalize([("g", 1), ("h", 2), ("h", -2), ("g", -1)]).word == ()


words = st.lists(
    st.tuples(st.sampled_from("abc"), st.integers(-4, 4)), max_size=6)


@settings(max_examples=120, deadline=None)
@given(words)
def test_normalize_idempotent_and_exponent_preserving(syllables):
    def exponent_sums(ws):
        out = {}
        for g, e in ws:
            out[g] = out.get(g, 0) + e
        return {g: e for g, e in out.items() if e}

    try:
        nf = normalize(syllables)
    except TooLongError:
        return
    assert normalize(nf.word).word == nf.word
    assert exponent_sums(nf.word) == exponent_sums(syllables)


SHAPES = {
    "tuples": lambda syl: tuple(syl),
    "tuple of lists": lambda syl: tuple(list(s) for s in syl),
    "lists of lists": lambda syl: [list(s) for s in syl],
    "generator": lambda syl: (s for s in syl),
}


@st.composite
def shaped_words(draw):
    """0-6 syllables over four generators, in one of the SHAPES.

    Few names make repeated and adjacent generators common, exponents may
    be zero, and half the time the word closes on its first generator, so
    the rotation merges.
    """
    syllables = draw(st.lists(
        st.tuples(st.sampled_from("abcd"), st.integers(-3, 3)), max_size=6))
    if 0 < len(syllables) < 6 and draw(st.booleans()):
        syllables.append((syllables[0][0], draw(st.integers(-3, 3))))
    return syllables, draw(st.sampled_from(sorted(SHAPES)))


@settings(max_examples=300, deadline=None)
@given(shaped_words())
def test_normalize_equals_the_rule_by_rule_rewrite(shaped):
    syllables, shape = shaped
    try:
        expected = word_oracle.normal_form(syllables)
    except TooLongError as exc:
        with pytest.raises(TooLongError) as info:
            normalize(SHAPES[shape](syllables))
        assert info.value.witness == exc.witness
        return
    # A list syllable left in the word would compare unequal to a tuple.
    assert normalize(SHAPES[shape](syllables)).word == expected


def test_extract_hollow_triangle():
    pres = extract_presentation(from_maximal_faces([(0, 1), (1, 2), (0, 2)]), 0)
    assert len(pres.generators) == 1
    assert pres.relations == ()


def test_extract_solid_triangle():
    pres = extract_presentation(from_maximal_faces([(0, 1, 2)]), 0)
    assert len(pres.generators) == 1
    assert len(pres.relations) == 1
    ((g, e),) = pres.relations[0]
    assert e in (1, -1)


def test_extract_torus_block():
    complex_ = from_maximal_faces(torus_block(0, 1, 2, 3, 4, 5, 6))
    pres = extract_presentation(complex_, 0)
    assert len(pres.generators) == 21 - 7 + 1
    assert len(pres.relations) == 14
    for rel in pres.relations:
        assert 1 <= len(rel) <= 3
        assert all(e in (1, -1) for _, e in rel)
    assert abelian_images(pres).rank == 2


def test_extract_uses_component_of_basepoint():
    two_pieces = from_maximal_faces([(0, 1), (1, 2), (0, 2), (3, 4)])
    pres = extract_presentation(two_pieces, 0)
    assert len(pres.generators) == 1
    pres_b = extract_presentation(two_pieces, 3)
    assert len(pres_b.generators) == 0


def test_extract_from_an_isolated_basepoint():
    lonely = from_maximal_faces([(0, 1, 2), (3,)])
    assert extract_presentation(lonely, 3) == Presentation((), ())


# SHA-256 of dumps_presentation(extract_presentation(build_x(m), 0)).
EXTRACT_DUMP_SHA256 = {
    7: "bb00c5e76332bc17c113341435b7811c720674642291473ddea4eb792b8adfb1",
    10: "1a223ed8851c5988d46411d4c0184c8e362409a9d801f4bcfe1bcb1d55bff88b",
    12: "86b9c76d13d97a1715c3a65d6fde419b71a8ec2ce3d5111195a8f8dba51a5e36",
    28: "9e20e14c06b2976f937e2ee142b5f660aef871b881f280dd0748b12de9788a14",
}


@pytest.mark.parametrize("m", list(EXTRACT_DUMP_SHA256))
def test_extract_x_is_pinned(m):
    text = dumps_presentation(extract_presentation(build_x(m), 0))
    assert hashlib.sha256(text.encode()).hexdigest() == EXTRACT_DUMP_SHA256[m]


def test_abelian_images_standard():
    phi = abelian_images(standard_zn(3, "commutator"))
    assert phi.rank == 3
    assert rank_of_rows(list(phi.images.values())) == 3


def test_abelian_images_intro3_dependency():
    phi = abelian_images(standard_zn(2, "intro3"))
    g1, g2, h = phi.vector("g1"), phi.vector("g2"), phi.vector("h1_2")
    assert h == tuple(-a - b for a, b in zip(g1, g2))


def test_abelian_images_relations_vanish_and_span():
    for pres in (standard_zn(3, "intro3"), standard_zn(4, "commutator")):
        phi = abelian_images(pres)
        for rel in pres.relations:
            total = [0] * phi.rank
            for g, e in rel:
                total = [t + e * x for t, x in zip(total, phi.vector(g))]
            assert not any(total)
        # images span Z^rank: the row lattice saturates to the full space
        diagonal = smith_diagonal([list(v) for v in phi.images.values()])
        assert diagonal == (1,) * phi.rank


def test_abelian_images_torsion():
    with pytest.raises(NotFreeAbelianError) as info:
        abelian_images(Presentation(("g",), ((("g", 2),),)))
    assert info.value.witness == (2,)


def abelian_outcome(abelianize, pres):
    """("free", phi) or ("torsion", invariant factors) for one abelianization."""
    try:
        return "free", abelianize(pres)
    except NotFreeAbelianError as exc:
        return "torsion", exc.witness


def check_against_dense_oracle(pres):
    """abelian_images against the dense Smith-form oracle; returns the verdict.

    Both must agree on torsion or on the rank.  The images must kill every
    relation and generate Z^n (their Smith diagonal is all ones).  With the
    rank right, that makes their kernel exactly the relation lattice, so the
    images are the abelianization up to a unimodular change of basis.
    """
    kind, got = abelian_outcome(abelian_images, pres)
    oracle_kind, oracle = abelian_outcome(dense_abelian_rank, pres)
    assert kind == oracle_kind, pres
    if kind == "torsion":
        assert got == oracle, pres
        return kind
    assert got.rank == oracle, pres
    assert set(got.images) == set(pres.generators)
    for rel in pres.relations:
        total = [0] * got.rank
        for g, e in rel:
            total = [t + e * x for t, x in zip(total, got.vector(g))]
        assert not any(total), (pres, rel)
    diagonal = smith_diagonal([list(v) for v in got.images.values()])
    assert diagonal == (1,) * got.rank, pres
    return kind


@pytest.mark.parametrize("m", range(7, 13))
def test_abelian_images_matches_dense_oracle_on_extracted_complexes(m):
    pres = extract_presentation(build_x(m), 0)
    assert check_against_dense_oracle(pres) == "free"
    assert abelian_images(pres).rank == m


def test_abelian_images_pinned_on_extracted_x10():
    # Elimination leaves no relation column on extracted X_m, so the
    # survivors get unit images and the rest come from back-substitution;
    # the digest pins both.
    phi = abelian_images(extract_presentation(build_x(10), 0))
    digest = hashlib.sha256(repr(sorted(phi.images.items())).encode()).hexdigest()
    assert digest == (
        "046027df235da7954ef144d0a9451ff4abbc17cc74c7f82a6f1fbfaae67c3333")


def test_abelian_images_matches_dense_oracle_on_examples():
    g2h3 = Presentation(("g", "h"), ((("g", 2), ("h", 3)),))
    assert check_against_dense_oracle(g2h3) == "free"  # non-unit remainder
    assert abelian_images(g2h3).rank == 1
    both = Presentation(("g", "h"), ((("g", 2), ("h", 3)), (("g", 3), ("h", 2))))
    assert check_against_dense_oracle(both) == "torsion"
    with pytest.raises(NotFreeAbelianError) as info:
        abelian_images(both)
    assert info.value.witness == (5,)
    klein = Presentation(("a", "b"), ((("a", 1), ("b", 1), ("a", 1), ("b", -1)),))
    assert check_against_dense_oracle(klein) == "torsion"
    with pytest.raises(NotFreeAbelianError) as info:
        abelian_images(klein)
    assert info.value.witness == (2,)
    # units eliminated around a remainder, plus a generator in no relation
    mixed = Presentation(("a", "b", "c", "z"), (
        (("a", 1), ("b", 2)), (("b", 2), ("c", 3))))
    _, cols, units, _ = _eliminate_units(exponent_rows(mixed), 2)
    assert units == 1 and cols[1] == {1: 2, 2: 3}
    assert check_against_dense_oracle(mixed) == "free"
    assert abelian_images(mixed).rank == 2
    assert check_against_dense_oracle(Presentation((), ())) == "free"


def test_abelian_images_matches_dense_oracle_on_random_presentations():
    rng = random.Random(70707)
    seen = {("free", False): 0, ("free", True): 0, ("torsion", True): 0}
    for _ in range(300):
        k = rng.randint(1, 7)
        gens = tuple(f"g{i}" for i in range(k))
        relations = tuple(
            tuple((rng.choice(gens), rng.choice((-3, -2, -1, 1, 2, 3)))
                  for _ in range(rng.randint(1, 3)))
            for _ in range(rng.randint(0, k + 1)))
        pres = Presentation(gens, relations)
        _, cols, _, _ = _eliminate_units(exponent_rows(pres), len(relations))
        seen[check_against_dense_oracle(pres), any(cols)] += 1
    # 112 free without a remainder, 32 free with one, 156 with torsion
    assert seen[("free", True)] >= 20
    assert seen[("free", False)] >= 50
    assert seen[("torsion", True)] >= 50


def test_subset_dimension():
    phi = abelian_images(standard_zn(3, "intro3"))
    assert subset_dimension(phi, []) == 0
    assert subset_dimension(phi, ["g1", "g2"]) == 2
    assert subset_dimension(phi, ["g1", "g2", "h1_2"]) == 2
    assert subset_dimension(phi, ["g1", "g2", "g3"]) == 3
    with pytest.raises(ValueError):
        subset_dimension(phi, ["nope"])


def test_relations_on():
    pres = standard_zn(2, "intro3")
    assert relations_on(pres, range(2), pres.generators) == (0, 1)
    assert relations_on(pres, range(2), ["g1"]) == ()
    assert relations_on(pres, range(2), ["g1", "g2", "h1_2"]) == (0, 1)


def test_replace1_example():
    pres = Presentation(("g", "h"), ((("g", 1),), (("g", 1), ("h", 1))))
    phi = abelian_images(pres)
    out, out_phi = replace1(pres, phi, "g")
    assert out.generators == ("h",)
    assert out.relations == ((), (("h", 1),))
    assert out_phi.rank == phi.rank


def test_replace1_requires_zero_image():
    pres = standard_zn(2, "commutator")
    with pytest.raises(ValueError):
        replace1(pres, abelian_images(pres), "g1")


def test_replace2_example():
    pres = Presentation(("g", "h"), ((("g", 1), ("h", -1)),))
    phi = abelian_images(pres)
    out, out_phi = replace2(pres, phi, "g", "h", 1, -1)
    assert len(out.generators) == 1
    assert out_phi.rank == 1
    assert abelian_images(out).rank == 1


def test_replace2_rejects_non_coprime():
    pres = Presentation(("g", "h"), ((("g", 1), ("h", -1)),))
    phi = abelian_images(pres)
    with pytest.raises(ValueError):
        replace2(pres, phi, "g", "h", 2, -2)
    with pytest.raises(ValueError):
        replace2(pres, phi, "g", "h", 1, 1)  # dependency does not hold


def test_replace2_image_is_the_bezout_image():
    rng = random.Random(2_4001)
    for _ in range(300):
        n = rng.randint(1, 5)
        w = [0] * n
        while not any(w):
            w = [rng.randint(-3, 3) for _ in range(n)]
        lg, lh = (rng.choice((1, -1)) * rng.randint(1, 12) for _ in range(2))
        vg, vh = tuple(lg * x for x in w), tuple(lh * x for x in w)
        pres, phi = Presentation(("g", "h"), ()), AbelianMap(n, {"g": vg, "h": vh})
        a, b = _coprime_dependency(vg, vh)
        for a, b in ((a, b), (-a, -b)):
            out, out_phi = replace2(pres, phi, "g", "h", a, b)
            image = out_phi.images[out.generators[-1]]
            assert image == bezout_oracle.bezout_image(vg, vh, a, b)
            assert vg == tuple(b * x for x in image)
            assert vh == tuple(-a * x for x in image)


def free_part_signature(pres):
    """(free rank, nonunit invariant factors) of the relation matrix."""
    snf = smith_normal_form(exponent_matrix(pres))
    return (len(pres.generators) - snf.rank, snf.torsion)


def random_zn_presentation(rng, n):
    """A noisy presentation of Z^n with removable generators."""
    pres = standard_zn(n, "intro3")
    gens = list(pres.generators)
    rels = list(pres.relations)
    for extra in range(rng.randint(0, 2)):
        name = f"z{extra}"
        gens.append(name)
        style = rng.random()
        if style < 0.4:
            rels.append(((name, rng.choice((1, -1))),))  # zero generator
        else:
            anchor = rng.choice(pres.generators)
            k = rng.choice((-2, -1, 1, 2, 3))
            rels.append(((name, 1), (anchor, k)))  # collinear with anchor
    if rng.random() < 0.4:
        rels.append(rng.choice(rels[: 2 * comb(n, 2)]))
    rng.shuffle(rels)
    return Presentation(tuple(gens), tuple(rels))


def test_minimize_examples():
    intro = standard_zn(3, "intro3")
    out, phi = minimize(intro, abelian_images(intro))
    assert out == intro
    zero = Presentation(("g", "h"), ((("g", 1),),))
    out2, _ = minimize(zero, abelian_images(zero))
    assert out2.generators == ("h",)
    assert out2.relations == ()


def test_minimize_of_extracted_complex():
    pres = extract_presentation(build_x(7), 0)
    out, phi = minimize(pres, abelian_images(pres))
    assert phi.rank == 7
    for rel in out.relations:
        nf = normalize(rel)
        assert len(nf.word) == 3
        assert subset_dimension(phi, nf.support) == 2


def test_minimize_keys_each_plane_of_x28_by_one_pluecker_entry():
    # Every relation of the minimized X_28 spans a coordinate plane of Z^28,
    # so its key is one (i, j, x) triple, not a vector of length C(28, 2).
    pres = extract_presentation(build_x(28), 0)
    out, phi = minimize(pres, abelian_images(pres))
    assert phi.rank == 28 and out.relations
    for r in range(len(out.relations)):
        assert len(phi.plane(out.support(r))) == 1


def test_minimize_hands_its_planes_to_the_sparsity_stage(monkeypatch):
    keys = []

    def counted(rows):
        keys.append(rows)
        return original(rows)

    original = presentation.plane_key
    monkeypatch.setattr(presentation, "plane_key", counted)
    pres = extract_presentation(build_x(8), 0)
    out, phi = minimize(pres, abelian_images(pres))
    assert len(keys) == len({normalize(rel).support for rel in out.relations})
    maximal_sparse_subset(out, phi)
    assert len(keys) == len({normalize(rel).support for rel in out.relations})


def test_rewrites_preserve_group_signature():
    rng = random.Random(424242)
    for _ in range(60):
        n = rng.randint(2, 5)
        pres = random_zn_presentation(rng, n)
        signature = free_part_signature(pres)
        assert signature == (n, ())
        out, _ = minimize(pres, abelian_images(pres))
        assert free_part_signature(out) == signature


def strip_trivial_relations(pres):
    kept = tuple(rel for rel in pres.relations if normalize(rel).word)
    return Presentation(pres.generators, kept)


def stepwise_minimize(pres):
    """The one-pair-at-a-time elimination that minimize must reproduce."""
    phi = abelian_images(pres)
    pres = strip_trivial_relations(pres)
    while True:
        zero = next((g for g in pres.generators if not any(phi.vector(g))), None)
        if zero is not None:
            pres, phi = replace1(pres, phi, zero)
            pres = strip_trivial_relations(pres)
            continue
        pair = None
        for i, g in enumerate(pres.generators):
            for h in pres.generators[i + 1:]:
                if is_parallel(phi.vector(g), phi.vector(h)):
                    pair = (g, h)
                    break
            if pair:
                break
        if pair is None:
            break
        a, b = _coprime_dependency(phi.vector(pair[0]), phi.vector(pair[1]))
        pres, phi = replace2(pres, phi, pair[0], pair[1], a, b)
        pres = strip_trivial_relations(pres)
    for idx in range(len(pres.relations)):
        nf = normalize(pres.relations[idx])
        assert len(nf.word) == 3, (idx, nf.word)
        assert subset_dimension(phi, nf.support) == 2
    return pres, phi


def minimize_outcome(run):
    """(presentation, image items in order), or the type of the error raised."""
    try:
        out, phi = run()
    except (TooLongError, NotFreeAbelianError) as exc:
        return type(exc)
    return out, phi.rank, list(phi.images.items())


def random_fusion_case(rng):
    """A presentation with shuffled generators, t<k> names, zero images,
    chains of collinear generators, repeated, trivial and unreduced
    relations, and now and then torsion or a relation longer than three
    syllables."""
    n = rng.randint(1, 4)
    base = standard_zn(n, "intro3") if n > 1 else Presentation(("g1",), ())
    names = {g: g for g in base.generators}
    for g in rng.sample(base.generators, rng.randint(0, len(base.generators))):
        names[g] = f"t{rng.randint(0, 20)}"
    if len(set(names.values())) < len(names):
        names = {g: g for g in base.generators}
    gens = [names[g] for g in base.generators]
    rels = [tuple((names[g], e) for g, e in rel) for rel in base.relations]
    for extra in range(rng.randint(0, 8)):
        name = f"t{rng.randint(0, 20)}" if rng.random() < 0.5 else f"z{extra}"
        if name in gens:
            continue
        anchor = rng.choice(gens)
        style = rng.random()
        if style < 0.2:
            rels.append(((name, rng.choice((1, -1))),))  # zero image
        elif style < 0.25:
            rels.append(((name, 2),))  # torsion
        elif style < 0.35:
            a, b = rng.choice(((2, 3), (3, -2), (-3, 4)))
            rels.append(((name, a), (anchor, b)))  # collinear, maybe torsion
        else:
            k = rng.choice((-3, -2, -1, 1, 2, 3))
            rels.append(((name, 1), (anchor, k)))  # collinear with anchor
        gens.append(name)
    if rels and rng.random() < 0.3:
        rels.append(rng.choice(rels))
    if rng.random() < 0.2:
        g = rng.choice(gens)
        rels.append(((g, 1), (g, -1)))
    if rels and rng.random() < 0.4:
        i, g = rng.randrange(len(rels)), rng.choice(gens)
        at = rng.randint(0, len(rels[i]))
        rels[i] = rels[i][:at] + ((g, 1), (g, -1)) + rels[i][at:]  # unreduced
    if rng.random() < 0.05:
        g, h = rng.sample(gens, 2) if len(gens) > 1 else (gens[0], gens[0])
        rels.append(((g, 1), (h, 1), (g, -1), (h, -1)))
    rng.shuffle(gens)
    rng.shuffle(rels)
    return Presentation(tuple(gens), tuple(rels))


def test_minimize_matches_stepwise_on_extracted_complexes():
    for m in range(7, 11):
        pres = extract_presentation(build_x(m), 0)
        expected = minimize_outcome(lambda: stepwise_minimize(pres))
        assert minimize_outcome(
            lambda: minimize(pres, abelian_images(pres))) == expected


def test_minimize_matches_stepwise_on_random_presentations():
    rng = random.Random(4_0404)
    seen = {"fused": 0, "zero": 0, "t-name": 0, "zero name reused": 0,
            TooLongError: 0, NotFreeAbelianError: 0}
    for _ in range(400):
        pres = random_fusion_case(rng)
        expected = minimize_outcome(lambda: stepwise_minimize(pres))
        got = minimize_outcome(lambda: minimize(pres, abelian_images(pres)))
        assert got == expected, pres
        if isinstance(expected, type):
            seen[expected] += 1
            continue
        out = expected[0]
        images = abelian_images(pres).images
        zeros = {g for g in pres.generators if not any(images[g])}
        fused = set(out.generators) - set(pres.generators)
        seen["fused"] += bool(fused)
        seen["zero"] += bool(zeros)
        seen["t-name"] += bool(fused) and any(
            g.startswith("t") for g in pres.generators)
        seen["zero name reused"] += bool(zeros & set(out.generators))
    assert seen["fused"] >= 150 and seen["zero"] >= 50, seen
    assert seen["t-name"] >= 50 and seen["zero name reused"] >= 3, seen
    assert seen[TooLongError] >= 5 and seen[NotFreeAbelianError] >= 20, seen


def test_minimize_matches_stepwise_on_a_class_with_a_non_unit_survivor():
    # Four to six generators on the line of e_i + c*e_j, each image a
    # multiple of k*(e_i + c*e_j) with k >= 2, and no other generator on
    # that line: the survivor s has image scale(s)*d with |scale(s)| >= 2,
    # so each g of the class becomes s^(scale(g) // scale(s)) by a non-unit
    # divisor.  The 400 random_fusion_case inputs above build no such
    # class: each class of four or more holds a generator of scale +-1.
    rng = random.Random(2_4024)
    for _ in range(40):
        n = rng.randint(2, 4)
        base = standard_zn(n, "intro3")
        i, j = rng.sample(range(1, n + 1), 2)
        c, k = rng.choice((2, -2, 3)), rng.choice((2, 3))
        gens, rels = list(base.generators), list(base.relations)
        for m in range(rng.randint(4, 6)):
            name = f"t{rng.randint(0, 9)}" if rng.random() < 0.3 else f"z{m}"
            if name in gens:
                name = f"z{m}"
            scale = k * rng.choice((1, -1)) * rng.randint(1, 4)
            gens.append(name)
            rels.append(((name, 1), (f"g{i}", -scale), (f"g{j}", -c * scale)))
        rng.shuffle(gens)
        rng.shuffle(rels)
        pres = Presentation(tuple(gens), tuple(rels))
        expected = minimize_outcome(lambda: stepwise_minimize(pres))
        got = minimize_outcome(lambda: minimize(pres, abelian_images(pres)))
        assert got == expected, pres
        out, _, images = got
        survivors = [v for g, v in images if g not in base.generators]
        assert len(survivors) == 1 and len(out.generators) == len(base.generators) + 1
        assert gcd(*survivors[0]) >= k


def test_minimize_within_budget():
    pres = extract_presentation(build_x(12), 0)
    phi = abelian_images(pres)
    start = time.perf_counter()
    out, _ = minimize(pres, phi)
    elapsed = time.perf_counter() - start
    assert len(out.relations) > 0
    assert elapsed < 1.5, f"minimize(P_12) took {elapsed:.2f} s"


def test_minimize_checks_its_result_explicitly():
    line = Presentation(("a", "b"), ((("a", 1), ("b", 1)),))
    three = Presentation(("a", "b", "c"), ((("a", 1), ("b", 1), ("c", 1)),))
    space = AbelianMap(3, {"a": (1, 0, 0), "b": (0, 1, 0), "c": (0, 0, 1)})
    for pres, problem in ((line, "has 2 syllables, not three"),
                          (three, "spans dimension 3, not two")):
        phi = AbelianMap(3, {g: space.images[g] for g in pres.generators})
        with pytest.raises(PipelineStageError) as info:
            minimize(pres, phi)
        assert info.value.stage == "minimize" and info.value.witness == 0
        assert str(info.value) == f"stage minimize: relation 0 {problem}"
    with pytest.raises(ValueError):
        minimize(line, space)
    # The check is not an assert, so it also runs under python -O.
    script = ("from zncomplex.presentation import AbelianMap, Presentation, minimize\n"
              "pres = Presentation(('a', 'b'), ((('a', 1), ('b', 1)),))\n"
              "minimize(pres, AbelianMap(2, {'a': (1, 0), 'b': (0, 1)}))\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(
        zncomplex.__file__)))
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 1 and "PipelineStageError" in done.stderr


def test_replace_subspace_rejects_images_that_do_not_generate():
    # The images 2 and 4 span 2Z, so the basis vector 1 of Z^1 is reached
    # by no word in the generators.
    pres = Presentation(("a", "b"), ())
    phi = AbelianMap(1, {"a": (2,), "b": (4,)})
    with pytest.raises(PipelineStageError) as info:
        replace_subspace(pres, phi, ["a"])
    assert info.value.stage == "replace-subspace" and info.value.witness == 0
    # The check is not an assert, so it also runs under python -O.
    script = ("from zncomplex.presentation import AbelianMap, Presentation, "
              "replace_subspace\n"
              "replace_subspace(Presentation(('a', 'b'), ()),\n"
              "                 AbelianMap(1, {'a': (2,), 'b': (4,)}), ['a'])\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(
        zncomplex.__file__)))
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 1 and "PipelineStageError" in done.stderr


def test_standard_zn_shapes():
    com = standard_zn(1, "commutator")
    assert com.generators == ("g1",) and com.relations == ()
    intro = standard_zn(2, "intro3")
    assert len(intro.generators) == 3 and len(intro.relations) == 2
    intro3 = standard_zn(3, "intro3")
    presentation.relation_supports(intro3)
    assert intro3._supports == {i: normalize(rel).support
                                for i, rel in enumerate(intro3.relations)}
    with pytest.raises(ValueError):
        standard_zn(2, "weird")


def test_deficiency_bounds():
    for n in range(1, 7):
        com = standard_zn(n, "commutator")
        report = deficiency_bounds(com, n)
        assert report
        # equality in all three bounds
        assert len(com.generators) == n
        assert len(com.relations) == comb(n, 2)
        intro = standard_zn(n, "intro3")
        assert deficiency_bounds(intro, n)
    thin = Presentation(("g",), ())
    assert not deficiency_bounds(thin, 2)


def test_minimize_strips_trivial_relations():
    intro = standard_zn(2, "intro3")
    pres = Presentation(intro.generators, ((), (("g1", 1), ("g1", -1)))
                        + intro.relations + ((("g2", 2), ("g2", -2)),))
    out, _ = minimize(pres, abelian_images(pres))
    assert out.relations == intro.relations


def test_json_round_trip():
    pres = standard_zn(3, "intro3")
    text = dumps_presentation(pres)
    again = loads_presentation(text)
    assert again.relations == pres.relations
    assert sorted(again.generators) == list(again.generators)


def test_presentation_validation():
    with pytest.raises(ValueError):
        Presentation(("g",), ((("h", 1),),))
    with pytest.raises(ValueError):
        Presentation(("g",), ((("g", 0),),))
    with pytest.raises(ValueError):
        Presentation(("g", "g"), ())
