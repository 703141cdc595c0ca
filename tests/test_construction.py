"""Block complexes, spur partitions, and the collapsed complexes."""

import random
import time
import tracemalloc
from collections import Counter
from itertools import combinations
from math import comb

import pytest

from euler_oracle import euler_characteristic
from spur_oracle import are_compatible
from zncomplex.construction import (
    build_spurs,
    build_w,
    build_x,
    build_x_trace,
    dumps_labeling,
    torus_block,
)
from zncomplex import simplicial
from zncomplex.errors import SpurError, UnsupportedSizeError
from zncomplex.factorization import orthogonal_pair
from zncomplex.simplicial import (
    Homology,
    SimplicialComplex,
    collapse_spur,
    collapse_spurs,
    compatible_spurs,
    from_maximal_faces,
    homology_through,
    is_spur,
    validate,
)


def vertex_link(complex_, v):
    """Edges {a, b} such that {v, a, b} is a triangle."""
    return [tuple(x for x in f if x != v)
            for f in complex_.faces_of_dim(2) if v in f]


def is_single_cycle(edges):
    degree = Counter(v for e in edges for v in e)
    if any(d != 2 for d in degree.values()):
        return False
    # connectivity: walk from any vertex
    adjacency = {}
    for a, b in edges:
        adjacency.setdefault(a, set()).add(b)
        adjacency.setdefault(b, set()).add(a)
    start = next(iter(adjacency))
    seen = {start}
    stack = [start]
    while stack:
        for w in adjacency[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == set(adjacency)


def test_torus_block_counts():
    triangles = torus_block(0, 1, 2, 3, 4, 5, 6)
    assert len(triangles) == 14
    assert len(set(triangles)) == 14
    edges = {tuple(sorted((t[i], t[j]))) for t in triangles
             for i in range(3) for j in range(i + 1, 3)}
    assert len(edges) == 21
    incidence = Counter(v for t in triangles for v in t)
    assert all(incidence[v] == 6 for v in range(7))


def test_torus_block_is_a_torus():
    complex_ = from_maximal_faces(torus_block(0, 1, 2, 3, 4, 5, 6))
    assert euler_characteristic(complex_) == 0
    assert homology_through(complex_, 2) == [
        Homology(1), Homology(2), Homology(1)]
    for v in range(7):
        link = vertex_link(complex_, v)
        assert len(link) == 6
        assert is_single_cycle(link)


def test_sorted_block_patterns_cover_every_pair():
    patterns = torus_block(*range(7))
    assert all(list(t) == sorted(t) for t in patterns)
    assert ({pair for t in patterns for pair in combinations(t, 2)}
            == set(combinations(range(7), 2)))


def w_by_closure(n):
    """W_n as the closure of its rim edges and every block's triangles."""
    v = {}
    next_id = 1
    for i in range(1, n + 1):
        for k in (1, 2):
            v[(i, k)] = next_id
            next_id += 1
    w = {}
    for i, j in combinations(range(1, n + 1), 2):
        for k in (1, 2):
            w[(i, j, k)] = next_id
            next_id += 1
    maximal = []
    for i in range(1, n + 1):
        maximal.extend(((0, v[(i, 1)]), tuple(sorted((v[(i, 1)], v[(i, 2)]))),
                        (0, v[(i, 2)])))
    for i, j in combinations(range(1, n + 1), 2):
        maximal.extend(torus_block(0, v[(i, 1)], v[(i, 2)], v[(j, 1)],
                                   v[(j, 2)], w[(i, j, 1)], w[(i, j, 2)]))
    return from_maximal_faces(maximal, vertex_count=next_id), v, w


def test_w_faces_in_closed_form_match_the_closure():
    for n in [*range(1, 31), 48]:
        complex_, labeling = build_w(n)
        expected, v, w = w_by_closure(n)
        assert complex_.faces == expected.faces, n
        assert complex_.vertex_count == expected.vertex_count, n
        assert (labeling.n, labeling.u, labeling.v, labeling.w) == (n, 0, v, w)


def test_torus_block_rejects_duplicate_labels():
    with pytest.raises(ValueError):
        torus_block(0, 1, 2, 3, 4, 5, 5)


@pytest.mark.parametrize("n", range(1, 9))
def test_w_census(n):
    complex_, labeling = build_w(n)
    counts = complex_.face_counts() + [0, 0, 0]
    assert counts[0] == n * n + n + 1
    assert counts[1] == 3 * n + 15 * comb(n, 2)
    assert counts[2] == 14 * comb(n, 2)
    assert euler_characteristic(complex_) == 1 - n + comb(n, 2)
    assert validate(complex_)
    assert labeling.u == 0
    assert len(labeling.v) == 2 * n and len(labeling.w) == 2 * comb(n, 2)


def test_w1_is_a_circle():
    complex_, _ = build_w(1)
    assert complex_.face_counts() == [3, 3]
    assert homology_through(complex_, 2) == [Homology(1), Homology(1), Homology(0)]


def test_w_homology_small():
    for n in (2, 3):
        complex_, _ = build_w(n)
        hs = homology_through(complex_, 2)
        assert hs[0] == Homology(1)
        assert hs[1] == Homology(n)
        assert hs[2] == Homology(comb(n, 2))


def test_w20_homology_within_budget():
    complex_, _ = build_w(20)
    start = time.perf_counter()
    hs = homology_through(complex_, 2)
    elapsed = time.perf_counter() - start
    assert hs == [Homology(1), Homology(20), Homology(190)]
    assert elapsed < 5.0, f"homology_through(W_20) took {elapsed:.2f} s"


def test_w_neighbor_containment():
    # Every two-index vertex sees only the hub, its own rim vertices, and
    # its partner: the basis of the spur construction.
    n = 4
    complex_, labeling = build_w(n)
    for (i, j, k), wid in labeling.w.items():
        allowed = {labeling.u}
        for kk in (1, 2):
            allowed.update((labeling.v[(i, kk)], labeling.v[(j, kk)],
                            labeling.w[(i, j, kk)]))
        assert complex_.neighbors(wid) <= allowed


def test_labeling_text():
    _, labeling = build_w(2)
    text = dumps_labeling(labeling)
    assert text.splitlines()[0] == "u 0"
    assert f"w_1_2_2 {labeling.w[(1, 2, 2)]}" in text


@pytest.mark.parametrize("parity,w_count", [("even", 56), ("odd", 42)])
def test_build_spurs_partition(parity, w_count):
    n = 4
    m = 2 * n if parity == "even" else 2 * n - 1
    complex_, labeling = build_w(m)
    pair = orthogonal_pair(2 * n)
    spurs = build_spurs(pair, labeling)
    assert len(spurs) == 4 * n - 2
    members = [v for s in spurs for v in s]
    assert len(members) == w_count
    assert set(members) == set(labeling.w.values())
    for s in spurs:
        assert is_spur(complex_, labeling.u, s)
    for i in range(len(spurs)):
        for j in range(i + 1, len(spurs)):
            assert are_compatible(complex_, labeling.u, spurs[i], spurs[j])


@pytest.mark.parametrize("m", [7, 8, 12, 16])
def test_compatible_spurs_matches_pairwise_oracle(m):
    trace = build_x_trace(m)
    complex_, u = trace.start, trace.labeling.u
    spurs = trace.spurs
    assert compatible_spurs(complex_, spurs)
    assert all(are_compatible(complex_, u, a, b)
               for a, b in combinations(spurs, 2))
    # Small spurs among the paired vertices of the blocks on indices 1..5.
    # Odd trials draw them freely, so they overlap.  Even trials draw each
    # spur with its twin (w(i, j, 1) <-> w(i, j, 2)) and without overlap;
    # a spur of two or more members and its twin are joined by that many
    # edges.
    rng = random.Random(m)
    w = trace.labeling.w
    pairs = list(combinations(range(1, 6), 2))
    twin = {w[i, j, k]: w[i, j, 3 - k] for i, j in pairs for k in (1, 2)}
    outcomes = Counter()
    for trial in range(60):
        collection = []
        while len(collection) < 6:
            free = [v for v in twin if trial % 2 or
                    not any(v in spur for spur in collection)]
            members = set(rng.sample(free, rng.randint(1, 3)))
            drawn = [members] if trial % 2 else [members, {twin[v] for v in members}]
            if all(is_spur(complex_, u, spur) for spur in drawn):
                collection.extend(drawn)
        first = next((pair for pair in combinations(range(len(collection)), 2)
                      if not are_compatible(complex_, u, collection[pair[0]],
                                            collection[pair[1]])), None)
        report = compatible_spurs(complex_, collection)
        assert report.ok == (first is None)
        assert report.witness == first
        if report:
            outcomes["ok"] += 1
        else:
            outcomes["share" if "share" in report.violations[0] else "joined"] += 1
    assert set(outcomes) == {"ok", "share", "joined"}, outcomes


def test_build_spurs_size_mismatch():
    _, labeling = build_w(8)
    pair = orthogonal_pair(10)
    with pytest.raises(ValueError):
        build_spurs(pair, labeling)


def test_spurs_survive_collapse():
    # After one collapse the remaining (relabeled) sets are still spurs and
    # still pairwise compatible.
    n = 4
    complex_, labeling = build_w(2 * n)
    pair = orthogonal_pair(2 * n)
    spurs = build_spurs(pair, labeling)
    current, mapping = collapse_spur(complex_, labeling.u, spurs[0])
    remaining = [{mapping[v] for v in s} for s in spurs[1:]]
    base = mapping[labeling.u]
    for members in remaining:
        assert is_spur(current, base, members)
    for i in range(len(remaining)):
        for j in range(i + 1, len(remaining)):
            assert are_compatible(current, base, remaining[i], remaining[j])


@pytest.mark.parametrize("m,expected", [
    (1, 5), (2, 7), (7, 29), (8, 31), (9, 37), (10, 39), (11, 45), (12, 47)])
def test_x_vertex_counts(m, expected):
    assert build_x(m).vertex_count == expected


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_x_excluded_sizes(m):
    with pytest.raises(UnsupportedSizeError):
        build_x(m)


@pytest.mark.parametrize("m", [1, 2, 7, 8])
def test_x_homology_matches_w(m):
    x = build_x(m)
    w, _ = build_w(m)
    hx = homology_through(x, 2)
    assert hx == homology_through(w, 2)
    assert hx[1] == Homology(m)
    assert hx[2] == Homology(comb(m, 2))


def test_collapse_order_independence():
    # Any collapse order gives the same vertex count and homology.
    trace = build_x_trace(8)
    reference = homology_through(trace.result, 2)
    rng = random.Random(2)
    for _ in range(3):
        order = list(range(len(trace.spurs)))
        rng.shuffle(order)
        current = trace.start
        base = trace.labeling.u
        pending = [set(trace.spurs[i]) for i in order]
        for idx, members in enumerate(pending):
            current, step = collapse_spur(current, base, members)
            base = step[base]
            for later in pending[idx + 1:]:
                relabeled = {step[v] for v in later}
                later.clear()
                later.update(relabeled)
        assert current.vertex_count == trace.result.vertex_count
        assert homology_through(current, 2) == reference


def test_trace_vertex_map_covers_originals():
    trace = build_x_trace(7)
    assert set(trace.vertex_map) == set(range(trace.start.vertex_count))
    assert set(trace.vertex_map.values()) <= set(range(trace.result.vertex_count))
    # every spur lands on a single final vertex
    for spur in trace.spurs:
        images = {trace.vertex_map[v] for v in spur}
        assert len(images) <= 1


@pytest.mark.parametrize("m, expected", [(27, 109), (28, 111)])
def test_x_large_sizes(m, expected):
    complex_ = build_x(m)
    assert complex_.vertex_count == expected
    assert validate(complex_)


def collapse_spur_oracle(complex_, u, members):
    """One spur collapse by a whole face rebuild and compaction."""
    members = sorted(set(members))
    report = is_spur(complex_, u, members)
    if not report:
        raise SpurError(report)
    if not members:
        w = complex_.vertex_count
        faces = set(complex_.faces)
        faces.add((w,))
        faces.add(tuple(sorted((u, w))))
        out = SimplicialComplex(frozenset(faces), complex_.vertex_count + 1)
        return out, {v: v for v in range(complex_.vertex_count)}
    target = members[0]
    fold = {v: target for v in members}
    survivors = sorted(set(range(complex_.vertex_count)) - set(members[1:]))
    compact = {v: i for i, v in enumerate(survivors)}
    mapping = {v: compact[fold.get(v, v)] for v in range(complex_.vertex_count)}
    faces = frozenset(tuple(sorted({mapping[v] for v in f}))
                      for f in complex_.faces)
    return SimplicialComplex(faces, len(survivors)), mapping


def collapse_one_at_a_time(complex_, u, spurs):
    """Chain the oracle over the spurs, relabeling the pending ones."""
    current = complex_
    total = {v: v for v in range(complex_.vertex_count)}
    pending = [set(s) for s in spurs]
    base = u
    for idx, members in enumerate(pending):
        current, step = collapse_spur_oracle(current, base, members)
        base = step[base]
        for later in pending[idx + 1:]:
            remapped = {step[v] for v in later}
            later.clear()
            later.update(remapped)
        total = {v: step[img] for v, img in total.items()}
    return current, total


@pytest.mark.parametrize("m", [m for m in range(1, 29) if m not in (3, 4, 5, 6)])
def test_one_pass_collapse_matches_one_at_a_time(m):
    trace = build_x_trace(m)
    expected, expected_map = collapse_one_at_a_time(
        trace.start, trace.labeling.u, trace.spurs)
    assert trace.result.faces == expected.faces
    assert trace.result.vertex_count == expected.vertex_count
    assert trace.vertex_map == expected_map


def test_one_pass_collapse_in_shuffled_order_matches_one_at_a_time():
    trace = build_x_trace(9)
    rng = random.Random(5)
    for _ in range(3):
        spurs = list(trace.spurs)
        rng.shuffle(spurs)
        assert (collapse_spurs(trace.start, trace.labeling.u, spurs)
                == collapse_one_at_a_time(trace.start, trace.labeling.u, spurs))


def test_build_x48_within_budget():
    start = time.perf_counter()
    complex_ = build_x(48)
    elapsed = time.perf_counter() - start
    assert complex_.vertex_count == 8 * 24 - 1
    assert elapsed < 3.0, f"build_x(48) took {elapsed:.2f} s"


def test_build_x_peak_stays_near_the_size_of_its_result():
    # The traced peak during build_x(28) over the traced size of the complex
    # it returns is 1.87 when every face set is built once, at its final
    # size, and the quotient's neighbor map is dropped before X's faces are
    # built.  Copying W's cached adjacency (2.32), building X's faces in a
    # set first (2.19) or keeping the neighbor map alive (2.41) each exceed
    # the bound, and all of them together read 3.16.
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        complex_ = build_x(28)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert complex_.vertex_count == 8 * 14 - 1
    ratio = (peak - before) / (held - before)
    assert ratio < 2.1, f"peak {peak - before} B for a result of {held - before} B"


def test_spurs_that_pass_skip_the_pairwise_scan(monkeypatch):
    complex_, labeling = build_w(28)
    spurs = build_spurs(orthogonal_pair(28), labeling)

    def pairwise_scan(*args):
        raise AssertionError("the pairwise spur scan ran")

    monkeypatch.setattr(simplicial, "combinations", pairwise_scan)
    assert all(is_spur(complex_, labeling.u, spur) for spur in spurs)
    assert build_x(28).vertex_count == 8 * 14 - 1
