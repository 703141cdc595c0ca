"""Complex validation, the text format, homology, and spur collapses."""

import gc
import random
import time
import weakref
from collections import Counter
from itertools import combinations

import pytest

from euler_oracle import euler_characteristic
from lattice_oracle import brute_rank, smith_diagonal
from spur_oracle import are_compatible
from validity_oracle import scan_violations
from zncomplex import intlinalg, simplicial
from zncomplex.cli import main
from zncomplex.errors import InvalidComplexError, ScxFormatError, SpurError
from zncomplex.intlinalg import SnfResult, sparse_snf
from zncomplex.report import Report
from zncomplex.construction import build_w, build_x
from zncomplex.simplicial import (
    MAX_FACE_VERTICES,
    MAX_SCX_CLOSURE,
    Homology,
    SimplicialComplex,
    _boundary_rows,
    _reduce_boundary,
    boundary_matrix,
    closure_of,
    compatible_spurs,
    collapse_spur,
    collapse_spurs,
    dumps_scx,
    from_maximal_faces,
    homology,
    homology_through,
    is_spur,
    loads_scx,
    maximal_faces,
    validate,
)


def circle(n):
    return from_maximal_faces([(i, (i + 1) % n) for i in range(n)])


def test_validate_empty_complex():
    assert validate(SimplicialComplex(frozenset(), 0))


def test_validate_missing_subset():
    broken = SimplicialComplex(
        frozenset({(0, 1, 2), (0, 2), (1, 2), (0,), (1,), (2,)}), 3)
    report = validate(broken)
    assert not report
    assert any("missing subset (0, 1)" in v for v in report.violations)


def test_validate_vertex_coverage_and_labels():
    report = validate(SimplicialComplex(frozenset({(0,)}), 2))
    assert any("vertex 1" in v for v in report.violations)
    report = validate(SimplicialComplex(frozenset({(1, 0)}), 2))
    assert any("not strictly increasing" in v for v in report.violations)


def test_validate_golden_violations():
    # Pinned before validate stopped sorting every face: the violations of a
    # complex that breaks each rule, in several dimensions, in face order.
    faces = frozenset([
        (), (2, 1), (0,), (1,), (2,), (3,), (-1,), (0, 7), (7,),
        (0, 1), (0, 2), (0, 1, 2), (1, 3), (0, 1, 2, 3), (0, 3), (1, 2, 3),
        (5, 6), (5,), (0, 1, 3),
    ])
    report = validate(SimplicialComplex(faces, 6))
    assert not report
    assert list(report.violations) == [
        "empty face stored",
        "face (-1,) uses a vertex outside 0..5",
        "missing subset (1, 2) of face (0, 1, 2)",
        "missing subset (0, 2, 3) of face (0, 1, 2, 3)",
        "face (0, 7) uses a vertex outside 0..5",
        "missing subset (1, 2) of face (1, 2, 3)",
        "missing subset (2, 3) of face (1, 2, 3)",
        "face (2, 1) is not strictly increasing",
        "face (5, 6) uses a vertex outside 0..5",
        "missing subset (6,) of face (5, 6)",
        "face (7,) uses a vertex outside 0..5",
        "vertex 4 appears in no face",
    ]


def test_face_index():
    complex_ = from_maximal_faces([(1, 2, 3), (0, 3), (0, 4)])
    assert complex_.faces_of_dim(0) == ((0,), (1,), (2,), (3,), (4,))
    assert complex_.faces_of_dim(1) == ((0, 3), (0, 4), (1, 2), (1, 3), (2, 3))
    assert complex_.faces_of_dim(2) == ((1, 2, 3),)
    assert complex_.faces_of_dim(3) == complex_.faces_of_dim(-1) == ()
    assert complex_.dim == 2
    assert complex_.face_counts() == [5, 5, 1]
    empty = SimplicialComplex(frozenset(), 0)
    assert (empty.dim, empty.face_counts(), empty.faces_of_dim(0)) == (-1, [], ())


def test_closure_constructor():
    complex_ = from_maximal_faces([(0, 1, 2)])
    assert validate(complex_)
    assert len(complex_.faces) == 7


def test_closure_of_matches_a_subset_oracle():
    rng = random.Random(29)
    fixed = [[(3, 1, 3), (), [5], (4, 2, 0, 1, 6)], [], [()]]
    randoms = [[[rng.randrange(7) for _ in range(rng.randint(0, 5))]
                for _ in range(rng.randint(1, 6))] for _ in range(200)]
    for faces in fixed + randoms:
        expected = set()
        for face in faces:
            vs = sorted(set(face))
            for mask in range(1, 1 << len(vs)):
                expected.add(tuple(v for b, v in enumerate(vs) if mask >> b & 1))
        closure = closure_of(iter(faces))
        assert type(closure) is frozenset
        assert closure == expected, faces


def random_complex(rng):
    n = rng.randint(1, 7)
    faces = [tuple(sorted(rng.sample(range(n), rng.randint(1, min(3, n)))))
             for _ in range(rng.randint(1, 9))]
    used = sorted({v for f in faces for v in f})
    relabel = {v: i for i, v in enumerate(used)}
    return from_maximal_faces(
        [tuple(relabel[v] for v in f) for f in faces], vertex_count=len(used))


def test_random_closures_validate():
    rng = random.Random(5)
    for _ in range(30):
        complex_ = random_complex(rng)
        assert validate(complex_), validate(complex_).violations


def test_euler_characteristic():
    point = from_maximal_faces([(0,)])
    assert euler_characteristic(point) == 1
    assert euler_characteristic(circle(3)) == 0
    sphere = from_maximal_faces(
        [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
    assert euler_characteristic(sphere) == 2


def test_homology_circle():
    assert homology(circle(3), 1) == Homology(1)
    assert homology(circle(3), 0) == Homology(1)
    assert homology(circle(3), 2) == Homology(0)


def test_homology_sphere_and_disk():
    sphere = from_maximal_faces(
        [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
    assert homology_through(sphere, 2) == [Homology(1), Homology(0), Homology(1)]
    disk = from_maximal_faces([(0, 1, 2)])
    assert homology_through(disk, 2) == [Homology(1), Homology(0), Homology(0)]


def test_homology_projective_plane_torsion():
    # Minimal 6-vertex triangulation of the real projective plane
    # (antipodal quotient of the icosahedron): 10 triangles on K_6.
    faces = [(0, 1, 3), (0, 1, 4), (0, 2, 3), (0, 2, 5), (0, 4, 5),
             (1, 2, 4), (1, 2, 5), (1, 3, 5), (2, 3, 4), (3, 4, 5)]
    rp2 = from_maximal_faces(faces)
    assert euler_characteristic(rp2) == 1
    assert homology(rp2, 1) == Homology(0, (2,))
    assert homology(rp2, 2) == Homology(0)


def test_homology_klein_bottle_torsion():
    # 3 x 3 grid on Z_3 x Z_3, glued straight along one side and with a flip
    # (y -> -y) along the other.
    def label(x, y):
        if x == 3:
            x, y = 0, -y
        return 3 * (x % 3) + y % 3

    faces = []
    for x in range(3):
        for y in range(3):
            a, b = label(x, y), label(x + 1, y)
            c, d = label(x, y + 1), label(x + 1, y + 1)
            faces += [(a, b, d), (a, c, d)]
    klein = from_maximal_faces(faces)
    assert euler_characteristic(klein) == 0
    assert homology_through(klein, 2) == [
        Homology(1), Homology(1, (2,)), Homology(0)]


def rp2_complex():
    # Minimal 6-vertex triangulation of the real projective plane.
    return from_maximal_faces(
        [(0, 1, 3), (0, 1, 4), (0, 2, 3), (0, 2, 5), (0, 4, 5),
         (1, 2, 4), (1, 2, 5), (1, 3, 5), (2, 3, 4), (3, 4, 5)])


def test_homology_through_keeps_the_torsion_of_d2():
    assert homology_through(rp2_complex(), 2) == [
        Homology(1), Homology(0, (2,)), Homology(0)]
    assert _reduce_boundary(rp2_complex(), 2) == SnfResult(
        (1,) * 9 + (2,), 10)


def random_graph(rng):
    """A graph on 0..n-1 as a complex: isolated vertices, often disconnected."""
    n = rng.randint(0, 12)
    p = rng.choice((0.0, 0.1, 0.25, 0.5, 0.9))
    edges = [e for e in combinations(range(n), 2) if rng.random() < p]
    return from_maximal_faces([(v,) for v in range(n)] + edges, vertex_count=n)


def test_d1_spanning_forest_matches_sparse_snf():
    rng = random.Random(21091)
    complexes = [SimplicialComplex(frozenset(), 0),
                 from_maximal_faces([(0,), (1,), (2,)]), rp2_complex()]
    complexes += [random_graph(rng) for _ in range(300)]
    complexes += [random_complex(rng) for _ in range(100)]
    shapes = set()
    for complex_ in complexes:
        expected = sparse_snf(*_boundary_rows(complex_, 1))
        assert _reduce_boundary(complex_, 1) == expected
        vertices = complex_.face_counts()[0] if complex_.faces else 0
        shapes.add((expected.rank == 0, expected.rank < vertices - 1))
    # No edges, connected graphs and disconnected graphs with edges all occur.
    assert {(True, True), (False, False), (False, True)} <= shapes


def reference_homology(complex_, k):
    """H_k from the rank of d_k and the textbook Smith diagonal of d_k+1."""
    n_k = len(complex_.faces_of_dim(k))
    rank_k = brute_rank(boundary_matrix(complex_, k)) if k else 0
    up = smith_diagonal(boundary_matrix(complex_, k + 1))
    rank_up = sum(1 for d in up if d)
    return Homology(n_k - rank_k - rank_up, tuple(d for d in up if d > 1))


def test_homology_euler_consistency_random():
    rng = random.Random(11)
    for _ in range(20):
        complex_ = random_complex(rng)
        hs = homology_through(complex_, complex_.dim)
        alt = sum((-1) ** k * h.betti for k, h in enumerate(hs))
        assert alt == euler_characteristic(complex_)
        assert hs == [reference_homology(complex_, k)
                      for k in range(complex_.dim + 1)]
        assert hs == [homology(complex_, k) for k in range(complex_.dim + 1)]


def test_homology_above_the_dimension_is_zero_and_instant(tmp_path, capsys):
    rp2 = rp2_complex()
    start = time.perf_counter()
    for k in (3, 4, 10 ** 9):
        assert homology(rp2, k) == Homology(0)
    path = tmp_path / "rp2.scx"
    path.write_text(dumps_scx(rp2))
    assert main(["homology", str(path), "--dim", str(10 ** 9)]) == 0
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().out == f"H_{10 ** 9} = Z^0\n"
    empty = SimplicialComplex(frozenset(), 0)
    assert [homology(empty, k) for k in (0, 1, 10 ** 9)] == [Homology(0)] * 3
    with pytest.raises(ValueError, match="non-negative"):
        homology(rp2, -1)


def test_homology_of_an_invalid_complex_raises():
    broken = SimplicialComplex(frozenset({(0,), (0, 1)}), 2)  # (1,) missing
    for k in (0, 1, 2, 10 ** 9):
        with pytest.raises(InvalidComplexError):
            homology(broken, k)


def test_scx_round_trip():
    complex_ = from_maximal_faces([(0, 1, 2), (2, 3), (3,)], vertex_count=4)
    text = dumps_scx(complex_)
    assert text.startswith("scx 1\nv 4\n")
    again = loads_scx(text)
    assert again == complex_
    assert dumps_scx(again) == text  # bit-exact


def test_scx_rejects_garbage():
    with pytest.raises(ScxFormatError):
        loads_scx("hello\n")
    with pytest.raises(ScxFormatError):
        loads_scx("scx 1\nv x\n")
    with pytest.raises(ScxFormatError):
        loads_scx("scx 1\nv 3\n2 1\n")
    with pytest.raises(ScxFormatError, match="negative vertex count"):
        loads_scx("scx 1\nv -3\n0 1 2\n")


def test_cli_negative_vertex_count_exits_2(tmp_path, capsys):
    path = tmp_path / "negative.scx"
    path.write_text("scx 1\nv -3\n0 1 2\n")
    assert main(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: negative vertex count: 'v -3'\n"


def test_maximal_faces():
    complex_ = from_maximal_faces([(0, 1, 2), (2, 3)])
    assert maximal_faces(complex_) == [(0, 1, 2), (2, 3)]


def maximal_faces_oracle(complex_):
    """Each face tested against every maximal face kept so far."""
    by_size = sorted(complex_.faces, key=len, reverse=True)
    maximal = []
    seen = set()
    for f in by_size:
        fs = set(f)
        if any(fs < set(g) for g in maximal if len(g) > len(f)):
            continue
        if f not in seen:
            maximal.append(f)
            seen.add(f)
    return sorted(maximal)


def test_maximal_faces_matches_oracle_on_random_face_sets():
    rng = random.Random(90909)
    closed = 0
    for _ in range(300):
        vertex_count = rng.randint(1, 8)
        faces = {tuple(sorted(rng.sample(range(vertex_count),
                                         rng.randint(1, min(4, vertex_count)))))
                 for _ in range(rng.randint(0, 12))}
        if rng.random() < 0.5:
            complex_ = from_maximal_faces(faces, vertex_count)
            closed += 1
        else:  # not downward-closed: only the drawn faces are stored
            complex_ = SimplicialComplex(frozenset(faces), vertex_count)
        assert maximal_faces(complex_) == maximal_faces_oracle(complex_)
    assert 0 < closed < 300


def test_is_spur_singleton():
    complex_ = from_maximal_faces([(0, 1), (0, 2), (1, 2)])
    assert is_spur(complex_, 0, {1})
    assert is_spur(complex_, 0, set())  # vacuous


def test_is_spur_violations():
    complex_ = from_maximal_faces([(0, 1), (0, 2), (1, 2)])
    report = is_spur(complex_, 0, {1, 2})
    assert not report
    assert any("adjacent" in v for v in report.violations)
    # common neighbor besides the base
    complex2 = from_maximal_faces([(0, 1), (0, 2), (1, 3), (2, 3)])
    report2 = is_spur(complex2, 0, {1, 2})
    assert not report2
    assert any("share neighbor 3" in v for v in report2.violations)
    with pytest.raises(ValueError):
        is_spur(complex_, 0, {9})


def pairwise_spur_violations(adjacency, u, members):
    """is_spur's rules checked pair by pair, the scan that words a failure."""
    if u in members:
        return [f"base vertex {u} is in the set"]
    none = frozenset()
    base_neighbors = adjacency.get(u, none)
    violations = [f"member {v} is not adjacent to base {u}"
                  for v in members if v not in base_neighbors]
    for v, w in combinations(members, 2):
        v_neighbors = adjacency.get(v, none)
        if w in v_neighbors:
            violations.append(f"members {v}, {w} are adjacent")
        shared = (v_neighbors & adjacency.get(w, none)) - {u}
        if shared:
            violations.append(
                f"members {v}, {w} share neighbor {min(shared)} besides {u}")
    return violations


def test_spur_violations_match_the_pairwise_scan_on_edge_cases():
    star = {0: {1, 2, 3}, 1: {0}, 2: {0}, 3: {0}}
    cases = [
        (star, [], True),  # the empty set
        (star, [1, 2, 3], True),
        (star, [0, 1], False),  # the base inside the set
        ({0: {1}, 1: {0}, 2: {3}, 3: {2}}, [2], False),  # not at the base
        ({0: {1, 2}, 1: {0, 2}, 2: {0, 1}}, [1, 2], False),  # adjacent
        ({0: {1, 2}, 1: {0, 3}, 2: {0, 3}, 3: {1, 2}}, [1, 2], False),
        # a shared neighbor that is itself a member
        ({0: {1, 2, 3}, 1: {0, 3}, 2: {0, 3}, 3: {0, 1, 2}}, [1, 2, 3], False),
        (star, [1, 4], False),  # 4 is missing from the map
    ]
    for adjacency, members, passes in cases:
        expected = pairwise_spur_violations(adjacency, 0, members)
        assert (not expected) == passes
        assert simplicial._spur_violations(adjacency, 0, members) == expected


def test_spur_violations_match_the_pairwise_scan_on_random_graphs():
    rng = random.Random(28)
    outcomes = Counter()
    for _ in range(600):
        size = rng.randint(1, 12)
        density = rng.choice((0.1, 0.25, 0.5))
        adjacency = {}
        for a, b in combinations(range(size), 2):
            if rng.random() < density:
                adjacency.setdefault(a, set()).add(b)
                adjacency.setdefault(b, set()).add(a)
        if rng.random() < 0.5:
            adjacency = {v: frozenset(s) for v, s in adjacency.items()}
        u = rng.randrange(size)
        if rng.random() < 0.6:  # mostly neighbors of u, often a spur
            pool = sorted(adjacency.get(u, ()))
        else:  # any ids, u and ids missing from the map included
            pool = list(range(size + 2))
        members = sorted(rng.sample(pool, rng.randint(0, len(pool))))
        expected = pairwise_spur_violations(adjacency, u, members)
        assert simplicial._spur_violations(adjacency, u, members) == expected
        outcomes[not expected] += 1
    assert outcomes[True] > 150 and outcomes[False] > 150, outcomes


def test_are_compatible():
    # Two disjoint spurs with no cross edges.
    complex_ = from_maximal_faces([(0, 1), (0, 2), (0, 3), (0, 4)])
    assert are_compatible(complex_, 0, {1, 2}, {3, 4})
    assert not are_compatible(complex_, 0, {1, 2}, {2, 3})  # overlap
    # two cross edges break compatibility
    complex2 = from_maximal_faces([(0, 1), (0, 2), (0, 3), (0, 4), (1, 3), (2, 4)])
    assert not are_compatible(complex2, 0, {1, 2}, {3, 4})
    with pytest.raises(SpurError):
        are_compatible(from_maximal_faces([(0, 1), (1, 2), (0, 2)]),
                       0, {1, 2}, {1})


def test_compatible_spurs_negative_controls():
    star = from_maximal_faces([(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)])
    assert compatible_spurs(star, [{1, 2}, {3, 4}, {5}]) == Report(True)
    overlap = compatible_spurs(star, [{1, 2}, {3, 4}, {2, 5}])
    assert not overlap
    assert overlap.violations == ("spurs 0 and 2 share vertex 2",)
    assert overlap.witness == (0, 2)
    crossed = from_maximal_faces(
        [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 3), (2, 4), (3, 5)])
    report = compatible_spurs(crossed, [{1, 2}, {5}, {3, 4}])
    assert not report
    assert report.violations == ("spurs 0 and 2 are joined by 2 edges",)
    assert report.witness == (0, 2)
    # One cross edge is allowed.
    assert compatible_spurs(crossed, [{1}, {3, 4}])


def test_compatible_spurs_names_the_least_failing_pair():
    # Pairs (1, 2) and (0, 3) fail; a pairwise scan in order meets (0, 3) first.
    star = from_maximal_faces([(0, v) for v in range(1, 8)])
    report = compatible_spurs(star, [{1}, {2, 5}, {3, 5}, {1, 4}, {6, 7}])
    assert report.witness == (0, 3)
    assert report.violations == ("spurs 0 and 3 share vertex 1",)


def test_collapse_singleton_is_relabel():
    complex_ = from_maximal_faces([(0, 1), (1, 2), (0, 2)])
    out, mapping = collapse_spur(complex_, 0, {1})
    assert out.vertex_count == 3
    assert sorted(mapping) == [0, 1, 2]
    assert homology_through(out, 2) == homology_through(complex_, 2)


def test_collapse_pair():
    # Base 0 adjacent to 1 and 2; no other shared structure.
    complex_ = from_maximal_faces([(0, 1), (0, 2), (1, 3), (2, 4), (3, 4)])
    out, mapping = collapse_spur(complex_, 0, {1, 2})
    assert out.vertex_count == complex_.vertex_count - 1
    assert mapping[1] == mapping[2]
    assert validate(out)
    assert homology_through(out, 2) == homology_through(complex_, 2)


def test_collapse_empty_spur_adds_pendant():
    complex_ = from_maximal_faces([(0, 1), (1, 2), (0, 2)])
    out, mapping = collapse_spur(complex_, 0, set())
    assert out.vertex_count == 4
    assert (0, 3) in out.faces
    assert mapping == {0: 0, 1: 1, 2: 2}
    assert homology_through(out, 2) == homology_through(complex_, 2)


def test_collapse_requires_spur():
    complex_ = from_maximal_faces([(0, 1), (1, 2), (0, 2)])
    with pytest.raises(SpurError):
        collapse_spur(complex_, 0, {1, 2})


def test_collapse_spurs_checks_each_spur_in_its_quotient():
    # {1, 2} and {3, 4} are both spurs at 0 in the start complex, joined by
    # the two cross edges 1-3 and 2-4.  Once {1, 2} is identified, 3 and 4
    # share that vertex as a neighbor besides the base.
    complex_ = from_maximal_faces([(0, 1), (0, 2), (0, 3), (0, 4), (1, 3), (2, 4)])
    assert is_spur(complex_, 0, {1, 2})
    assert is_spur(complex_, 0, {3, 4})
    with pytest.raises(SpurError) as excinfo:
        collapse_spurs(complex_, 0, [{1, 2}, {3, 4}])
    assert excinfo.value.witness.violations == (
        "members 3, 4 share neighbor 1 besides 0",)
    with pytest.raises(SpurError):
        collapse_spurs(complex_, 0, [{3, 4}, {1, 2}])


def test_collapse_spurs_sequence():
    # Each class keeps its smallest original id; the fresh pendant of the
    # empty spur comes after every survivor, though it is collapsed second.
    complex_ = from_maximal_faces([(0, 1), (0, 2), (0, 3), (0, 4), (1, 5)])
    out, mapping = collapse_spurs(complex_, 0, [{2, 4}, set(), {1, 3}])
    assert mapping == {0: 0, 1: 1, 2: 2, 3: 1, 4: 2, 5: 3}
    assert out.vertex_count == 5
    assert out.faces == frozenset({(0,), (1,), (2,), (3,), (4,), (0, 1),
                                   (0, 2), (1, 3), (0, 4)})
    with pytest.raises(ValueError):
        collapse_spurs(complex_, 0, [{1}, {9}])


def test_neighbors_do_not_keep_the_complex_alive():
    complex_ = circle(5)
    assert complex_.neighbors(0) == {1, 4}
    ref = weakref.ref(complex_)
    del complex_
    gc.collect()
    assert ref() is None


def grid_surface(flip):
    """The 3 x 3 grid on Z_3 x Z_3: a torus, or with flip a Klein bottle."""
    def label(x, y):
        if x == 3:
            x, y = 0, (-y if flip else y)
        return 3 * (x % 3) + y % 3

    faces = []
    for x in range(3):
        for y in range(3):
            a, b = label(x, y), label(x + 1, y)
            c, d = label(x, y + 1), label(x + 1, y + 1)
            faces += [(a, b, d), (a, c, d)]
    return faces


def shifted(faces, by):
    return [tuple(v + by for v in f) for f in faces]


def random_complex_3d(rng):
    """Up to 8 vertices and faces of up to 4 vertices, relabeled to 0..n-1."""
    n = rng.randint(4, 8)
    faces = [tuple(sorted(rng.sample(range(n), rng.randint(1, 4))))
             for _ in range(rng.randint(1, 10))]
    used = sorted({v for f in faces for v in f})
    relabel = {v: i for i, v in enumerate(used)}
    return from_maximal_faces(
        [tuple(relabel[v] for v in f) for f in faces], vertex_count=len(used))


def assert_matches_reference(complex_):
    hs = homology_through(complex_, complex_.dim)
    assert hs == [reference_homology(complex_, k)
                  for k in range(complex_.dim + 1)]
    return hs


def test_cotree_rows_of_d2_match_the_oracle_on_random_complexes():
    # d_2 is reduced on the edges outside a spanning forest; the oracle
    # reduces the full dense d_2.  Random graphs are often disconnected and
    # have isolated vertices.
    rng = random.Random(20911952)
    for _ in range(200):
        assert_matches_reference(random_complex(rng))
    for _ in range(150):
        assert_matches_reference(random_graph(rng))


def test_cotree_rows_of_d2_leave_d3_on_every_row():
    # The suspension of RP^2: a cone over it at 6 and another at 7.
    suspension = [f + (apex,) for apex in (6, 7)
                  for f in maximal_faces(rp2_complex())]
    pinned = {
        # S^3, the boundary of the 4-simplex.
        "sphere3": ([f for f in combinations(range(5), 4)],
                    [Homology(1), Homology(0), Homology(0), Homology(1)]),
        "solid": ([tuple(range(4))], [Homology(1)] + [Homology(0)] * 3),
        # H_2 = Z/2 of the suspension comes from d_3 alone.
        "suspension": (suspension, [Homology(1), Homology(0),
                                    Homology(0, (2,)), Homology(0)]),
        "4-simplex": ([tuple(range(5))], [Homology(1)] + [Homology(0)] * 4),
    }
    for name, (faces, expected) in pinned.items():
        assert assert_matches_reference(from_maximal_faces(faces)) == expected, name
    rng = random.Random(3)
    dims = Counter()
    for _ in range(80):
        complex_ = random_complex_3d(rng)
        dims[complex_.dim] += 1
        assert_matches_reference(complex_)
    assert dims[3] >= 20


def test_cotree_rows_of_d2_keep_the_torsion_of_h1():
    rp2 = maximal_faces(rp2_complex())
    pinned = {
        "rp2": (rp2, [Homology(1), Homology(0, (2,)), Homology(0)]),
        "klein": (grid_surface(True), [Homology(1), Homology(1, (2,)),
                                       Homology(0)]),
        "rp2 + torus": (rp2 + shifted(grid_surface(False), 6),
                        [Homology(2), Homology(2, (2,)), Homology(1)]),
        "rp2 v circle": (rp2 + [(0, 6), (6, 7), (0, 7)],
                         [Homology(1), Homology(1, (2,)), Homology(0)]),
    }
    for name, (faces, expected) in pinned.items():
        assert assert_matches_reference(from_maximal_faces(faces)) == expected, name


def test_d2_reaches_sparse_snf_with_one_row_per_edge_outside_the_forest(
        monkeypatch):
    shapes = []

    def spy(rows, width):
        shapes.append((width, len(rows)))
        return sparse_snf(rows, width)

    monkeypatch.setattr(simplicial, "sparse_snf", spy)
    rng = random.Random(17)
    complexes = [rp2_complex(), from_maximal_faces(grid_surface(True)),
                 from_maximal_faces(maximal_faces(rp2_complex())
                                    + shifted(grid_surface(False), 6))]
    complexes += [random_complex(rng) for _ in range(40)]
    complexes += [random_graph(rng) for _ in range(40)]
    for complex_ in complexes:
        shapes.clear()
        homology_through(complex_, 2)
        # Only d_2 reaches sparse_snf, and only on a complex with triangles:
        # d_0, d_1 and every d_k above the dimension skip it.
        vertices, edges, triangles = (complex_.face_counts() + [0, 0, 0])[:3]
        components = reference_homology(complex_, 0).betti
        assert shapes == ([(triangles, edges - vertices + components)]
                          if triangles else [])


def test_the_dual_forest_leaves_unit_elimination_no_entry_of_d2(monkeypatch):
    # On d_2's cotree rows, every row but the m long ones has two +-1
    # entries; sparse_snf contracts a spanning forest of them first.
    calls = []

    def spy(rows, width, record=False):
        calls.append(([dict(row) for row in rows], width))
        return real(rows, width, record)

    real = intlinalg._eliminate_units
    monkeypatch.setattr(intlinalg, "_eliminate_units", spy)
    for m, complex_ in ((28, build_w(28)[0]), (28, build_x(28)), (48, build_x(48))):
        calls.clear()
        assert homology_through(complex_, 1)[1] == Homology(m)
        # d_2 is the only map that reaches sparse_snf here.
        (rows, width), = calls
        assert len(rows) <= m
        assert not any(v for row in rows for v in row.values())


def test_validate_scans_once_for_verify_expect_rank(tmp_path, capsys,
                                                    monkeypatch):
    scans = []

    def counting(complex_):
        scans.append(complex_)
        return real(complex_)

    real = simplicial._scan
    monkeypatch.setattr(simplicial, "_scan", counting)
    path = tmp_path / "rp2.scx"
    path.write_text(dumps_scx(rp2_complex()))
    assert main(["verify", str(path), "--expect-rank", "0"]) == 1
    assert capsys.readouterr().out == (
        "valid complex: 6 vertices, 31 faces\n"
        "H1 = Z^0 with torsion [2], expected Z^0\n")
    assert len(scans) == 1
    path.write_text(dumps_scx(circle(4)))
    assert main(["verify", str(path), "--expect-rank", "1"]) == 0
    assert capsys.readouterr().out == (
        "valid complex: 4 vertices, 8 faces\nH1 = Z^1\n")
    assert len(scans) == 2


def test_scx_face_lines_are_capped(tmp_path, capsys):
    at_cap = " ".join(map(str, range(MAX_FACE_VERTICES)))
    complex_ = loads_scx(f"scx 1\nv {MAX_FACE_VERTICES}\n{at_cap}\n")
    assert len(complex_.faces) == 2 ** MAX_FACE_VERTICES - 1
    path = tmp_path / "long.scx"
    path.write_text("scx 1\nv 40\n" + " ".join(map(str, range(40))) + "\n0 1\n")
    for argv in (["verify", str(path)], ["homology", str(path), "--dim", "1"]):
        start = time.monotonic()
        assert main(argv) == 2
        elapsed = time.monotonic() - start
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: face line has 40 vertices, more than "
                                f"{MAX_FACE_VERTICES}\n")
        assert elapsed < 1, f"{argv[0]} took {elapsed:.2f}s"


def test_scx_total_closure_is_capped(tmp_path, capsys):
    # 100 distinct lines of 16 vertices would close to 6,553,500 faces.
    lines = [" ".join(str(100 * i + k) for k in range(MAX_FACE_VERTICES))
             for i in range(100)]
    path = tmp_path / "many.scx"
    path.write_text("scx 1\nv 10000\n" + "\n".join(lines) + "\n")
    for argv in (["verify", str(path)], ["homology", str(path), "--dim", "1"]):
        start = time.monotonic()
        assert main(argv) == 2
        elapsed = time.monotonic() - start
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: face lines close to more than "
                                f"{MAX_SCX_CLOSURE} faces\n")
        assert elapsed < 1, f"{argv[0]} took {elapsed:.2f}s"


def test_scx_closure_cap_admits_the_largest_complex_the_cli_writes():
    complex_, _ = build_w(100)
    assert loads_scx(dumps_scx(complex_)) == complex_


def single_fault_mutants(complex_, rng):
    """One complex per single fault: a face dropped, a bad face added, the
    vertex count raised."""
    faces, count = complex_.faces, complex_.vertex_count
    dropped = [faces - {rng.choice(bucket)}
               for bucket in complex_._by_dim[:3] if bucket]
    added = [faces | {extra}
             for extra in ((1, 0), (0, 1, 1), (count,), (0, count), (-1,), ())]
    return ([SimplicialComplex(f, count) for f in dropped + added]
            + [SimplicialComplex(faces, count + 1),
               SimplicialComplex(faces, count + 12)])


def test_validate_matches_the_per_face_scan():
    rng = random.Random(2029)
    complexes = [c for m in (1, 2, 7, 12, 28) for c in (build_w(m)[0], build_x(m))]
    complexes += [random_complex(rng) for _ in range(60)]
    valid, kinds = 0, Counter()
    for complex_ in complexes:
        for case in [complex_, *single_fault_mutants(complex_, rng)]:
            expected = scan_violations(case)
            report = validate(case)
            assert list(report.violations) == expected, sorted(case.faces)
            assert report.ok == (not expected)
            valid += not expected
            kinds.update(v.split()[0] for v in expected)
    # every kind of violation occurs, uncovered vertices named and counted
    assert valid >= 70
    assert min(kinds[k] for k in ("empty", "face", "missing", "vertex", "...")) >= 50


def test_validate_words_only_a_failure(monkeypatch):
    def refuse(complex_):
        raise AssertionError("worded a valid complex")

    monkeypatch.setattr(simplicial, "_word_violations", refuse)
    assert validate(build_w(28)[0]) and validate(build_x(28))
    assert homology_through(build_x(28), 2)[1] == Homology(28)
    with pytest.raises(AssertionError, match="worded a valid complex"):
        validate(SimplicialComplex(frozenset({(0,), (1, 0)}), 1))
