"""Smith form and lattice utilities against independent oracles."""

import random
import re
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lattice_oracle
import uncontracted_oracle
from lattice_oracle import brute_rank, is_parallel, smith_diagonal
from pivot_oracle import eliminate_units
from zncomplex.construction import build_x
from zncomplex.presentation import exponent_columns, extract_presentation
from zncomplex import intlinalg
from zncomplex.intlinalg import (
    SnfResult,
    _eliminate_units,
    coordinates,
    echelon,
    plane_key,
    primitive_direction,
    rank_of_rows,
    smith_normal_form,
    sparse_snf,
)


def det(matrix):
    if len(matrix) == 1:
        return matrix[0][0]
    total = 0
    for j, v in enumerate(matrix[0]):
        if v:
            minor = [row[:j] + row[j + 1:] for row in matrix[1:]]
            total += (-1) ** j * v * det(minor)
    return total


def diagonal_by_minor_gcds(matrix):
    """Independent oracle: d_1 ... d_k equals the gcd of all k x k minors."""
    from math import gcd

    m, n = len(matrix), len(matrix[0])
    previous = 1
    out = []
    for k in range(1, min(m, n) + 1):
        g = 0
        for rows in combinations(range(m), k):
            for cols in combinations(range(n), k):
                g = gcd(g, det([[matrix[i][j] for j in cols] for i in rows]))
        if g == 0:
            out.append(0)
            previous = 0
        else:
            out.append(g // previous)
            previous = g
    return tuple(out)


def oracle_snf(matrix):
    """The textbook dense Smith diagonal and its rank, as an SnfResult."""
    diagonal = smith_diagonal(matrix)
    return SnfResult(diagonal, sum(1 for d in diagonal if d))


def test_smith_diagonal_oracle_against_minor_gcds():
    rng = random.Random(1979)
    for _ in range(150):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        matrix = [[rng.choice((0, 0, 1, -2, 3, 4, -6, 9, rng.randint(-12, 12)))
                   for _ in range(n)] for _ in range(m)]
        assert smith_diagonal(matrix) == diagonal_by_minor_gcds(matrix), matrix


def assert_certificate(matrix):
    """Check the Smith diagonal against the minor-gcd oracle and its shape.

    The diagonal equals the minor-gcd diagonal, each nonzero entry divides
    the next, and the rank counts the nonzero entries.
    """
    result = smith_normal_form(matrix)
    assert result.diagonal == diagonal_by_minor_gcds(matrix)
    for i in range(len(result.diagonal) - 1):
        if result.diagonal[i + 1]:
            assert result.diagonal[i] != 0
            assert result.diagonal[i + 1] % result.diagonal[i] == 0
    assert result.rank == sum(1 for d in result.diagonal if d)
    return result


def test_snf_single_zero():
    assert smith_normal_form([[0]]).diagonal == (0,)


def test_snf_identity():
    assert smith_normal_form([[1, 0, 0], [0, 1, 0], [0, 0, 1]]).diagonal == (1, 1, 1)


def test_snf_two_by_two_example():
    # Oracle value via minor gcds: gcd of entries is 1... the entries are
    # {2, 3}, so d1 = 1 and d1*d2 = |det| = 6.
    assert diagonal_by_minor_gcds([[2, 0], [0, 3]]) == (1, 6)
    result = assert_certificate([[2, 0], [0, 3]])
    assert result.diagonal == (1, 6)


def test_snf_random_against_minor_gcd_oracle():
    rng = random.Random(20240811)
    for _ in range(150):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        matrix = [[rng.randint(-7, 7) for _ in range(n)] for _ in range(m)]
        result = assert_certificate(matrix)
        assert result.diagonal == diagonal_by_minor_gcds(matrix)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(-9, 9), min_size=1, max_size=5),
                min_size=1, max_size=5).filter(
                    lambda rows: len({len(r) for r in rows}) == 1))
def test_snf_certificate_property(rows):
    assert_certificate(rows)


def test_snf_rectangular_shapes():
    assert smith_normal_form([[1, 2, 3]]).diagonal == (1,)
    assert smith_normal_form([[2], [4], [6]]).diagonal == (2,)
    result = smith_normal_form([])
    assert result.diagonal == () and result.rank == 0


def test_sparse_snf_shapes():
    assert sparse_snf([], 0) == oracle_snf([]) == SnfResult((), 0)
    assert sparse_snf([{}, {}], 3) == oracle_snf([[0, 0]] * 3)
    assert sparse_snf([{0: 2}, {1: 3}], 2).diagonal == (1, 6)
    assert sparse_snf([{0: 1, 1: -1}, {0: 0}], 2) == SnfResult((1, 0), 1)
    with pytest.raises(ValueError):
        sparse_snf([{2: 1}], 2)


def test_sparse_snf_against_sympy(monkeypatch):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    remainders = []
    smith_diagonal_of_remainder = intlinalg._smith_diagonal

    def counting_diagonal(rows):
        if rows:
            remainders.append(rows)
        return smith_diagonal_of_remainder(rows)

    monkeypatch.setattr(intlinalg, "_smith_diagonal", counting_diagonal)
    rng = random.Random(2001)
    entries = (1, -1, 2, -2, 3, -4, 6, 9)
    for _ in range(80):
        m, n = rng.randint(1, 8), rng.randint(1, 8)
        columns = [{i: rng.choice(entries) for i in range(m)
                    if rng.random() < 0.4} for _ in range(n)]
        dense = [[col.get(i, 0) for col in columns] for i in range(m)]
        result = sparse_snf(columns, m)
        assert result == oracle_snf(dense), dense
        oracle = sympy_snf(sympy.Matrix(dense), domain=sympy.ZZ)
        assert result.diagonal == tuple(abs(oracle[i, i])
                                        for i in range(min(m, n))), dense
    # Enough cases keep non-unit entries after unit elimination that the
    # remainder path runs.
    assert len(remainders) >= 40


def contraction_case(rng, kinds):
    """Sparse columns and a row count for sparse_snf's forest contraction.

    The rows with two +-1 entries form forests, cycles and parallel rows on
    one column pair.  A cycle counts in kinds as "cycle 0" when its signs
    cancel once its other rows are contracted, and as "cycle 2" when they
    leave +-2 (torsion, unless other rows reach it).  Two-entry rows with a
    non-unit, rows of other weights, empty rows and empty columns are mixed
    in, the rows are shuffled, and some columns hold an explicit zero.
    """
    width = rng.randint(0, 10)
    rows = []

    def unit():
        return rng.choice((1, -1))

    for _ in range(rng.randint(0, 5)):
        kind = rng.choice(("forest", "cycle", "parallel", "non-unit", "other",
                           "empty") if width >= 2 else ("other", "empty"))
        if kind in ("forest", "cycle"):
            nodes = rng.sample(range(width), rng.randint(2, width))
        if kind == "forest":
            rows += [{nodes[t]: unit(), nodes[rng.randrange(t)]: unit()}
                     for t in range(1, len(nodes))]
        elif kind == "cycle":
            # Contracting all but the last row leaves a +- a + -+ b there,
            # which cancels exactly when the product of -a * b over the
            # cycle is 1; the last b picks that product.
            signs = [(unit(), unit()) for _ in nodes]
            product = rng.choice((1, -1))
            a = signs[-1][0]
            signs[-1] = a, -product * a * prod(-a * b for a, b in signs[:-1])
            kind = "cycle 0" if product == 1 else "cycle 2"
            rows += [{nodes[t]: a, nodes[t - 1]: b} for t, (a, b) in enumerate(signs)]
        elif kind == "parallel":
            j, k = rng.sample(range(width), 2)
            rows += [{j: unit(), k: unit()} for _ in range(rng.randint(2, 3))]
        elif kind == "non-unit":
            j, k = rng.sample(range(width), 2)
            a, b = rng.choice(((1, 2), (2, -2), (-1, 3), (2, 1), (-3, -1)))
            rows.append({j: a, k: b})
        elif kind == "other" and width:
            size = min(width, rng.choice((1, 3, 4)))
            rows.append({c: rng.choice((1, -1, 2, -2, 3, -4))
                         for c in rng.sample(range(width), size)})
        else:
            rows.append({})
        kinds[kind] += 1
    rows += [{}] * rng.randint(0, 2)
    rng.shuffle(rows)
    columns = [{} for _ in range(width)]
    for i, row in enumerate(rows):
        for c, v in row.items():
            columns[c][i] = v
    if rows and width and rng.random() < 0.2:
        columns[rng.randrange(width)].setdefault(rng.randrange(len(rows)), 0)
    return columns, len(rows)


def test_sparse_snf_contracts_a_spanning_forest_of_the_two_unit_rows():
    # Seed 3011, 3000 cases, about 1 s.  The whole SnfResult matches the
    # dense textbook oracle and unit elimination of the uncontracted matrix.
    rng = random.Random(3011)
    kinds = Counter()
    for _ in range(3000):
        columns, row_count = contraction_case(rng, kinds)
        dense = [[col.get(i, 0) for col in columns] for i in range(row_count)]
        result = sparse_snf(columns, row_count)
        assert result == oracle_snf(dense), dense
        assert result == uncontracted_oracle.sparse_snf(columns, row_count), dense
    assert min(kinds[kind] for kind in ("forest", "cycle 0", "cycle 2", "parallel",
                                        "non-unit", "other", "empty")) >= 300, kinds


def test_sparse_snf_checks_entries_before_contracting():
    # Each bad entry sits in a row the forest could take; the first fault in
    # column order is named, with today's text.
    cases = [
        ([{0: 1}, {0: Fraction(1, 2)}], 1,
         "entry Fraction(1, 2) at row 0, column 1 is not an integer"),
        ([{0: 1, 1: -1}, {0: -1, 1: 0.5}], 2,
         "entry 0.5 at row 1, column 1 is not an integer"),
        ([{0: 1, 1: -1}, {1: 1, 2: 1}], 2, "row index 2 outside 0..1"),
        ([{0: 1}, {0: -1, 5: 0}], 1, "row index 5 outside 0..0"),
        ([{0: 1, 3: 1}, {0: 0.5}], 1, "row index 3 outside 0..0"),
        ([{0: 0.5}, {0: 1, 3: 1}], 1, "entry 0.5 at row 0, column 0 is not an integer"),
    ]
    for columns, row_count, message in cases:
        with pytest.raises(ValueError, match=re.escape(message)):
            sparse_snf(columns, row_count)
        with pytest.raises(ValueError, match=re.escape(message)):
            uncontracted_oracle.sparse_snf(columns, row_count)


def test_snf_without_units_against_sympy_and_oracle():
    # No entry is a unit, so unit elimination leaves the whole matrix to
    # the remainder path; some shapes have no rows, no columns or no nonzero.
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    rng = random.Random(4021)
    shapes = [(0, 5), (5, 0), (0, 0), (7, 4), (20, 20)]
    shapes += [(rng.randint(1, 20), rng.randint(1, 20)) for _ in range(40)]
    for k, (m, n) in enumerate(shapes):
        density = 0 if k == 3 else rng.random()
        columns = [{i: rng.choice((2, -2, 3, 4, -6, 9)) for i in range(m)
                    if rng.random() < density} for _ in range(n)]
        matrix = [[col.get(i, 0) for col in columns] for i in range(m)]
        result = sparse_snf(columns, m)
        assert len(result.diagonal) == min(m, n)
        assert result == smith_normal_form(matrix) == oracle_snf(matrix), matrix
        if m and n:
            oracle = sympy_snf(sympy.Matrix(matrix), domain=sympy.ZZ)
            assert result.diagonal == tuple(abs(oracle[i, i])
                                            for i in range(min(m, n))), matrix


def test_rank_of_rows():
    assert rank_of_rows([[1, 2], [2, 4], [0, 1]]) == 2
    assert rank_of_rows([[0, 0]]) == 0
    assert rank_of_rows([[Fraction(1, 2), Fraction(1, 3)], [3, 2]]) == 1


def test_rank_matches_snf_rank():
    rng = random.Random(7)
    for _ in range(100):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        matrix = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
        assert rank_of_rows(matrix) == oracle_snf(matrix).rank


def combination(coeffs, vectors, n):
    return [sum(c * v[j] for c, v in zip(coeffs, vectors)) for j in range(n)]


def assert_echelon(rows):
    """echelon(rows) against the rank and minor-gcd oracles."""
    basis, combos, kernel = echelon(rows)
    m, n = len(rows), len(rows[0]) if rows else 0
    last = -1
    for row in basis:
        pivot = next(j for j, x in enumerate(row) if x)
        assert pivot > last and row[pivot] > 0
        last = pivot
    for k, combo in enumerate(combos):
        assert basis[k] == tuple(sum(c * rows[i][j] for i, c in combo.items())
                                 for j in range(n))
    dense = [[y.get(i, 0) for i in range(m)] for y in combos + kernel]
    for y in dense[len(combos):]:
        assert not any(sum(y[i] * rows[i][j] for i in range(m)) for j in range(n))
    if kernel:
        assert diagonal_by_minor_gcds(dense[len(combos):]) == (1,) * len(kernel)
    if m:
        assert abs(det(dense)) == 1
    rank = brute_rank(rows)
    assert len(basis) == rank and len(kernel) == m - rank
    # The basis spans the row lattice: every row has coordinates in it.
    for row in rows:
        coeffs = coordinates(row, basis)
        assert coeffs is not None
        assert combination(coeffs, basis, n) == row
    return basis


def in_lattice(vector, rows):
    """Oracle: same rank and same product of Smith diagonal with vector added."""
    def invariants(matrix):
        snf = oracle_snf(matrix)
        product = 1
        for d in snf.diagonal[:snf.rank]:
            product *= d
        return snf.rank, product
    return invariants(rows) == invariants(rows + [list(vector)])


def test_echelon_random_against_oracles():
    rng = random.Random(31)
    for _ in range(150):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[rng.randint(-7, 7) for _ in range(n)] for _ in range(m)]
        basis = assert_echelon(rows)
        vector = [rng.randint(-9, 9) for _ in range(n)]
        coeffs = coordinates(vector, basis)
        assert (coeffs is not None) == in_lattice(vector, rows), (rows, vector)
        if coeffs is not None:
            assert combination(coeffs, basis, n) == vector


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(-9, 9), min_size=1, max_size=5),
                min_size=1, max_size=5).filter(
                    lambda rows: len({len(r) for r in rows}) == 1))
def test_echelon_property(rows):
    assert_echelon(rows)


def test_echelon_shapes():
    assert echelon([]) == ([], [], [])
    # Rows of width zero all reduce to zero: the kernel is the identity.
    assert echelon([[], []]) == ([], [], [{0: 1}, {1: 1}])
    basis, combos, kernel = echelon([[0, -2], [0, 3]])
    assert basis == [(0, 1)] and len(kernel) == 1
    with pytest.raises(ValueError):
        echelon([[1, 2], [3]])


def test_coordinates():
    basis = [(2, 0, 0), (0, 3, 0)]
    assert echelon(basis)[0] == basis
    assert coordinates((4, 9, 0), basis) == [2, 3]
    assert coordinates((1, 0, 0), basis) is None
    assert coordinates((0, 0, 1), basis) is None
    zero_basis, _, _ = echelon([[0], [0]])
    assert coordinates((0,), zero_basis) == []
    assert coordinates((1,), zero_basis) is None


def test_coordinates_random_consistency():
    rng = random.Random(99)
    for _ in range(80):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        x = [rng.randint(-3, 3) for _ in range(m)]
        target = [sum(x[i] * rows[i][j] for i in range(m)) for j in range(n)]
        basis, _, _ = echelon(rows)
        found = coordinates(target, basis)
        assert found is not None
        assert combination(found, basis, n) == target


def test_saturated_span_by_two_kernels():
    # replace_subspace's construction: the kernel of the coordinate columns
    # projects away the span, and the kernel of that projection's transpose
    # is a basis of the span intersected with Z^n.
    def saturated_span(rows, n):
        _, _, kernel = echelon([[row[t] for row in rows] for t in range(n)])
        projection = [[y.get(t, 0) for t in range(n)] for y in kernel]
        _, _, span = echelon([[row[t] for row in projection] for t in range(n)])
        return [[x.get(t, 0) for t in range(n)] for x in span]
    assert saturated_span([[2, 4]], 2) in ([[1, 2]], [[-1, -2]])
    assert saturated_span([[0, 0]], 2) == []
    assert saturated_span([], 2) == []
    rng = random.Random(4)
    for _ in range(60):
        n = rng.randint(1, 4)
        rows = [[rng.choice((-4, -2, 0, 2, 6)) for _ in range(n)]
                for _ in range(rng.randint(1, 3))]
        span = saturated_span(rows, n)
        assert len(span) == rank_of_rows(rows)
        if span:
            assert smith_diagonal(span) == (1,) * len(span)
            assert rank_of_rows(rows + span) == len(span)


def test_plane_key_depends_only_on_span():
    a = plane_key([[1, 0, 0], [0, 1, 0]])
    b = plane_key([[2, 2, 0], [3, -1, 0]])
    c = plane_key([[1, 0, 0], [0, 0, 1]])
    assert a == b
    assert a != c
    assert plane_key([[0, 0, 0], [2, 4, 0], [-1, -2, 0], [0, 3, 0]]) == a
    for rows in ([[1, 2, 3]], [[1, 2, 3], [-2, -4, -6]], [[0, 0, 0], [0, 0, 0]]):
        with pytest.raises(ValueError):
            plane_key(rows)
    rng = random.Random(1868)
    for _ in range(200):
        u, v, w = ([rng.randint(-3, 3) for _ in range(4)] for _ in range(3))
        if rank_of_rows([u, v]) < 2:
            continue
        key = plane_key([u, v])
        p, q, r, s = (rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(4))
        if p * s != q * r:  # another spanning pair of the same plane
            pair = [[p * x + q * y for x, y in zip(u, v)],
                    [r * x + s * y for x, y in zip(u, v)]]
            assert plane_key(pair) == key
        assert plane_key([[-x for x in v], [3 * x for x in u]]) == key
        if rank_of_rows([u, w]) == 2:
            assert (plane_key([u, w]) == key) == (rank_of_rows([u, v, w]) == 2)


@st.composite
def rows_near_a_plane(draw):
    """2-4 rows in Z^2..Z^6: zero rows, rows on a line, in a plane or off it."""
    n = draw(st.integers(2, 6))
    entry = st.one_of(st.just(0), st.integers(-3, 3))  # zero columns often
    base = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(3)]
    rows = []
    for _ in range(draw(st.integers(2, 4))):
        # 0 base vectors: a zero row; 1: parallel; 2: in the plane; 3: off it
        coeffs = draw(st.lists(st.integers(-2, 2), max_size=3))
        rows.append([sum(c * b[i] for c, b in zip(coeffs, base))
                     for i in range(n)])
    return rows


@st.composite
def sparse_rows(draw):
    """2-4 rows in Z^7..Z^48 with at most 3 nonzero coordinates each.

    These are the shapes of the lower pipeline's plane keys, where most
    coordinates are unused and the key holds only the used ones' products.
    Half the time each row is drawn on the coordinates of the first, so
    rows in one plane and on one line are common too.
    """
    n = draw(st.integers(7, 48))
    coordinate = st.integers(0, n - 1)
    first = draw(st.lists(coordinate, min_size=1, max_size=3, unique=True))
    rows = []
    for _ in range(draw(st.integers(2, 4))):
        support = first if draw(st.booleans()) else draw(
            st.lists(coordinate, max_size=3, unique=True))
        row = [0] * n
        for i in support:
            row[i] = draw(st.integers(-3, 3))
        rows.append(row)
    return rows


def dense_key(key, n):
    """The (i, j, x) triples of a plane key as the whole Pluecker vector.

    The triples must be in (i, j) order with i < j < n and x != 0, so
    different keys give different vectors.
    """
    assert all(0 <= i < j < n and x for i, j, x in key)
    assert [(i, j) for i, j, _ in key] == sorted({(i, j) for i, j, _ in key})
    entries = {(i, j): x for i, j, x in key}
    return tuple(entries.get((i, j), 0)
                 for i in range(n) for j in range(i + 1, n))


@settings(max_examples=300, deadline=None)
@given(rows_near_a_plane(), sparse_rows())
def test_plane_key_equals_two_step_oracle(near, sparse):
    for rows in (near, sparse):
        if lattice_oracle.brute_rank(rows) == 2:
            key = dense_key(plane_key(rows), len(rows[0]))
            assert key == lattice_oracle.plane_key(rows)
        else:
            with pytest.raises(ValueError):
                plane_key(rows)


def test_plane_key_of_a_coordinate_plane_has_one_entry():
    n = 200
    for i, j in ((0, 1), (0, 199), (57, 123), (198, 199)):
        e_i, e_j = ([int(t == k) for t in range(n)] for k in (i, j))
        assert plane_key([e_i, e_j]) == ((i, j, 1),)
        assert plane_key([e_j, [-2 * x for x in e_i]]) == ((i, j, 1),)


def test_plane_key_rejects_rank_three():
    with pytest.raises(ValueError):
        plane_key([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(ValueError):
        plane_key([[1, 0, 0, 0], [2, 0, 0, 0], [0, 1, 0, 0], [1, 1, 0, 0],
                   [0, 0, 0, 0], [0, 1, 0, 1]])


def test_rank_of_rows_int_and_fraction_rows_agree():
    rng = random.Random(33)
    for _ in range(100):
        rows = [[rng.randint(-2, 2) for _ in range(4)]
                for _ in range(rng.randint(1, 4))]
        halves = [[Fraction(x, 2) for x in row] for row in rows]
        mixed = [halves[0]] + rows[1:]
        assert rank_of_rows(rows) == rank_of_rows(halves) == \
            rank_of_rows(mixed) == lattice_oracle.brute_rank(rows)
    rows = [[1, 2], [3, 4]]
    rank_of_rows(rows)
    assert rows == [[1, 2], [3, 4]]  # the input is not reduced in place


def test_primitive_direction():
    assert primitive_direction((4, -6)) == (2, -3)
    assert primitive_direction((-4, 6)) == (2, -3)
    assert primitive_direction((0, 0, -3)) == (0, 0, 1)
    assert primitive_direction((0, 0)) == (0, 0)
    rng = random.Random(5)
    for _ in range(300):
        u = [rng.randint(-2, 2) for _ in range(3)]
        v = [rng.choice((-2, -1, 1, 3)) * x for x in u] if rng.random() < 0.5 \
            else [rng.randint(-2, 2) for _ in range(3)]
        if any(u) and any(v):
            same = primitive_direction(u) == primitive_direction(v)
            assert same == is_parallel(u, v)


def test_snf_rejects_entries_that_are_not_integers():
    for matrix in ([[2.5]], [[Fraction(7, 2)]], [[0.5, 1]]):
        bad = next(v for v in matrix[0] if int(v) != v)
        message = f"entry {bad!r} at row 0, column 0 is not an integer"
        with pytest.raises(ValueError, match=re.escape(message)):
            smith_normal_form(matrix)
        with pytest.raises(ValueError, match="is not an integer"):
            sparse_snf([{0: v} for v in matrix[0]], 1)
    # integral entries of any type are read as today
    assert smith_normal_form([[2.0, Fraction(4)], [True, 3]]).diagonal == (1, 2)


def test_unit_elimination_pops_the_pivots_of_one_tuple_heap():
    for m in (2, 7, 12, 28):
        pres = extract_presentation(build_x(m), 0)
        k = len(pres.generators)
        assert (_eliminate_units(exponent_columns(pres), k, record=True)
                == eliminate_units(exponent_columns(pres), k, record=True))
    rng = random.Random(4242)
    events = {}
    for _ in range(2000):
        rows, width, density = rng.randint(0, 9), rng.randint(0, 9), rng.random()
        columns = [{i: rng.choice((-2, -1, 1, 2, 3)) for i in range(rows)
                    if rng.random() < density} for _ in range(width)]
        record = rng.random() < 0.5
        assert (_eliminate_units(columns, rows, record)
                == eliminate_units(columns, rows, record, events)), columns
    # the later pushes, which go to the heap, both occur in the sample
    assert events["fill"] >= 20 and events["regrown"] >= 20
