"""Exact integer linear algebra: Smith normal form, ranks, lattice bases.

Everything here works with arbitrary-precision Python integers; there is no
floating point.  Matrices are plain lists of lists (rows), except for
sparse_snf, which takes sparse columns.  Two routines reduce matrices, and
everything else calls one of them:

- _eliminate_units takes out the unit pivots of a sparse matrix in
  Markowitz order, keyed by integers.  sparse_snf first contracts a
  spanning forest of the rows with two +-1 entries, by a signed union-find
  over the columns, and hands it only the rows the forest leaves.
  sparse_snf serves simplicial's homology (d_2 on the edges outside the
  graph's spanning forest, where the two-unit rows are the edges of the
  dual graph, d_k for k >= 3 on every row; d_1 is read off the graph's
  forest), the pipeline's rank checks and smith_normal_form, which hands
  it the columns of a dense matrix.  presentation.abelian_images runs
  _eliminate_units on its whole matrix, to log each eliminated generator.
- echelon is integer row echelon form by Euclid, with its transform.  It
  diagonalizes what unit elimination leaves: _smith_diagonal alternates it
  on rows and columns, for sparse_snf and hence smith_normal_form, which
  abelian_images calls on the echelon basis of its remainder for the
  torsion verdict.  Its kernel is the one saturated integer left kernel:
  it gives abelian_images the images of the generators that elimination
  leaves, replace_subspace its projection and saturated basis, and
  pipeline.run_lower its span-closed S' (the generators that every
  normal to the kept images annihilates).  echelon and coordinates also
  give replace_sparse a basis and each member's coordinates, and
  replace_subspace the basis's words.  rank_of_rows counts its basis rows
  for ranks over Q: sg's span dimensions, and presentation.subset_dimension,
  which names the dimension in minimize's and relation_planes' errors.
- plane_key is the one rank-two test and plane key: presentation's
  AbelianMap.plane (for minimize and relation_planes), sg.sg_reduce and
  sg.special_lines, which keys sg-check's lines, call it alone.  A key is
  the nonzero Pluecker coordinates as (i, j, x) triples, so its length
  does not grow with the dimension.
- primitive_direction keys lines for presentation.minimize and sg.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from math import gcd


def primitive_direction(vector) -> tuple[int, ...]:
    """The primitive integer vector on the line of a nonzero integer vector.

    Its content is 1 and its first nonzero entry is positive, so two nonzero
    vectors are parallel exactly when their directions are equal.  The zero
    vector is returned unchanged.
    """
    content = gcd(*vector)
    if not content:
        return tuple(vector)
    if next(x for x in vector if x) < 0:
        content = -content
    return tuple(x // content for x in vector)


@dataclass(frozen=True)
class SnfResult:
    """The Smith diagonal: U * input * V = diag(diagonal) for unimodular U, V.

    diagonal has length min(m, n), entries are non-negative, each divides the
    next, and zeros sit at the tail.  rank is the number of nonzero entries.
    The diagonal is unique, so it does not depend on the route: the ones
    from unit pivots come first, then the invariants of the remainder.
    """

    diagonal: tuple[int, ...]
    rank: int

    @property
    def torsion(self) -> tuple[int, ...]:
        return tuple(d for d in self.diagonal if d > 1)


def smith_normal_form(matrix) -> SnfResult:
    """Smith normal form over Z of a dense matrix (a list of rows).

    The columns go to sparse_snf; a ragged matrix raises ValueError.
    """
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    for row in matrix:
        if len(row) != n:
            raise ValueError("ragged matrix")
    return sparse_snf([{i: row[j] for i, row in enumerate(matrix) if row[j]}
                       for j in range(n)], m)


def _eliminate_units(columns, row_count: int, record: bool = False):
    """Eliminate the +-1 pivots of a sparse integer matrix in Markowitz order.

    columns: any iterable of sparse columns, read once; column j maps a row
    index in 0..row_count-1 to its entry, absent and zero entries zero; an
    entry that is not an integer raises ValueError.  Every +-1 entry is a
    candidate pivot, taken cheapest first by its Markowitz cost (row count
    - 1) * (column count - 1), then by row and column: the integer key
    cost * R * C + i * C + j, for R rows and C columns, orders as (cost, i, j).
    The first keys are sorted once, into a list read from its end; a lazy
    heap takes the later ones: a popped cost that has since grown is pushed
    back with its current value, and +-1 fill-ins are pushed as they appear.
    Each step takes the smaller head, so the pivots come in the order of one
    heap of every candidate.  Eliminating a unit pivot p at (i, j) takes row
    i and column j out and leaves the Schur complement a_rc - a_rj * p * a_ic
    on the rest (Dumas, Saunders & Villard 2001).

    Returns (rows, cols, units, steps): the remainder as sparse rows and
    columns (eliminated ones empty), the number of pivots, and, when
    record is set, one (i, p, column) per pivot in elimination order, where
    column holds column j's entries at that moment, row i's included.  Read
    with the columns as relations on the row generators e_r, a step says
    e_i = -p * sum(a_kj * e_k for k != i) modulo the relations left.
    presentation.abelian_images runs it on its whole matrix and records.
    sparse_snf runs it only on what its spanning forest leaves, which for
    simplicial's d_2 on W_m and X_m is nothing.
    """
    cols: list[dict[int, int]] = []
    rows: list[dict[int, int]] = [{} for _ in range(row_count)]
    for j, column in enumerate(columns):
        col = {}
        for i, v in column.items():
            if not 0 <= i < row_count:
                raise ValueError(f"row index {i} outside 0..{row_count - 1}")
            if v:
                if (n := int(v)) != v:
                    raise ValueError(f"entry {v!r} at row {i}, column {j} is not an integer")
                col[i] = rows[i][j] = n
        cols.append(col)

    width, size = len(cols), row_count * len(cols)
    todo = sorted(((len(rows[i]) - 1) * (len(col) - 1) * size + i * width + j
                   for j, col in enumerate(cols) for i, v in col.items()
                   if v == 1 or v == -1), reverse=True)
    heap: list[int] = []
    units = 0
    steps = [] if record else None
    while todo or heap:
        key = heappop(heap) if heap and (not todo or heap[0] < todo[-1]) else todo.pop()
        cost, (i, j) = key // size, divmod(key % size, width)
        pivot_row = rows[i]
        p = pivot_row.get(j)
        if p != 1 and p != -1:
            continue  # eliminated or changed since it was pushed
        pivot_col = cols[j]
        now = (len(pivot_row) - 1) * (len(pivot_col) - 1)
        if now > cost:
            heappush(heap, key + (now - cost) * size)
            continue
        units += 1
        if record:
            steps.append((i, p, pivot_col))
        rows[i] = {}
        cols[j] = {}
        for c in pivot_row:
            if c != j:
                del cols[c][i]
        for r, a in pivot_col.items():
            if r == i:
                continue
            # row r -= (a / p) * pivot row; 1 / p == p for a unit.
            q = a * p
            row = rows[r]
            del row[j]
            for c, b in pivot_row.items():
                if c == j:
                    continue
                v = row.get(c, 0) - q * b
                if v:
                    row[c] = cols[c][r] = v
                    if v == 1 or v == -1:
                        heappush(heap, (len(row) - 1) * (len(cols[c]) - 1) * size + r * width + c)
                elif c in row:
                    del row[c]
                    del cols[c][r]
    return rows, cols, units, steps


def sparse_snf(columns, row_count: int) -> SnfResult:
    """Smith normal form of a sparse integer matrix, without transforms.

    columns: any iterable of sparse columns, read once; column j maps a row
    index in 0..row_count-1 to its entry, absent and zero entries zero; a
    row index outside that range or an entry that is not an integer raises
    ValueError, checked in the order and words of _eliminate_units.

    First a spanning forest F is contracted.  Read the rows with exactly
    two nonzero entries, both +-1, as edges of a graph on the columns (for
    simplicial's d_2 on cotree rows, the dual graph).  A signed union-find
    puts such a row (j, a), (k, b) in F when it joins two components: one
    root goes under the other so that sigma_k = -sigma_j * a * b, where
    sigma_c is column c's sign relative to its root.  Every other row stays,
    and each of its entries v in column c is added as sigma_c * v to c's
    root column; zero sums are dropped, and so are the rows left empty.

    |F| ones and the remainder's diagonal make the Smith diagonal, padded
    with zeros to min(rows, columns).  Replacing each root column by
    sum(sigma_c * col_c) over its component is a unimodular column
    operation, and it zeroes every F row there, since the row's two terms
    sigma_j * a + sigma_k * b cancel.  The block of the F rows and the
    non-root columns is then the reduced signed incidence matrix of a
    forest: square, and triangular with +-1 on the diagonal when its rows
    and columns are taken leaf by leaf, so unimodular.  Row operations by
    the F rows therefore clear the other rows' non-root entries without
    touching the root columns, and the matrix is equivalent to 1^|F| (+)
    the remainder.  The Smith diagonal is unique, so this route gives the
    one that eliminating the whole matrix gives.

    The remainder's unit pivots go through _eliminate_units; each leaves a
    1 on the diagonal.  The dense remainder that no unit reaches goes to
    _smith_diagonal.  presentation.abelian_images shares the elimination,
    on its whole matrix, and also reads its images off echelon's kernel of
    the remainder.
    """
    rows: list[dict[int, int]] = [{} for _ in range(row_count)]
    width = 0
    for column in columns:
        for i, v in column.items():
            if not 0 <= i < row_count:
                raise ValueError(f"row index {i} outside 0..{row_count - 1}")
            if v:
                if (n := int(v)) != v:
                    raise ValueError(f"entry {v!r} at row {i}, column {width} is not an integer")
                rows[i][width] = n
        width += 1

    parent = list(range(width))
    sign = [1] * width  # relative to the parent; a root's is 1

    def find(c: int) -> tuple[int, int]:
        """c's root and c's sign relative to it, halving the path."""
        s = 1
        while (p := parent[c]) != c:
            sign[c] *= sign[p]
            parent[c] = g = parent[p]
            s *= sign[c]
            c = g
        return c, s

    forest = 0
    kept = []
    for row in rows:
        if len(row) == 2:
            (j, a), (k, b) = row.items()
            if abs(a) == abs(b) == 1:
                (rj, sj), (rk, sk) = find(j), find(k)
                if rj != rk:
                    parent[rk] = rj
                    sign[rk] = -sj * a * b * sk
                    forest += 1
                    continue
        if row:
            kept.append(row)

    remainder: dict[int, dict[int, int]] = {}
    count = 0
    for row in kept:
        sums: dict[int, int] = {}
        for c, v in row.items():
            root, s = find(c)
            sums[root] = sums.get(root, 0) + s * v
        for root, v in sums.items():
            if v:
                remainder.setdefault(root, {})[count] = v
        count += any(sums.values())

    rows, cols, units, _ = _eliminate_units(remainder.values(), count)
    live_cols = [j for j, col in enumerate(cols) if col]
    rest = [[row.get(j, 0) for j in live_cols] for row in rows if row]
    nonzero = (1,) * (forest + units) + _smith_diagonal(rest)
    limit = min(row_count, width)
    return SnfResult(diagonal=nonzero + (0,) * (limit - len(nonzero)),
                     rank=len(nonzero))


def _smith_diagonal(rows) -> tuple[int, ...]:
    """The nonzero Smith invariants of a dense integer matrix, d_1 | d_2 | ...

    echelon of the rows, then of the transposed basis, and so on, until
    every basis row has one nonzero entry (Kannan & Bachem 1979).  Each
    pass is unimodular up to dropping zero rows, so the nonzero invariants
    stay the same.  Each pass also either strictly shrinks the top-left
    pivot p, or clears its row and column for good.  After a pass, p is the
    gcd of the first column and the rest of that column is zero, so the
    next pass's pivot is the gcd of the first row and divides p.  If it
    equals p, then p divides the whole first row.  echelon's Euclid then
    takes the row (p, 0, .., 0) as pivot, because it is the first of least
    absolute value, and the exact quotients clear the column without
    touching the other columns.  From then on echelon never moves that row,
    and the other rows are an echelon of the submatrix.  A pivot that
    shrinks at least halves, so the passes end.  The diagonal that is left
    goes into divisibility order by gcd and lcm, pair by pair.
    """
    basis = echelon(rows)[0]
    while any(sum(1 for v in row if v) > 1 for row in basis):
        basis = echelon(list(zip(*basis)))[0]
    diagonal = [next(v for v in row if v) for row in basis]
    for i in range(len(diagonal)):
        for j in range(i + 1, len(diagonal)):
            a, b = diagonal[i], diagonal[j]
            g = gcd(a, b)
            diagonal[i], diagonal[j] = g, a // g * b
    return tuple(diagonal)


def rank_of_rows(rows) -> int:
    """Rank over Q of a matrix given by rows: the count of echelon's basis rows."""
    return len(echelon(rows)[0])


def echelon(rows):
    """Integer row echelon form by Euclid down each column, with its transform.

    In each column the rows that are not pivot rows yet and are nonzero
    there are reduced by the one of least absolute value until one is left:
    the pivot row, its pivot made positive.  Each row carries its
    combination of the input rows as a sparse dict {input index: coefficient}.

    Returns (basis, combos, kernel).  basis holds the nonzero echelon rows as
    tuples, each pivot in a column past the previous one and above zeros; it
    is a basis of the lattice the rows span.  combos[k] gives basis[k] as a
    combination of the rows.  kernel holds the combinations of the rows that
    reduced to zero, in input order.  The steps are unimodular, so all the
    combinations form a unimodular matrix, and kernel is a saturated basis of
    the integer left kernel (its rational span meets Z^m in its integer span).
    """
    work = [list(row) for row in rows]
    width = len(work[0]) if work else 0
    if any(len(row) != width for row in work):
        raise ValueError("ragged matrix")
    combos = [{i: 1} for i in range(len(work))]
    free = list(range(len(work)))  # the rows that are not pivot rows yet
    basis, basis_combos = [], []
    for c in range(width):
        live = [i for i in free if work[i][c]]
        while len(live) > 1:
            p = min(live, key=lambda i: abs(work[i][c]))
            pivot = [(j, work[p][j]) for j in range(c, width) if work[p][j]]
            for i in live:
                if i == p:
                    continue
                # row i -= q * row p leaves a remainder smaller than the pivot.
                q = work[i][c] // work[p][c]
                for j, v in pivot:
                    work[i][j] -= q * v
                for k, v in combos[p].items():
                    w = combos[i].get(k, 0) - q * v
                    if w:
                        combos[i][k] = w
                    else:
                        del combos[i][k]
            live = [i for i in live if work[i][c]]
        if live:
            p = live[0]
            sign = 1 if work[p][c] > 0 else -1
            basis.append(tuple(sign * v for v in work[p]))
            basis_combos.append({k: sign * v for k, v in combos[p].items()})
            free.remove(p)
    return basis, basis_combos, [combos[i] for i in free]


def coordinates(vector, basis) -> list[int] | None:
    """The integer coefficients of vector in an echelon basis, or None.

    basis is echelon's first result.  Back-substitution takes the pivots in
    order and divides exactly; a remainder, or an entry left over at the
    end, means the vector is not in the lattice the basis spans.
    """
    rest = list(vector)
    coeffs = []
    for row in basis:
        c = next(j for j, v in enumerate(row) if v)
        q, r = divmod(rest[c], row[c])
        if r:
            return None
        if q:
            for j in range(c, len(rest)):
                rest[j] -= q * row[j]
        coeffs.append(q)
    return None if any(rest) else coeffs


def plane_key(rows) -> tuple[tuple[int, int, int], ...]:
    """Canonical key of the plane that integer vectors span, and the rank test.

    The key is the Pluecker vector p = u ^ v = (u_i v_j - u_j v_i for i < j)
    of the first nonzero row u and the first row v not parallel to it,
    scaled by primitive_direction.  Another spanning pair of the same plane
    has a Pluecker vector that is a nonzero multiple of p, and a different
    plane has one that is not, so equal planes give equal keys and different
    planes different ones.  Every other row w lies in the plane exactly when
    u ^ w is zero or a multiple of p, which cross-multiplication against one
    nonzero entry of p decides without a gcd.  Raises ValueError unless the
    rows span exactly a plane, that is rank two over Q.

    The key holds only the nonzero entries of p, as (i, j, x) triples in
    (i, j) order, with i < j original coordinates and x != 0.  Only the
    coordinates where some row is nonzero enter the products, since the
    other entries of p are zero; the list of used-coordinate pairs is built
    once, and every product and the key read it.
    """
    rows = [tuple(r) for r in rows]
    used = [i for i, column in enumerate(zip(*rows)) if any(column)]
    rows = [[r[i] for i in used] for r in rows if any(r)]
    if rows:
        u = rows[0]
        s = len(used)
        pairs = [(i, j) for i in range(s) for j in range(i + 1, s)]
        p = None
        for w in rows[1:]:
            q = [u[i] * w[j] - u[j] * w[i] for i, j in pairs]
            if p is None:
                if any(q):
                    p = q
                    k = next(i for i, x in enumerate(p) if x)
                    pk = p[k]
            elif any(x * pk != y * q[k] for x, y in zip(q, p)):
                raise ValueError("the rows span more than a plane")
        if p is not None:
            return tuple((used[i], used[j], x) for (i, j), x
                         in zip(pairs, primitive_direction(p)) if x)
    raise ValueError("no two of the rows are linearly independent")
