"""Exact integer linear algebra: Smith normal form, ranks, lattice bases.

Everything here works with arbitrary-precision Python integers; there is no
floating point.  Matrices are plain lists of lists (rows), except for
sparse_snf, which takes sparse columns.  Which routine serves which caller:

- _eliminate_units takes out the unit pivots of a sparse matrix in
  Markowitz order.  sparse_snf runs it for homology (simplicial) and the
  pipeline's rank checks, presentation.abelian_images to log each
  eliminated generator; both hand what is left to smith_normal_form.
- smith_normal_form gives the Smith diagonal only; it keeps no transform.
- echelon's kernel is the one saturated integer left kernel: it gives
  presentation.abelian_images the images of the generators that
  elimination leaves, and replace_subspace its projection and saturated
  basis.  echelon and coordinates also give replace_sparse a basis and
  each member's coordinates, and replace_subspace the basis's words.
- plane_key is the one rank-two test and plane key: presentation's
  AbelianMap.plane (for minimize and relation_planes) and sg.sg_reduce
  call it alone.
- rank_of_rows gives ranks over Q: presentation.subset_dimension (which
  also names the dimension in minimize's and relation_planes' errors) and
  sg's span dimensions.
- primitive_direction keys lines for presentation.minimize and sg.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
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
    """

    diagonal: tuple[int, ...]
    rank: int

    @property
    def torsion(self) -> tuple[int, ...]:
        return tuple(d for d in self.diagonal if d > 1)


def smith_normal_form(matrix) -> SnfResult:
    """Smith normal form over Z, without transforms.

    Pivots are chosen with minimal absolute value (ties broken by least
    expected fill-in) to limit coefficient growth; the divisibility sweep
    guarantees d_i | d_{i+1} directly.  The matrix is held sparsely, so
    boundary matrices of desk-scale complexes diagonalize quickly.
    """
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    for row in matrix:
        if len(row) != n:
            raise ValueError("ragged matrix")

    rows: list[dict[int, int]] = []
    cols: list[set[int]] = [set() for _ in range(n)]
    for i, row in enumerate(matrix):
        entries = {j: int(v) for j, v in enumerate(row) if v}
        rows.append(entries)
        for j in entries:
            cols[j].add(i)

    def set_entry(i, j, v):
        row = rows[i]
        if v:
            if j not in row:
                cols[j].add(i)
            row[j] = v
        elif j in row:
            del row[j]
            cols[j].discard(i)

    def add_row(dst, src, q):
        # row dst += q * row src
        for j, v in list(rows[src].items()):
            set_entry(dst, j, rows[dst].get(j, 0) + q * v)

    def add_col(dst, src, q):
        # col dst += q * col src
        for i in list(cols[src]):
            set_entry(i, dst, rows[i].get(dst, 0) + q * rows[i][src])

    def swap_rows(i, j):
        if i == j:
            return
        touched = set(rows[i]) | set(rows[j])
        rows[i], rows[j] = rows[j], rows[i]
        for c in touched:
            if c in rows[i]:
                cols[c].add(i)
            else:
                cols[c].discard(i)
            if c in rows[j]:
                cols[c].add(j)
            else:
                cols[c].discard(j)

    def swap_cols(i, j):
        if i == j:
            return
        for r in list(cols[i] | cols[j]):
            vi = rows[r].get(i, 0)
            vj = rows[r].get(j, 0)
            set_entry(r, i, vj)
            set_entry(r, j, vi)

    def negate_row(i):
        for j in list(rows[i]):
            rows[i][j] = -rows[i][j]

    def select_pivot(k):
        best_key = None
        best = None
        for i in range(k, m):
            nr = len(rows[i])
            for j, v in rows[i].items():
                if j < k:
                    continue
                key = (abs(v), (nr - 1) * (len(cols[j]) - 1))
                if best_key is None or key < best_key:
                    best_key = key
                    best = (i, j)
                    if key == (1, 0):
                        return best
        return best

    k = 0
    limit = min(m, n)
    while k < limit:
        pivot = select_pivot(k)
        if pivot is None:
            break
        swap_rows(k, pivot[0])
        swap_cols(k, pivot[1])
        if rows[k][k] < 0:
            negate_row(k)

        while True:
            p = rows[k][k]
            # Clear column k with row operations.
            dirty = False
            for i in sorted(cols[k]):
                if i == k:
                    continue
                v = rows[i][k]
                q = v // p
                if q:
                    add_row(i, k, -q)
                if rows[i].get(k):
                    # Remainder in (0, p) becomes the new, smaller pivot.
                    swap_rows(k, i)
                    dirty = True
                    break
            if dirty:
                continue
            # Column k is now e_k; clearing row k only touches row k.
            for j in sorted(rows[k]):
                if j == k:
                    continue
                v = rows[k][j]
                q = v // p
                if q:
                    add_col(j, k, -q)
                if rows[k].get(j):
                    swap_cols(k, j)
                    dirty = True
                    break
            if dirty:
                continue
            # Pivot must divide everything that remains.
            if p != 1:
                bad = None
                for i in range(k + 1, m):
                    for j, v in rows[i].items():
                        if v % p:
                            bad = i
                            break
                    if bad is not None:
                        break
                if bad is not None:
                    add_row(k, bad, 1)
                    continue
            break
        k += 1

    diagonal = tuple(rows[i].get(i, 0) for i in range(limit))
    assert all(d >= 0 for d in diagonal)
    return SnfResult(diagonal=diagonal, rank=k)


def _eliminate_units(columns, row_count: int, record: bool = False):
    """Eliminate the +-1 pivots of a sparse integer matrix in Markowitz order.

    columns[j] maps a row index in 0..row_count-1 to the entry of column j;
    absent and zero entries are zero.  Every +-1 entry is a candidate pivot,
    taken cheapest first by its Markowitz cost (row count - 1) * (column
    count - 1).  A lazy heap holds the candidates: a popped cost that has
    since grown is pushed back with its current value, and entries that
    fill in as +-1 are pushed as they appear.  Eliminating a unit pivot p at
    (i, j) takes row i and column j out and leaves the Schur complement
    a_rc - a_rj * p * a_ic on the rest (Dumas, Saunders & Villard 2001).

    Returns (rows, cols, units, steps): the remainder as sparse rows and
    columns (eliminated ones empty), the number of pivots, and, when
    record is set, one (i, p, column) per pivot in elimination order, where
    column holds column j's entries at that moment, row i's included.  Read
    with the columns as relations on the row generators e_r, a step says
    e_i = -p * sum(a_kj * e_k for k != i) modulo the relations left.
    sparse_snf and presentation.abelian_images share this core; only the
    latter records.
    """
    cols: list[dict[int, int]] = []
    rows: list[dict[int, int]] = [{} for _ in range(row_count)]
    for j, column in enumerate(columns):
        col = {}
        for i, v in column.items():
            if not 0 <= i < row_count:
                raise ValueError(f"row index {i} outside 0..{row_count - 1}")
            if v:
                col[i] = rows[i][j] = int(v)
        cols.append(col)

    heap = [((len(rows[i]) - 1) * (len(col) - 1), i, j)
            for j, col in enumerate(cols) for i, v in col.items()
            if v == 1 or v == -1]
    heapify(heap)
    units = 0
    steps = [] if record else None
    while heap:
        cost, i, j = heappop(heap)
        pivot_row = rows[i]
        p = pivot_row.get(j)
        if p != 1 and p != -1:
            continue  # eliminated or changed since it was pushed
        pivot_col = cols[j]
        now = (len(pivot_row) - 1) * (len(pivot_col) - 1)
        if now > cost:
            heappush(heap, (now, i, j))
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
                        heappush(heap, ((len(row) - 1) * (len(cols[c]) - 1), r, c))
                elif c in row:
                    del row[c]
                    del cols[c][r]
    return rows, cols, units, steps


def sparse_snf(columns, row_count: int) -> SnfResult:
    """Smith normal form of a sparse integer matrix, without transforms.

    columns[j] maps a row index in 0..row_count-1 to the entry of column j;
    absent and zero entries are zero.  The result equals
    smith_normal_form(dense).diagonal and .rank, because the Smith diagonal
    is unique.

    The unit pivots go first, through _eliminate_units; each leaves a 1 on
    the diagonal.  Once no unit is left, smith_normal_form diagonalizes the
    dense remainder, if there is one.  presentation.abelian_images shares
    both steps and also reads its images off echelon's kernel of the
    remainder.
    """
    rows, cols, units, _ = _eliminate_units(columns, row_count)
    live_cols = [j for j, col in enumerate(cols) if col]
    rest = [[row.get(j, 0) for j in live_cols] for row in rows if row]
    nonzero = (1,) * units
    if rest:
        remainder = smith_normal_form(rest)
        nonzero += remainder.diagonal[:remainder.rank]
    limit = min(row_count, len(cols))
    return SnfResult(diagonal=nonzero + (0,) * (limit - len(nonzero)),
                     rank=len(nonzero))


def rank_of_rows(rows) -> int:
    """Rank over Q of a matrix given by rows of ints or Fractions.

    Rows are copied, a row holding a Fraction is scaled to integers (scaling
    does not change rank), and the copy is reduced by fraction-free Bareiss
    elimination.
    """
    a = []
    for row in rows:
        row = list(row)
        if not all(type(x) is int for x in row):
            denom = 1
            for x in row:
                if isinstance(x, Fraction):
                    denom = denom * x.denominator // gcd(denom, x.denominator)
            row = [int(x * denom) for x in row]
        a.append(row)
    m = len(a)
    n = len(a[0]) if m else 0
    rank = 0
    prev = 1
    for col in range(n):
        pivot_row = None
        for i in range(rank, m):
            if a[i][col]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        a[rank], a[pivot_row] = a[pivot_row], a[rank]
        for i in range(rank + 1, m):
            for j in range(col + 1, n):
                a[i][j] = (a[i][j] * a[rank][col] - a[i][col] * a[rank][j]) // prev
            a[i][col] = 0
        prev = a[rank][col]
        rank += 1
        if rank == m:
            break
    return rank


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


def plane_key(rows) -> tuple[int, ...]:
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

    Only the coordinates where some row is nonzero enter the products; the
    other entries of p are zero and are filled in at the end.
    """
    rows = [tuple(r) for r in rows]
    n = len(rows[0]) if rows else 0
    used = [i for i, column in enumerate(zip(*rows)) if any(column)]
    rows = [[r[i] for i in used] for r in rows if any(r)]
    if rows:
        u = rows[0]
        s = len(used)
        p = None
        for w in rows[1:]:
            q = [u[i] * w[j] - u[j] * w[i] for i in range(s) for j in range(i + 1, s)]
            if p is None:
                if any(q):
                    p = q
                    k = next(i for i, x in enumerate(p) if x)
                    pk = p[k]
            elif any(x * pk != y * q[k] for x, y in zip(q, p)):
                raise ValueError("the rows span more than a plane")
        if p is not None:
            p = primitive_direction(p)
            if s == n:
                return p
            key = [0] * (n * (n - 1) // 2)
            pairs = ((i, j) for a, i in enumerate(used) for j in used[a + 1:])
            for (i, j), x in zip(pairs, p):
                key[i * (2 * n - i - 1) // 2 + j - i - 1] = x
            return tuple(key)
    raise ValueError("no two of the rows are linearly independent")
