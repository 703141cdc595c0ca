"""Rank by Fraction elimination, the textbook dense Smith diagonal, the
all-minors parallel test and a two-step plane key, as test oracles.

They share no code with intlinalg (its unit elimination, echelon,
smith_normal_form, sparse_snf, primitive_direction, rank_of_rows and
plane_key), which the library uses for the same jobs.
"""

from fractions import Fraction
from math import gcd


def is_parallel(u, v) -> bool:
    """Nonzero vectors on one line through the origin (all 2x2 minors vanish)."""
    if not any(u) or not any(v):
        return False
    n = len(u)
    return all(u[i] * v[j] == u[j] * v[i] for i in range(n) for j in range(i + 1, n))


def brute_rank(rows) -> int:
    """Rank over Q by Gauss-Jordan elimination over Fractions."""
    grid = [[Fraction(x) for x in row] for row in rows]
    r = 0
    for col in range(len(grid[0]) if grid else 0):
        pivot = next((i for i in range(r, len(grid)) if grid[i][col]), None)
        if pivot is None:
            continue
        grid[r], grid[pivot] = grid[pivot], grid[r]
        for i in range(len(grid)):
            if i != r and grid[i][col]:
                factor = grid[i][col] / grid[r][col]
                grid[i] = [a - factor * b for a, b in zip(grid[i], grid[r])]
        r += 1
    return r


def smith_diagonal(matrix) -> tuple[int, ...]:
    """The Smith diagonal of a dense matrix by the textbook algorithm.

    Take an entry of least absolute value as the corner and reduce its
    column and row by it; a remainder is smaller, so it becomes the next
    corner.  Once both are clear, a row with an entry the corner does not
    divide is added to the corner's row, which starts the reduction again.
    Then drop the corner's row and go on with the rest.  Rows are held as
    {column: entry} dicts so that zeros cost nothing.  Returns min(m, n)
    entries, zeros last.
    """
    rows = [{j: v for j, v in enumerate(row) if v} for row in matrix]
    size = min(len(matrix), len(matrix[0]) if matrix else 0)
    out = []
    while True:
        corner = None
        for i, row in enumerate(rows):
            for j, v in row.items():
                if corner is None or abs(v) < corner[0]:
                    corner = abs(v), i, j
            if corner and corner[0] == 1:
                break  # no entry is smaller
        if corner is None:
            return tuple(out) + (0,) * (size - len(out))
        _, i, j = corner
        while True:
            p = rows[i][j]
            for r, row in enumerate(rows):
                if r != i and j in row:
                    _add_row(row, rows[i], -(row[j] // p))
            r = next((r for r, row in enumerate(rows) if r != i and j in row), None)
            if r is not None:
                i = r
                continue
            # Column j is clear, so column c -= q * column j changes row i only.
            for c in list(rows[i]):
                if c != j:
                    _add_row(rows[i], {c: p}, -(rows[i][c] // p))
            c = next((c for c in rows[i] if c != j), None)
            if c is not None:
                j = c
                continue
            if abs(p) == 1:
                break
            bad = next((row for row in rows
                        if any(v % p for v in row.values())), None)
            if bad is None:
                break
            _add_row(rows[i], bad, 1)
        out.append(abs(p))
        del rows[i]


def _add_row(row, other, q):
    """row += q * other, on {column: entry} dicts."""
    for c, v in other.items():
        w = row.get(c, 0) + q * v
        if w:
            row[c] = w
        else:
            row.pop(c, None)


def plane_key(rows) -> tuple[int, ...]:
    """The plane key in two steps: check rank two, then search every pair.

    The Pluecker vector of the first independent pair in (i, j) order,
    divided by its content and signed so its first nonzero entry is
    positive.  Raises ValueError unless the rows span exactly a plane.
    """
    rows = [tuple(r) for r in rows]
    if brute_rank(rows) != 2:
        raise ValueError("the rows do not span a plane")
    for a, u in enumerate(rows):
        for v in rows[a + 1:]:
            wedge = [u[i] * v[j] - u[j] * v[i]
                     for i in range(len(u)) for j in range(i + 1, len(u))]
            if any(wedge):
                content = gcd(*wedge)
                if next(x for x in wedge if x) < 0:
                    content = -content
                return tuple(x // content for x in wedge)
