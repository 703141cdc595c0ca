"""Rank by Fraction elimination, the all-minors parallel test and a
two-step plane key, as test oracles.

They share no code with intlinalg.echelon, primitive_direction, rank_of_rows
or plane_key, which the library uses for the same jobs.
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
