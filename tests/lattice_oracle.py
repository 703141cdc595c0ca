"""Dense matrix products and the all-minors parallel test, as test oracles.

They share no code with intlinalg.echelon or primitive_direction, which the
library uses for the same jobs.
"""


def transpose(matrix) -> list[list[int]]:
    if not matrix:
        return []
    return [list(col) for col in zip(*matrix)]


def mat_mul(a, b) -> list[list[int]]:
    if a and b:
        assert len(a[0]) == len(b), "inner dimensions must agree"
    bt = transpose(b)
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def is_parallel(u, v) -> bool:
    """Nonzero vectors on one line through the origin (all 2x2 minors vanish)."""
    if not any(u) or not any(v):
        return False
    n = len(u)
    return all(u[i] * v[j] == u[j] * v[i] for i in range(n) for j in range(i + 1, n))
