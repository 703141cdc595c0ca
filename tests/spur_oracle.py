"""Pairwise spur compatibility, kept as an oracle for simplicial.compatible_spurs.

It tests one pair of spurs at a time: both must be spurs at u, disjoint, and
joined by at most one edge, each looked up in the face set.
"""

from zncomplex.errors import SpurError
from zncomplex.simplicial import is_spur


def are_compatible(complex_, u, first, second) -> bool:
    """Disjointness plus at-most-one cross edge, for two spurs at u."""
    first = set(first)
    second = set(second)
    for s in (first, second):
        report = is_spur(complex_, u, s)
        if not report:
            raise SpurError(report)
    if first & second:
        return False
    cross = sum(1 for v in first for w in second
                if tuple(sorted((v, w))) in complex_.faces)
    return cross <= 1
