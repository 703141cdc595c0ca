"""Pairwise orthogonality scan, kept as an oracle for verify_orthogonal_pair.

For each matching of the first factorization it tries every pair of its
sorted edges, in order, and stops at the first two that also share a
matching of the second.
"""

from zncomplex.factorization import OrthogonalPair
from zncomplex.report import Report


def pairwise_verify(pair: OrthogonalPair) -> Report:
    second_index = {}
    for idx, matching in enumerate(pair.second.matchings):
        for edge in matching:
            second_index[edge] = idx
    for idx, matching in enumerate(pair.first.matchings):
        edges = sorted(matching)
        for i, e in enumerate(edges):
            for e2 in edges[i + 1:]:
                shared = second_index.get(e)
                if shared is not None and shared == second_index.get(e2):
                    return Report.of(
                        [f"edges {e} and {e2} share matching {idx} of the "
                         f"first and {shared} of the second"],
                        (e, e2, idx, shared))
    return Report(True)
