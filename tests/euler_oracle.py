"""The Euler characteristic from face counts, a check on integer homology.

The alternating sum of the face counts equals the alternating sum of the
Betti numbers, so it checks simplicial.homology_through without sharing its
boundary reductions.
"""

from zncomplex.simplicial import SimplicialComplex, require_valid


def euler_characteristic(complex_: SimplicialComplex) -> int:
    require_valid(complex_)
    return sum((-1) ** k * c for k, c in enumerate(complex_.face_counts()))
