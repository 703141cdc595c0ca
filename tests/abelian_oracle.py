"""Dense abelianization verdict, kept as an oracle for presentation.abelian_images.

The dense |S| x |R| exponent matrix and one textbook Smith diagonal of it
(lattice_oracle.smith_diagonal) give the rank of the free abelianization,
or its torsion.  This shares no code with the sparse unit elimination and
echelon kernel that presentation.abelian_images uses.  It gives no images:
the tests check those directly (every relation maps to zero and the images
generate Z^n).
"""

from lattice_oracle import smith_diagonal
from zncomplex.errors import NotFreeAbelianError
from zncomplex.presentation import Presentation


def exponent_matrix(pres: Presentation) -> list[list[int]]:
    """|S| x |R| matrix of exponent sums (rows: generators, cols: relations)."""
    index = {g: i for i, g in enumerate(pres.generators)}
    matrix = [[0] * len(pres.relations) for _ in pres.generators]
    for j, rel in enumerate(pres.relations):
        for g, e in rel:
            matrix[index[g]][j] += e
    return matrix


def dense_abelian_rank(pres: Presentation) -> int:
    """The rank n of the abelianization Z^n, from the dense Smith diagonal.

    The quotient of Z^{|S|} by the relation lattice is Z^(|S| - rank) plus
    the torsion.  Raises NotFreeAbelianError when an invariant factor
    exceeds one.
    """
    diagonal = smith_diagonal(exponent_matrix(pres))
    torsion = tuple(d for d in diagonal if d > 1)
    if torsion:
        raise NotFreeAbelianError(torsion)
    return len(pres.generators) - sum(1 for d in diagonal if d)
