"""Dense abelianization, kept as an oracle for presentation.abelian_images.

This is the library's former abelianization: the dense |S| x |R| exponent
matrix and one Smith form with the left transform.  It shares no code with
the sparse unit elimination that presentation.abelian_images now uses,
except smith_normal_form itself.
"""

from zncomplex.errors import NotFreeAbelianError
from zncomplex.intlinalg import smith_normal_form
from zncomplex.presentation import AbelianMap, Presentation


def exponent_matrix(pres: Presentation) -> list[list[int]]:
    """|S| x |R| matrix of exponent sums (rows: generators, cols: relations)."""
    index = {g: i for i, g in enumerate(pres.generators)}
    matrix = [[0] * len(pres.relations) for _ in pres.generators]
    for j, rel in enumerate(pres.relations):
        for g, e in rel:
            matrix[index[g]][j] += e
    return matrix


def dense_abelian_images(pres: Presentation) -> AbelianMap:
    """The map onto the free abelianization, from the Smith form.

    With U A V = D for the exponent matrix A, the quotient of Z^{|S|} by the
    relation lattice is read off the bottom rows of U; those rows give each
    generator an image in Z^n, every relation maps to zero, and the images
    generate Z^n.  Raises NotFreeAbelianError when an invariant factor
    exceeds one.
    """
    matrix = exponent_matrix(pres)
    k = len(pres.generators)
    snf = smith_normal_form(matrix, want_left=True)
    if snf.torsion:
        raise NotFreeAbelianError(snf.torsion)
    rank = k - snf.rank
    images = {
        g: tuple(snf.left[i][idx] for i in range(snf.rank, k))
        for idx, g in enumerate(pres.generators)
    }
    return AbelianMap(rank=rank, images=images)
