"""Builders for the small complexes with free-abelian first homology.

build_w(n) assembles the complex on n^2 + n + 1 vertices from one 7-vertex
torus block per index pair, listing its faces in closed form; build_spurs
partitions its two-index vertices into pairwise compatible spurs using an
orthogonal pair of 1-factorizations, each spur the frozenset of its members,
all based at u; build_x collapses all of those spurs in one pass of
simplicial.collapse_spurs, which checks each spur in the quotient left by
the ones before it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations, repeat
from operator import itemgetter

from .errors import UnsupportedSizeError
from .factorization import OrthogonalPair, orthogonal_pair
from .simplicial import SimplicialComplex, collapse_spurs

# Triangles of the 7-vertex torus block, read off its planar diagram as
# index patterns over (u, vi1, vi2, vj1, vj2, w1, w2).  Together with the
# boundary identifications these triangulate a torus: 21 edges (all pairs),
# every vertex in six triangles, every vertex link a hexagon.
_BLOCK_PATTERNS = (
    (0, 1, 5), (0, 3, 5), (1, 2, 5), (3, 5, 6), (3, 4, 1), (4, 0, 1),
    (3, 1, 6), (1, 2, 6), (2, 0, 6), (6, 4, 0), (5, 2, 4), (5, 6, 4),
    (2, 0, 3), (2, 3, 4),
)


def torus_block(u: int, vi1: int, vi2: int, vj1: int, vj2: int,
                w1: int, w2: int) -> list[tuple[int, int, int]]:
    """The 14 triangles of one torus block on the seven given labels."""
    labels = (u, vi1, vi2, vj1, vj2, w1, w2)
    if len(set(labels)) != 7:
        raise ValueError(f"labels must be distinct, got {labels}")
    return [tuple(sorted(labels[i] for i in pattern))
            for pattern in _BLOCK_PATTERNS]


# One getter per triangle of the block: it reads the triangle, already
# sorted, off the block's seven increasing labels in one C call.
_TRIANGLE_GETTERS = [itemgetter(*pattern) for pattern in torus_block(*range(7))]


@dataclass(frozen=True)
class WnLabeling:
    """Vertex ids: u first, then v(i,k) in (i,k) order, then w(i,j,k)."""

    n: int
    u: int
    v: dict[tuple[int, int], int]
    w: dict[tuple[int, int, int], int]

    def names(self) -> list[tuple[str, int]]:
        out = [("u", self.u)]
        out.extend((f"v_{i}_{k}", vid) for (i, k), vid in sorted(self.v.items()))
        out.extend((f"w_{i}_{j}_{k}", wid)
                   for (i, j, k), wid in sorted(self.w.items()))
        return out


def dumps_labeling(labeling: WnLabeling) -> str:
    return "\n".join(f"{name} {vid}" for name, vid in labeling.names()) + "\n"


def build_w(n: int) -> tuple[SimplicialComplex, WnLabeling]:
    """Complex on n^2 + n + 1 vertices with first homology Z^n.

    Vertex ids are assigned deterministically: u = 0, then the 2n rim
    vertices, then the paired block vertices in lexicographic index order.
    The faces are every vertex, each index's rim edges (u, v_i1),
    (v_i1, v_i2), (u, v_i2), and each block's 21 label pairs and 14
    triangles: the closure of the rim edges and the triangles, since these
    cover all pairs of a block's labels.  The labels increase, so each
    triangle is a sorted pattern over 0..6 read through them.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    v = {}
    next_id = 1
    for i in range(1, n + 1):
        for k in (1, 2):
            v[(i, k)] = next_id
            next_id += 1
    w = {}
    for i, j in combinations(range(1, n + 1), 2):
        for k in (1, 2):
            w[(i, j, k)] = next_id
            next_id += 1
    blocks = [(0, v[i, 1], v[i, 2], v[j, 1], v[j, 2], w[i, j, 1], w[i, j, 2])
              for i, j in combinations(range(1, n + 1), 2)]
    faces = frozenset(chain(
        ((x,) for x in range(next_id)),
        (edge for i in range(1, n + 1)
         for edge in ((0, v[i, 1]), (v[i, 1], v[i, 2]), (0, v[i, 2]))),
        chain.from_iterable(map(combinations, blocks, repeat(2))),
        *(map(getter, blocks) for getter in _TRIANGLE_GETTERS)))
    return SimplicialComplex(faces, next_id), WnLabeling(n=n, u=0, v=v, w=w)


def build_spurs(pair: OrthogonalPair,
                labeling: WnLabeling) -> list[frozenset[int]]:
    """The 4n - 2 compatible spurs at labeling.u induced by a pair on [2n].

    Matching M in factorization k yields the spur {w(i,j,k) : {i,j} in M}.
    The labeling is of the complex on 2n indices (the even case) or on
    2n - 1 (the odd case); in the odd case the members naming index 2n have
    no vertex and drop out.  In the one-index odd case (2n = 2) both spurs
    come out empty, and each collapse just adds its fresh vertex.
    """
    size = pair.first.size
    if labeling.n not in (size, size - 1):
        raise ValueError(f"labeling is for n={labeling.n}, but a pair of size "
                         f"{size} needs n={size} or n={size - 1}")
    return [frozenset(labeling.w[a, b, k] for a, b in matching
                      if (a, b, k) in labeling.w)
            for k, fact in ((1, pair.first), (2, pair.second))
            for matching in fact.matchings]


def _split_m(m: int) -> tuple[int, str]:
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if m in (3, 4, 5, 6):
        raise UnsupportedSizeError(
            f"m = {m} needs an orthogonal pair of size 4 or 6, which does not exist")
    if m % 2 == 0:
        return m // 2, "even"
    return (m + 1) // 2, "odd"


@dataclass(frozen=True)
class CollapseTrace:
    """Everything produced on the way from the block complex to the quotient."""

    m: int
    n: int
    parity: str
    start: SimplicialComplex
    labeling: WnLabeling
    spurs: list[frozenset[int]]
    result: SimplicialComplex
    vertex_map: dict[int, int]


def build_x_trace(m: int) -> CollapseTrace:
    """Collapse every spur of the orthogonal-pair partition, in order."""
    n, parity = _split_m(m)
    complex_, labeling = build_w(m)
    spurs = build_spurs(orthogonal_pair(2 * n), labeling)
    result, vertex_map = collapse_spurs(complex_, labeling.u, spurs)
    return CollapseTrace(m=m, n=n, parity=parity, start=complex_,
                         labeling=labeling, spurs=spurs,
                         result=result, vertex_map=vertex_map)


def build_x(m: int) -> SimplicialComplex:
    """The collapsed complex: 8n - 1 vertices for m = 2n, 8n - 3 for m = 2n - 1."""
    return build_x_trace(m).result
