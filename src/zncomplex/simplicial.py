"""Simplicial complexes on integer vertex ids, spur collapses, homology.

A complex stores every face explicitly (the complexes here are 2-dimensional
and small) as strictly increasing vertex tuples.  All operations are pure;
nothing mutates a complex in place.

is_spur and collapse_spurs decide a spur in one pass over its members'
neighbor sets; only a set that fails is scanned pair by pair, to word it.
collapse_spurs identifies a whole sequence of spurs in one pass: it builds
one mutable neighbor map of the quotient straight from the start complex's
edges, checks each spur against it with the rules of is_spur, drops it after
the last merge, then compacts the ids in a list indexed by original vertex
and builds the quotient's face set once.  collapse_spur is its one-spur case.

Every complex keeps one face index, built on first use: its faces bucketed
by dimension, each bucket sorted once; faces_of_dim, face_counts, dim,
validate, the adjacency and the boundary maps all read it.

homology_through reduces each boundary map d_k once; homology(k) is its last
entry.  Each complex finds one spanning forest F of its graph, by union-find.
d_1 is totally unimodular, so its Smith form is read off F.  d_2 is reduced
by intlinalg.sparse_snf on the edges outside F only: that projection maps
ker d_1, and so im d_2, isomorphically, which keeps rank d_2 and H_1.  On
those rows, an edge in exactly two triangles is a row with two +-1 entries,
an edge of the dual graph on the triangles, and sparse_snf contracts a
spanning forest of that graph before any elimination.  So the primal forest
takes d_1 and the dual forest takes d_2, on W_m and X_m all of its rank
(the tree-cotree decomposition, Eppstein 2003).  d_k for k >= 3 is reduced
on every row.  Each k-face writes its signs into its facets' sparse rows;
boundary_matrix is the dense read of the full map.

compatible_spurs checks a whole spur collection for pairwise compatibility
in one scan of the members' neighbors.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations, islice
from operator import itemgetter, lt
from typing import AbstractSet, Iterable, Mapping

from .errors import InvalidComplexError, ScxFormatError, SpurError
from .intlinalg import SnfResult, sparse_snf
from .report import Report

Face = tuple[int, ...]


@dataclass(frozen=True)
class SimplicialComplex:
    """Downward-closed face set over vertices 0..vertex_count-1."""

    faces: frozenset[Face]
    vertex_count: int

    def faces_of_dim(self, k: int) -> tuple[Face, ...]:
        """The k-faces in lexicographic order; empty outside 0..dim."""
        return self._by_dim[k] if 0 <= k < len(self._by_dim) else ()

    @property
    def dim(self) -> int:
        return len(self._by_dim) - 1

    def face_counts(self) -> list[int]:
        return [len(faces) for faces in self._by_dim]

    @cached_property
    def _by_dim(self) -> tuple[tuple[Face, ...], ...]:
        """The face index: the sorted k-faces at position k, for k = 0..dim.

        Faces are bucketed by length and each bucket is sorted once per
        complex.  A stored empty face is left out; validate reports it.
        """
        buckets: dict[int, list[Face]] = {}
        for f in self.faces:
            buckets.setdefault(len(f), []).append(f)
        return tuple(tuple(sorted(buckets.get(size, ())))
                     for size in range(1, max(buckets, default=0) + 1))

    def neighbors(self, v: int) -> frozenset[int]:
        return self._adjacency.get(v, frozenset())

    @cached_property
    def _adjacency(self) -> dict[int, frozenset[int]]:
        """Vertex -> neighbor set, read off the edge bucket once per complex."""
        return {v: frozenset(s) for v, s in _neighbor_sets(self.faces_of_dim(1)).items()}

    @cached_property
    def _cotree(self) -> tuple[Face, ...]:
        """The edges outside one spanning forest F of the graph, in order.

        Union-find over the sorted edges puts an edge in F when it joins two
        components, so V - len(F) is the number of components.  Each edge
        outside F closes one cycle with F.  Needs a valid complex.
        """
        root = list(range(self.vertex_count))

        def find(v: int) -> int:
            while root[v] != v:
                root[v] = v = root[root[v]]
            return v

        cotree = []
        for edge in self.faces_of_dim(1):
            ra, rb = find(edge[0]), find(edge[1])
            if ra == rb:
                cotree.append(edge)
            else:
                root[ra] = rb
        return tuple(cotree)

    @cached_property
    def _validation(self) -> Report:
        """validate's report, from one _scan per complex."""
        return _scan(self)


def _neighbor_sets(faces: Iterable[Face]) -> dict[int, set[int]]:
    """Vertex -> mutable neighbor set, read off the edges among the faces."""
    out: dict[int, set[int]] = {}
    for f in faces:
        if len(f) == 2:
            a, b = f
            out.setdefault(a, set()).add(b)
            out.setdefault(b, set()).add(a)
    return out


def closure_of(faces: Iterable[Iterable[int]]) -> frozenset[Face]:
    """All nonempty subsets of the given faces, as sorted tuples.

    One generator over every face's subsets feeds the frozenset, so no
    intermediate set is built.
    """
    vertex_tuples = (tuple(sorted(set(face))) for face in faces)
    return frozenset(sub for vs in vertex_tuples
                     for k in range(1, len(vs) + 1)
                     for sub in combinations(vs, k))


def from_maximal_faces(maximal: Iterable[Iterable[int]],
                       vertex_count: int | None = None) -> SimplicialComplex:
    faces = closure_of(maximal)
    if vertex_count is None:
        vertex_count = max((f[-1] for f in faces), default=-1) + 1
    return SimplicialComplex(faces=faces, vertex_count=vertex_count)


def maximal_faces(complex_: SimplicialComplex) -> list[Face]:
    """Faces not strictly contained in another face, in lexicographic order.

    Every proper subset of every face is marked, so the cost is O(F * 2^d)
    for F faces of at most d + 1 vertices; the stored face set need not be
    downward-closed.
    """
    contained: set[Face] = set()
    for f in complex_.faces:
        for k in range(len(f)):
            contained.update(combinations(f, k))
    return sorted(f for f in complex_.faces if f not in contained)


UNCOVERED_NAMED = 10
MAX_FACE_VERTICES = 16  # per .scx face line; its closure has 2^k - 1 faces
# Per .scx file: the sum of 2^k - 1 over its face lines of k vertices, which
# bounds the size of the closure.  W_100 and X_100, the largest complexes
# the CLI writes, each sum to 485,100.
MAX_SCX_CLOSURE = 1 << 20


def validate(complex_: SimplicialComplex) -> Report:
    """Check the downward-closure, labeling and coverage invariants.

    _scan decides validity over the face index.  Only a complex that fails
    is scanned face by face, in set order; the (face, message) records of
    its violations are sorted stably, so they come in face order.  At most
    UNCOVERED_NAMED vertices in no face are named and the rest counted, so
    the scan of vertex ids ends UNCOVERED_NAMED past the covered ones,
    whatever the vertex count.  validate and require_valid share one report.
    """
    return complex_._validation


def _scan(complex_: SimplicialComplex) -> Report:
    """validate's report, decided in C-level passes over the face index.

    Valid means: no empty face, the 0-faces are (0,) .. (count - 1,) (their
    number checked first), and each k-face increases and has its k + 1 facets
    stored; these reach down to stored vertices, so range and coverage hold.
    """
    faces, vertices = complex_.faces, complex_.faces_of_dim(0)
    if (() not in faces and len(vertices) == complex_.vertex_count
            and vertices == tuple(zip(range(len(vertices))))
            and all(all(map(lt, map(itemgetter(i), bucket), map(itemgetter(i + 1), bucket)))
                    for k, bucket in enumerate(complex_._by_dim) for i in range(k))
            and all(faces.issuperset(zip(*(map(itemgetter(t), bucket) for t in kept)))
                    for k, bucket in enumerate(complex_._by_dim)
                    for kept in combinations(range(k + 1), k))):
        return Report(True)
    return _word_violations(complex_)


def _word_violations(complex_: SimplicialComplex) -> Report:
    """validate's violations, from a scan of the faces and vertex ids."""
    faces = complex_.faces
    found: list[tuple[Face, str]] = []
    covered = set()
    for f in faces:
        if len(f) == 0:
            found.append((f, "empty face stored"))
            continue
        if any(f[i] >= f[i + 1] for i in range(len(f) - 1)):
            found.append((f, f"face {f} is not strictly increasing"))
            continue
        if f[0] < 0 or f[-1] >= complex_.vertex_count:
            found.append((f, f"face {f} uses a vertex outside "
                             f"0..{complex_.vertex_count - 1}"))
        covered.update(f)
        if len(f) > 1:
            for sub in combinations(f, len(f) - 1):
                if sub not in faces:
                    found.append((f, f"missing subset {sub} of face {f}"))
    found.sort(key=lambda record: record[0])
    violations = [message for _, message in found]
    count = complex_.vertex_count
    uncovered = count - sum(1 for v in covered if 0 <= v < count)
    named = islice((v for v in range(count) if v not in covered), UNCOVERED_NAMED)
    violations.extend(f"vertex {v} appears in no face" for v in named)
    if uncovered > UNCOVERED_NAMED:
        violations.append(f"... and {uncovered - UNCOVERED_NAMED} more vertices "
                          f"appear in no face")
    return Report.of(violations)


def require_valid(complex_: SimplicialComplex) -> None:
    report = validate(complex_)
    if not report:
        raise InvalidComplexError(report)


def _boundary_rows(complex_: SimplicialComplex, k: int,
                   kept: Iterable[Face] | None = None
                   ) -> tuple[list[dict[int, int]], int]:
    """The boundary map from k-chains to (k-1)-chains, as sparse rows.

    Returns (rows, width).  Rows are indexed by kept, the (k-1)-faces to
    keep (all of them, sorted, by default), columns by the width sorted
    k-faces; row i maps each k-face j that has kept face i as a facet to
    the usual alternating sign on sorted vertex tuples, so dropped rows
    project the map.  One pass over the k-faces writes each kept facet's
    sign straight into its row.  combinations(f, k) drops f's last vertex
    first, so the signs run (-1)^k .. (-1)^0.  For k <= 0 there are no
    (k-1)-faces, so the map is zero and has no rows.
    """
    upper = complex_.faces_of_dim(k)
    if kept is None:
        kept = complex_.faces_of_dim(k - 1)
    rows: list[dict[int, int]] = [{} for _ in kept]
    row_of = dict(zip(kept, rows))
    signs = [(-1) ** drop for drop in range(k, -1, -1)]
    for j, f in enumerate(upper):
        for facet, sign in zip(combinations(f, k), signs):
            if (row := row_of.get(facet)) is not None:
                row[j] = sign
    return rows, len(upper)


def boundary_matrix(complex_: SimplicialComplex, k: int) -> list[list[int]]:
    """Matrix of the boundary map from k-chains to (k-1)-chains.

    The dense read of _boundary_rows(complex_, k): rows are indexed by the
    sorted (k-1)-faces, columns by the sorted k-faces.  For k = 0 the map
    is zero (a 0 x n matrix).
    """
    rows, width = _boundary_rows(complex_, k)
    return [[row.get(j, 0) for j in range(width)] for row in rows]


@dataclass(frozen=True)
class Homology:
    betti: int
    torsion: tuple[int, ...] = ()


def _reduce_boundary(complex_: SimplicialComplex, k: int) -> SnfResult:
    """A Smith form with the rank and the torsion of d_k, on a valid complex.

    d_k for k <= 0 or k > dim has no rows or no columns, so its Smith form
    is empty and nothing is built.  F is the complex's spanning forest.
    d_1, the signed incidence matrix of the graph, is totally unimodular, so
    its rank is the edge count of F and every nonzero invariant is 1.
    sparse_snf reduces d_2 on the rows of the edges outside F, the only rows
    _boundary_rows builds for it, that is p d_2 for the projection p onto
    them.  An edge e outside F closes one cycle with F, with coefficient
    +-1 on e and 0 on the other edges outside F.  These cycles are a basis
    of ker d_1, so p maps ker d_1, a direct summand that holds im d_2,
    isomorphically onto its image.  Hence p d_2 has the
    nonzero invariants of d_2 and its cokernel is H_1, torsion included;
    only the trailing zeros differ.  The rows of p d_2 with two +-1 entries
    are the edges outside F that lie in two triangles: the dual graph's
    edges.  sparse_snf contracts a spanning forest of them, so the primal
    forest F takes d_1 and the dual forest takes d_2, up to what no forest
    reaches (on W_m and X_m, m rows whose entries all cancel).  d_k for
    k >= 3 is built on every row.
    """
    if k <= 0 or k > complex_.dim:
        return SnfResult((), 0)
    if k != 1:
        kept = complex_._cotree if k == 2 else None
        return sparse_snf(*_boundary_rows(complex_, k, kept))
    vertices, edges = complex_.faces_of_dim(0), complex_.faces_of_dim(1)
    rank = len(edges) - len(complex_._cotree)
    zeros = min(len(vertices), len(edges)) - rank
    return SnfResult((1,) * rank + (0,) * zeros, rank)


def homology(complex_: SimplicialComplex, k: int) -> Homology:
    """H_k with integer coefficients, as (betti, torsion coefficients).

    H_k is 0 above dim, like H_dim+1, so k is capped at dim + 1.
    """
    if k < 0:
        raise ValueError("homology degree must be non-negative")
    return homology_through(complex_, min(k, complex_.dim + 1))[-1]


def homology_through(complex_: SimplicialComplex, top: int) -> list[Homology]:
    """H_0 .. H_top, reducing each boundary map d_0 .. d_top+1 once.

    H_k has betti number (k-faces) - rank d_k - rank d_k+1 and the torsion
    of d_k+1.  d_1's rank is the edge count of the complex's one spanning
    forest F, and d_2 is reduced on the edges outside F only, which keeps
    rank d_2 and the torsion of H_1 (see _reduce_boundary).  homology(k) is
    the last entry of this list.
    """
    require_valid(complex_)
    reduced = [_reduce_boundary(complex_, k) for k in range(top + 2)]
    return [Homology(len(complex_.faces_of_dim(k)) - reduced[k].rank
                     - reduced[k + 1].rank, reduced[k + 1].torsion)
            for k in range(top + 1)]


def _spur_violations(adjacency: Mapping[int, AbstractSet[int]], u: int,
                     members: list[int]) -> list[str]:
    """is_spur's rules over a symmetric vertex -> neighbor-set map.

    members is sorted and duplicate-free; a vertex missing from the map has
    no neighbors.  A member adjacent to u has u among its neighbors, so the
    k neighbor sets meet only in u exactly when their sizes sum to
    k + |union| - 1.  With base adjacency and no member in the union, that
    decides a spur in one pass; only a failing set is scanned pair by pair.
    """
    if u in members:
        return [f"base vertex {u} is in the set"]
    none: frozenset[int] = frozenset()
    base_neighbors = adjacency.get(u, none)
    neighbor_sets = [adjacency.get(v, none) for v in members]
    union = set().union(*neighbor_sets)
    if (base_neighbors.issuperset(members) and union.isdisjoint(members)
            and sum(map(len, neighbor_sets)) == len(members) + len(union) - 1):
        return []
    violations = []
    for v in members:
        if v not in base_neighbors:
            violations.append(f"member {v} is not adjacent to base {u}")
    for v, w in combinations(members, 2):
        v_neighbors = adjacency.get(v, none)
        if w in v_neighbors:
            violations.append(f"members {v}, {w} are adjacent")
        shared = (v_neighbors & adjacency.get(w, none)) - {u}
        if shared:
            violations.append(
                f"members {v}, {w} share neighbor {min(shared)} besides {u}")
    return violations


def _require_known(complex_: SimplicialComplex, vertices: Iterable[int]) -> None:
    known = range(complex_.vertex_count)
    for v in vertices:
        if v not in known:
            raise ValueError(f"unknown vertex {v}")


def is_spur(complex_: SimplicialComplex, u: int,
            members: Iterable[int]) -> Report:
    """Spur test for a set of vertices at the base vertex u.

    The members must all be adjacent to u, pairwise non-adjacent, and must
    share no common neighbor other than u.  The empty set passes vacuously
    (it collapses to a fresh pendant vertex, see collapse_spurs).  One pass
    decides it; only a failing set is scanned pair by pair, for the messages.
    """
    members = sorted(set(members))
    _require_known(complex_, [u, *members])
    return Report.of(_spur_violations(complex_._adjacency, u, members))


def compatible_spurs(complex_: SimplicialComplex,
                     spurs: Iterable[Iterable[int]]) -> Report:
    """Are the vertex sets pairwise compatible: disjoint, at most one edge apart?

    One owner map takes each member to the indices of the sets that hold
    it, and one scan of the owned vertices' neighbors counts each cross edge
    once, under its pair (k, l) with k < l.  A vertex with two owners makes
    their pair fail, and so does a pair with two cross edges.  On failure
    the one violation names the least failing pair, the first that a scan
    of the pairs in order meets, and the witness is that pair.
    """
    owners: dict[int, list[int]] = {}
    for k, spur in enumerate(spurs):
        for v in set(spur):
            owners.setdefault(v, []).append(k)
    shared: dict[tuple[int, int], int] = {}
    cross: Counter[tuple[int, int]] = Counter()
    for v, ks in owners.items():
        for pair in combinations(ks, 2):
            shared[pair] = min(v, shared.get(pair, v))
        for w in complex_.neighbors(v):
            for l in owners.get(w, ()):
                for k in ks:
                    if k < l:
                        cross[k, l] += 1
    failing = set(shared) | {pair for pair, count in cross.items() if count > 1}
    if not failing:
        return Report(True)
    k, l = pair = min(failing)
    if pair in shared:
        message = f"spurs {k} and {l} share vertex {shared[pair]}"
    else:
        message = f"spurs {k} and {l} are joined by {cross[pair]} edges"
    return Report.of([message], pair)


def collapse_spurs(complex_: SimplicialComplex, u: int,
                   spurs: Iterable[Iterable[int]]
                   ) -> tuple[SimplicialComplex, dict[int, int]]:
    """Collapse a sequence of spurs at u, in order, in one pass.

    Each spur is given by the original ids of its members and is checked
    with is_spur's rules in the quotient it meets, that is after every
    earlier spur in the sequence has been identified (members identified
    with each other already count once), in one pass over its classes'
    neighbor sets; the first that fails is scanned pair by pair and raises
    SpurError, whose violations name each class of identified vertices by
    its smallest original id.  Identifying a nonempty spur merges its
    members' classes.  The empty spur attaches a fresh pendant vertex at u
    (the identification still introduces its one new vertex and the edge to
    u), which keeps the vertex accounting of spur partitions uniform and
    does not change the homotopy type.

    Ids are compacted once at the end: the surviving classes are numbered in
    the order of their smallest original ids, and the fresh pendant vertices
    follow, in the order of their spurs.  This is the numbering that
    collapsing the spurs one at a time and compacting after each step gives.
    A list indexed by the original vertex holds the new ids and rewrites the
    faces.  Returns the quotient and the map from each original vertex to its id.
    """
    count = complex_.vertex_count
    _require_known(complex_, [u])
    # The quotient's edges, over class ids; a spur identifies no two vertices
    # of one face, so every edge of the quotient is the image of an edge.
    adjacency = _neighbor_sets(complex_.faces)
    class_of = list(range(count))
    members_of: dict[int, list[int]] = {}
    pendants = 0
    for spur in spurs:
        members = sorted(set(spur))
        _require_known(complex_, members)
        classes = sorted({class_of[v] for v in members})
        violations = _spur_violations(adjacency, class_of[u], classes)
        if violations:
            raise SpurError(Report.of(violations))
        if not classes:
            pendants += 1
            continue
        target = classes[0]
        target_neighbors = adjacency.setdefault(target, set())
        target_members = members_of.setdefault(target, [target])
        for merged in classes[1:]:
            for x in adjacency.pop(merged, ()):
                x_neighbors = adjacency[x]
                x_neighbors.discard(merged)
                x_neighbors.add(target)
                target_neighbors.add(x)
            moved = members_of.pop(merged, [merged])
            for v in moved:
                class_of[v] = target
            target_members.extend(moved)
    del adjacency, members_of
    survivors = [v for v in range(count) if class_of[v] == v]
    compact = {v: i for i, v in enumerate(survivors)}
    image = [compact[c] for c in class_of]
    fresh = range(len(survivors), len(survivors) + pendants)
    faces = frozenset(chain(
        (tuple(sorted(map(image.__getitem__, f))) for f in complex_.faces),
        ((w,) for w in fresh), ((image[u], w) for w in fresh)))
    quotient = SimplicialComplex(faces, len(survivors) + pendants)
    return quotient, dict(enumerate(image))


def collapse_spur(complex_: SimplicialComplex, u: int,
                  members: Iterable[int]) -> tuple[SimplicialComplex, dict[int, int]]:
    """Identify one spur to a vertex; collapse_spurs with a single spur.

    The identified vertex keeps the smallest id in the set and ids are
    compacted afterwards; the empty set attaches a fresh pendant vertex.
    """
    return collapse_spurs(complex_, u, [members])


SCX_HEADER = "scx 1"


def dumps_scx(complex_: SimplicialComplex) -> str:
    """Text form: header, vertex count, one maximal face per line."""
    lines = [SCX_HEADER, f"v {complex_.vertex_count}"]
    lines.extend(" ".join(str(v) for v in f) for f in maximal_faces(complex_))
    return "\n".join(lines) + "\n"


def loads_scx(text: str) -> SimplicialComplex:
    """Parse dumps_scx's text form; malformed text raises ScxFormatError.

    A face line with more than MAX_FACE_VERTICES vertices, or face lines
    whose closures could hold more than MAX_SCX_CLOSURE faces in all, are
    rejected before the closure, which is exponential in the face size, is
    built.
    """
    lines = text.splitlines()
    if not lines or lines[0].strip() != SCX_HEADER:
        raise ScxFormatError("missing 'scx 1' header")
    if len(lines) < 2 or not lines[1].startswith("v "):
        raise ScxFormatError("missing vertex count line")
    try:
        vertex_count = int(lines[1][2:])
    except ValueError as exc:
        raise ScxFormatError(f"bad vertex count: {lines[1]!r}") from exc
    if vertex_count < 0:
        raise ScxFormatError(f"negative vertex count: {lines[1]!r}")
    maximal = []
    closure_bound = 0
    for line in lines[2:]:
        line = line.strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) > MAX_FACE_VERTICES:
            raise ScxFormatError(f"face line has {len(tokens)} vertices, more "
                                 f"than {MAX_FACE_VERTICES}")
        try:
            face = tuple(int(tok) for tok in tokens)
        except ValueError as exc:
            raise ScxFormatError(f"bad face line: {line!r}") from exc
        if list(face) != sorted(set(face)):
            raise ScxFormatError(f"face not sorted and duplicate-free: {line!r}")
        closure_bound += (1 << len(face)) - 1
        if closure_bound > MAX_SCX_CLOSURE:
            raise ScxFormatError(f"face lines close to more than "
                                 f"{MAX_SCX_CLOSURE} faces")
        maximal.append(face)
    return from_maximal_faces(maximal, vertex_count)


def write_scx(complex_: SimplicialComplex, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_scx(complex_))


def read_scx(path) -> SimplicialComplex:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_scx(fh.read())
