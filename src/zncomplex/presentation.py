"""Group presentations whose relations use at most three generator powers.

Words are tuples of (generator, exponent) syllables.  The module provides
normal forms, presentation extraction from a complex via a spanning tree,
the abelianization map read off unit-pivot elimination of the relation
matrix, sparsity analysis of relation sets over 2-dimensional planes, and
the generator-eliminating rewrites used by the reduction pipeline.
minimize and replace_sparse return the rewritten presentation with its
abelianization map, which the next stage reads; replace_subspace, the last
rewrite, returns the presentation alone.  All of it is pure-value code over
exact integers.
"""

from __future__ import annotations

import json
import re
from collections import deque
from dataclasses import dataclass, field
from itertools import count, islice
from math import comb, gcd

from .errors import (
    NotFreeAbelianError,
    PipelineStageError,
    SparsityError,
    TooLongError,
)
from .hyperforest import PebbleGame, hyperforest_report
from .intlinalg import (
    _eliminate_units,
    coordinates,
    echelon,
    plane_key,
    primitive_direction,
    rank_of_rows,
    smith_normal_form,
)
from .report import Report
from .simplicial import SimplicialComplex, require_valid

Word = tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class Presentation:
    generators: tuple[str, ...]
    relations: tuple[Word, ...]
    # relation index -> normal-form support, filled by support(); derived,
    # so it stays out of ==, hash and repr.
    _supports: dict[int, frozenset[str]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        declared = set(self.generators)
        if len(declared) != len(self.generators):
            raise ValueError("duplicate generator names")
        for word in self.relations:
            for g, e in word:
                if g not in declared:
                    raise ValueError(f"relation uses undeclared generator {g!r}")
                if type(e) is not int or e == 0:
                    raise ValueError(f"exponent must be a nonzero integer, got {e!r}")

    def support(self, idx: int) -> frozenset[str]:
        """Generators of relation idx's normal form, normalized once per index.

        Raises TooLongError, and memoizes nothing, when that normal form
        keeps more than three syllables.
        """
        supports = self._supports
        if idx not in supports:
            supports[idx] = normalize(self.relations[idx]).support
        return supports[idx]


def word(*syllables) -> Word:
    return tuple((g, e) for g, e in syllables)


def _clean_word(syllables) -> Word:
    """Drop zero exponents and merge equal adjacent generators (not cyclic)."""
    out: list[list] = []
    for g, e in syllables:
        if not e:
            continue
        if out and out[-1][0] == g:
            out[-1][1] += e
            if out[-1][1] == 0:
                out.pop()
        else:
            out.append([g, e])
    return tuple((g, e) for g, e in out)


@dataclass(frozen=True)
class NormalForm:
    """At most three syllables with distinct generators and nonzero exponents."""

    word: Word

    @property
    def support(self) -> frozenset[str]:
        return frozenset(g for g, _ in self.word)


def normalize(syllables) -> NormalForm:
    """Rewrite a word to its conjugacy normal form.

    Zero exponents vanish, equal adjacent generators merge, and a word whose
    first and last syllables share a generator is rotated so they merge too.
    The exponent-sum vector is preserved and the result is independent of
    the order the rules fire.  Raises TooLongError if the fixpoint keeps
    more than three syllables.

    A tuple of at most three tuple syllables with distinct generators and
    nonzero exponents is already that fixpoint, so it is returned as is;
    only other words go through the rules.
    """
    if type(syllables) is tuple and len(syllables) <= 3:
        gens = {g for s in syllables if type(s) is tuple for g, e in (s,) if e}
        if len(gens) == len(syllables):
            return NormalForm(syllables)
    syl = _clean_word(syllables)
    while len(syl) >= 2 and syl[0][0] == syl[-1][0]:
        syl = _clean_word(((syl[0][0], syl[0][1] + syl[-1][1]),) + syl[1:-1])
    if len(syl) > 3:
        raise TooLongError(syl)
    assert len({g for g, _ in syl}) == len(syl)
    return NormalForm(syl)


def relation_supports(pres: Presentation) -> list[frozenset[str]]:
    return [pres.support(i) for i in range(len(pres.relations))]


# ---------------------------------------------------------------------------
# Extraction from a complex

def extract_presentation(complex_: SimplicialComplex, basepoint: int) -> Presentation:
    """Presentation of the edge-loop group read off a spanning tree.

    Restricted to the component of the basepoint.  Generators are the
    non-tree edges, oriented from smaller to larger vertex id; each triangle
    contributes one relation, reading its three directed edges in increasing
    vertex order with tree edges omitted.  Every relation therefore has at
    most three syllables with exponents +-1.
    """
    require_valid(complex_)
    if not 0 <= basepoint < complex_.vertex_count:
        raise ValueError(f"unknown basepoint {basepoint}")
    component = {basepoint}
    tree: set[tuple[int, int]] = set()
    queue = deque([basepoint])
    while queue:
        v = queue.popleft()
        for w in sorted(complex_.neighbors(v)):
            if w not in component:
                component.add(w)
                tree.add(tuple(sorted((v, w))))
                queue.append(w)

    def gen_name(edge):
        return f"e{edge[0]}_{edge[1]}"

    generators = tuple(gen_name(e) for e in complex_.faces_of_dim(1)
                       if set(e) <= component and e not in tree)
    relations = []
    for a, b, c in complex_.faces_of_dim(2):
        if not {a, b, c} <= component:
            continue
        syllables = []
        for edge, sign in (((a, b), 1), ((b, c), 1), ((a, c), -1)):
            if edge not in tree:
                syllables.append((gen_name(edge), sign))
        relations.append(tuple(syllables))
    return Presentation(generators, tuple(relations))


# ---------------------------------------------------------------------------
# Abelianization

@dataclass(frozen=True)
class AbelianMap:
    """Images of the generators in the free abelianization Z^rank."""

    rank: int
    images: dict[str, tuple[int, ...]]
    # generator set -> plane_key of its images, filled by plane(); derived,
    # so it stays out of ==, hash and repr.
    _planes: dict[frozenset[str], tuple[tuple[int, int, int], ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def vector(self, g: str) -> tuple[int, ...]:
        if g not in self.images:
            raise ValueError(f"unknown generator {g!r}")
        return self.images[g]

    def plane(self, support: frozenset[str]) -> tuple[tuple[int, int, int], ...]:
        """plane_key of the images of support, computed once per support.

        Raises ValueError, and memoizes nothing, when a generator is unknown
        or the images do not span exactly a plane.
        """
        planes = self._planes
        if support not in planes:
            planes[support] = plane_key([self.vector(g) for g in support])
        return planes[support]


def exponent_columns(pres: Presentation) -> list[dict[int, int]]:
    """The exponent matrix as sparse columns: {generator index: sum} per relation.

    The matrix is |S| x |R|: one row per generator, one column per relation.
    """
    index = {g: i for i, g in enumerate(pres.generators)}
    columns = []
    for rel in pres.relations:
        column: dict[int, int] = {}
        for g, e in rel:
            column[index[g]] = column.get(index[g], 0) + e
        columns.append(column)
    return columns


def abelian_images(pres: Presentation) -> AbelianMap:
    """The map onto the free abelianization, by sparse unit elimination.

    The abelianization is Z^{|S|} modulo the columns of the exponent matrix.
    intlinalg._eliminate_units, the core sparse_snf shares, takes out one
    generator per unit pivot and logs its substitution e_i = -p * sum(a_k
    e_k).  The generators left over are presented by the non-unit
    remainder R, which one echelon run reduces.  Its kernel, a saturated
    basis y_1..y_n of the integer left kernel, gives survivor s the image
    (y_1[s], .., y_n[s]).  Row operations keep the invariant factors, so
    smith_normal_form of its basis gives R's torsion.  On every extracted
    X_m, R has no columns, so the kernel is the identity and the images are
    unit vectors.  Back-substituting the log in reverse order, on images held
    as sparse {coordinate: value} dicts, gives the image of every
    eliminated generator; each image becomes a tuple once, at the end.
    Every relation maps to zero and the images generate Z^n.

    Raises NotFreeAbelianError when an invariant factor exceeds one.
    """
    k = len(pres.generators)
    rows, cols, _, steps = _eliminate_units(exponent_columns(pres), k, record=True)
    eliminated = {i for i, _, _ in steps}
    survivors = [i for i in range(k) if i not in eliminated]
    live = [j for j, col in enumerate(cols) if col]
    rest = [[rows[i].get(j, 0) for j in live] for i in survivors]
    basis, _, kernel = echelon(rest)
    torsion = smith_normal_form(basis).torsion
    if torsion:
        raise NotFreeAbelianError(torsion)
    rank = len(kernel)
    images: dict[int, dict[int, int]] = {i: {} for i in survivors}
    for t, y in enumerate(kernel):
        for s, v in y.items():
            images[survivors[s]][t] = v
    for i, p, column in reversed(steps):
        image: dict[int, int] = {}
        for r, a in column.items():
            if r != i:
                q = p * a
                for t, v in images[r].items():
                    image[t] = image.get(t, 0) - q * v
        images[i] = {t: v for t, v in image.items() if v}
    vectors = {}
    for idx, g in enumerate(pres.generators):
        vector = [0] * rank
        for t, v in images[idx].items():
            vector[t] = v
        vectors[g] = tuple(vector)
    return AbelianMap(rank=rank, images=vectors)


def subset_dimension(phi: AbelianMap, generators) -> int:
    """Rational rank of the images of the given generators."""
    return rank_of_rows([phi.vector(g) for g in generators])


def relations_on(pres: Presentation, rel_indices, generators) -> tuple[int, ...]:
    """Indices of the relations whose normal form uses only these generators."""
    allowed = set(generators)
    return tuple(i for i in rel_indices if pres.support(i) <= allowed)


# ---------------------------------------------------------------------------
# Generator-eliminating rewrites

def _fresh_names(generators):
    """The names t<k>, t<k+1>, ... for k one past every t<j> among generators.

    One scan of the names sets k.  No generator can take a name that
    follows, since every generator t<j> has j < k.
    """
    numbers = (re.fullmatch(r"t(\d+)", name) for name in generators)
    start = max((int(m.group(1)) + 1 for m in numbers if m), default=0)
    return (f"t{k}" for k in count(start))


def replace1(pres: Presentation, phi: AbelianMap,
             g: str) -> tuple[Presentation, AbelianMap]:
    """Drop a generator whose image is zero, deleting it from every relation."""
    image = phi.vector(g)
    if any(image):
        raise ValueError(f"image of {g!r} is not zero: {image}")
    if g not in pres.generators:
        raise ValueError(f"unknown generator {g!r}")
    generators = tuple(x for x in pres.generators if x != g)
    relations = tuple(tuple((h, e) for h, e in rel if h != g)
                      for rel in pres.relations)
    images = {h: v for h, v in phi.images.items() if h != g}
    return Presentation(generators, relations), AbelianMap(phi.rank, images)


def replace2(pres: Presentation, phi: AbelianMap, g: str, h: str,
             a: int, b: int) -> tuple[Presentation, AbelianMap]:
    """Fuse two generators with a*phi(g) + b*phi(h) = 0, gcd(a, b) = 1.

    A fresh generator i replaces them: g becomes i^b and h becomes i^-a in
    every relation.  b divides phi(g), since b*phi(h) = -a*phi(g) and a, b
    are coprime, and the new image phi(i) = phi(g) / b restores phi(g) =
    b*phi(i) and phi(h) = -a*phi(i) under the substitution.
    """
    if g == h:
        raise ValueError("generators must be distinct")
    if a == 0 or b == 0:
        raise ValueError("coefficients must be nonzero")
    if gcd(a, b) != 1:
        raise ValueError(f"gcd({a}, {b}) = {gcd(a, b)}, expected 1")
    vg, vh = phi.vector(g), phi.vector(h)
    if any(a * x + b * y for x, y in zip(vg, vh)):
        raise ValueError(f"{a}*phi({g}) + {b}*phi({h}) != 0")
    fresh = next(_fresh_names(pres.generators))
    generators = tuple(x for x in pres.generators if x not in (g, h)) + (fresh,)
    relations = []
    for rel in pres.relations:
        syllables = []
        for x, e in rel:
            if x == g:
                syllables.append((fresh, b * e))
            elif x == h:
                syllables.append((fresh, -a * e))
            else:
                syllables.append((x, e))
        relations.append(_clean_word(syllables))
    images = {x: v for x, v in phi.images.items() if x not in (g, h)}
    images[fresh] = tuple(x // b for x in vg)
    return Presentation(generators, tuple(relations)), AbelianMap(phi.rank, images)


def _coprime_dependency(u, v) -> tuple[int, int]:
    """Coprime (a, b), b < 0, with a*u + b*v = 0 for parallel nonzero integer vectors.

    (v[k], -u[k]) over gcd(u[k], v[k]) signed like u[k], at u's first nonzero k.
    On 1-tuples (x,), (y,) it is the dependency of x*d and y*d for every
    direction d whose first nonzero entry is positive, as minimize uses it.
    """
    k = next(i for i, x in enumerate(u) if x)
    g = gcd(u[k], v[k]) if u[k] > 0 else -gcd(u[k], v[k])
    return v[k] // g, -u[k] // g


def minimize(pres: Presentation, phi: AbelianMap) -> tuple[Presentation, AbelianMap]:
    """Drop the zero generators and fuse each line class, rewriting once.

    phi is the abelianization of pres, as abelian_images returns it (which
    raises NotFreeAbelianError on torsion).  A relation whose normal form
    has more than three syllables raises TooLongError; empty ones are
    stripped.  Every generator with zero image is dropped.  The others fall
    into classes by the primitive direction d of their image phi(g) =
    scale(g)*d, and each class is fused down to one generator, in the order
    of eliminating one pair at a time: the first generator in the current
    order whose class has another member is fused with the next member by
    replace2's rule for their coprime dependency, and the fresh generator
    goes last with scale(g) // b.  Each class keeps one survivor s, and g
    becomes s^(scale(g) // scale(s)), the power the fusions compose to.
    Every relation is rewritten and freely reduced once, and those that
    became trivial are stripped.  The result equals that of replace1 and
    replace2 applied one generator at a time.

    At the end every relation has a three-syllable normal form whose images
    span a plane, and the returned map holds each of those planes.  A
    relation that does not raises PipelineStageError with its index as
    witness; that happens only when phi is not the abelianization of pres.
    """
    if set(phi.images) != set(pres.generators):
        raise ValueError("phi must give an image for exactly the generators")
    line: dict[str, tuple[int, ...]] = {}  # g -> primitive direction d
    scale: dict[str, int] = {}  # g -> its multiplier: phi(g) = scale[g] * d
    for g in pres.generators:
        if any(v := phi.images[g]):
            d = line[g] = primitive_direction(v)
            top = max(d)  # positive, as d's first nonzero entry is
            scale[g] = v[d.index(top)] // top
    # Zero generators go first: a fresh name may reuse one of theirs.
    relations = [tuple((g, e) for g, e in rel if g in scale)
                 for rel in pres.relations if normalize(rel).word]
    order = list(scale)  # the current generator order; fused ones stay in it
    classes: dict[tuple, deque] = {}
    for g in order:
        classes.setdefault(line[g], deque()).append(g)
    fresh = _fresh_names(order)
    for g in order:  # runs over the fresh generators appended below, too
        members = classes[line[g]]
        if len(members) < 2 or members[0] != g:
            continue  # g is its class's survivor, or already fused
        members.popleft()
        h = members.popleft()
        _, b = _coprime_dependency((scale[g],), (scale[h],))
        i = next(fresh)
        line[i], scale[i] = line[g], scale[g] // b
        members.append(i)
        order.append(i)
    survivor = {d: members[0] for d, members in classes.items()}
    generators = tuple(g for g in order if survivor[line[g]] == g)
    out_phi = AbelianMap(phi.rank, {
        s: tuple(scale[s] * x for x in line[s]) for s in generators})
    target = {g: (survivor[d], scale[g] // scale[survivor[d]])
              for g, d in line.items()}  # g becomes s^e
    kept = []
    for rel in relations:
        syllables = tuple((target[g][0], target[g][1] * e) for g, e in rel)
        if len(generators) < len(order):
            syllables = _clean_word(syllables)
        nf = normalize(syllables)
        if not nf.word:
            continue
        idx = len(kept)
        if len(nf.word) != 3:
            raise PipelineStageError(
                "minimize", f"relation {idx} has {len(nf.word)} syllables, "
                f"not three", witness=idx)
        try:
            out_phi.plane(nf.support)
        except ValueError:
            dim = subset_dimension(out_phi, nf.support)
            raise PipelineStageError(
                "minimize", f"relation {idx} spans dimension {dim}, not two",
                witness=idx) from None
        kept.append(syllables)
    return Presentation(generators, tuple(kept)), out_phi


# ---------------------------------------------------------------------------
# Sparsity over planes

def relation_planes(pres: Presentation, phi: AbelianMap, rel_indices):
    """Group relation indices by the plane their images span.

    Every relation must have a normal form whose images span exactly a
    plane; anything else raises SparsityError with the relation's index.
    Supports come from pres.support and planes from phi.plane
    (intlinalg.plane_key), so each is computed once per presentation and
    map; subset_dimension runs only to name the dimension of a failure.
    """
    planes: dict[tuple, list[int]] = {}
    for idx in rel_indices:
        support = pres.support(idx)
        try:
            key = phi.plane(support)
        except ValueError:
            dim = subset_dimension(phi, support)
            raise SparsityError(
                f"relation {idx} has dimension {dim}; the plane analysis "
                f"needs dimension exactly 2", witness=idx) from None
        planes.setdefault(key, []).append(idx)
    return planes


def is_sparse(pres: Presentation, phi: AbelianMap, rel_indices) -> Report:
    """Is |R'[S']| <= |S'| - 1 for every generator set S' of dimension two?

    Decomposes by plane: the relations inside a plane must form a
    hyperforest on the generators whose images lie in that plane (every k
    edges touching at least k+1 vertices), which one pebble game per plane
    decides.  On failure the witness is (generators, relation indices), a
    violating generator set of the first failing plane, in plane-key order,
    and the relations inside it.
    """
    planes = relation_planes(pres, phi, rel_indices)
    for key in sorted(planes):
        idxs = planes[key]
        forest = hyperforest_report([pres.support(i) for i in idxs])
        if not forest:
            closure, inside = forest.witness
            relations = tuple(idxs[i] for i in inside)
            return Report.of(
                [f"relations {list(relations)} lie inside the generators "
                 f"{sorted(closure)}, more than {len(closure) - 1}"],
                (closure, relations))
    return Report(True)


def maximal_sparse_subset(pres: Presentation, phi: AbelianMap) -> tuple[int, ...]:
    """Greedy inclusion-wise maximal sparse relation subset, in input order.

    One pebble game per plane takes the plane's relations in input order and
    keeps those it accepts.
    """
    planes = relation_planes(pres, phi, range(len(pres.relations)))
    chosen = []
    for idxs in planes.values():
        game = PebbleGame()
        chosen.extend(i for i in idxs if game.add(pres.support(i)))
    return tuple(sorted(chosen))


def critical_collection(pres: Presentation, phi: AbelianMap,
                        rel_indices) -> list[frozenset[str]]:
    """Merged collection of the critical sets of a sparse relation subset.

    Critical sets are dimension-two generator sets S' with exactly |S'| - 1
    of the given relations inside.  Two criticals of one plane that share a
    generator unite to a critical, so merging every intersecting pair leaves
    the maximal ones: per plane, the tight sets of at least three generators
    that the plane's pebble game reports as components.  Within a plane
    they are disjoint, and together they cover every critical set.  A
    relation set that is not sparse raises SparsityError with the first
    failing plane's witness.  Before any plane is keyed, every relation of
    pres must have a nonempty normal form of at most three syllables.
    """
    supports = relation_supports(pres)
    if any(not s for s in supports):
        raise SparsityError("empty-normal-form relations must be stripped first")
    planes = relation_planes(pres, phi, rel_indices)
    collection: list[frozenset[str]] = []
    for key in sorted(planes):
        game = PebbleGame()
        for i in planes[key]:
            if not game.add(supports[i]):
                witness = frozenset(game.closure(supports[i]))
                raise SparsityError(
                    f"relation set is not sparse on {sorted(witness)}",
                    witness=witness)
        collection.extend(s for s in game.components() if len(s) >= 3)
    return sorted(collection, key=lambda s: tuple(sorted(s)))


@dataclass(frozen=True)
class SparsityPartition:
    """Relation indices split into sparse / extra / other classes."""

    sparse: tuple[int, ...]
    extra: tuple[int, ...]
    other: tuple[int, ...]

    def check_covers(self, total: int) -> None:
        parts = [self.sparse, self.extra, self.other]
        combined = [i for part in parts for i in part]
        if sorted(combined) != list(range(total)):
            raise ValueError("partition must split the relation indices exactly")


@dataclass(frozen=True)
class ReplaceSparseResult:
    presentation: Presentation
    phi: AbelianMap
    relation_map: tuple[int | None, ...]  # old index -> new index, None if removed
    collection: tuple[frozenset[str], ...]


def replace_sparse(pres: Presentation, phi: AbelianMap,
                   partition: SparsityPartition) -> ReplaceSparseResult:
    """Rebase every critical set of the sparse class on a lattice basis.

    For each merged critical set S'' the integer span of its images is a
    rank-two lattice.  One intlinalg.echelon of the member images gives its
    basis, the images of two new generators h1 and h2, and
    intlinalg.coordinates gives each member g its (b1, b2) with phi(g) =
    b1 phi(h1) + b2 phi(h2).  A third generator h* enters too, with the
    relations g^-1 h1^b1 h2^b2 (one per g in S''), h*^-1 h1 h2 and
    h*^-1 h2 h1.  The new names t<k> come from one counter.  One index
    maps each generator to every critical set that holds it (sets of
    different planes may share a generator).  A relation lies inside some
    critical set exactly when it lies inside one that holds any one of its
    generators, so one pass over the relations decides it: every
    extra-class relation must, no other-class relation may, and exactly
    those leave.  One pass over the generators, through the same index,
    lists each set's members in generator order.  critical_collection
    checks the supports.  The identity |R_new| - |S_new| = |R_sparse| +
    |R_other| - |S| holds exactly.  An empty collection rebases nothing: the
    inputs themselves come back, with the identity relation map.
    """
    partition.check_covers(len(pres.relations))
    collection = critical_collection(pres, phi, partition.sparse)
    holding: dict[str, list[int]] = {}  # generator -> positions in collection
    for c, member in enumerate(collection):
        for g in member:
            holding.setdefault(g, []).append(c)
    inside = {i for i, support in enumerate(relation_supports(pres))
              if any(support <= collection[c]
                     for c in holding.get(next(iter(support)), ()))}
    for idx in partition.extra:
        if idx not in inside:
            raise SparsityError(
                f"extra relation {idx} lies in no critical set of the sparse class",
                witness=idx)
    for idx in partition.other:
        if idx in inside:
            raise SparsityError(
                f"other-class relation {idx} lies inside a critical set, "
                f"which the accounting forbids", witness=idx)
    if not collection:
        return ReplaceSparseResult(pres, phi, tuple(range(len(pres.relations))), ())
    generators = list(pres.generators)
    images = dict(phi.images)
    added_relations: list[Word] = []
    fresh = _fresh_names(pres.generators)
    members: list[list[str]] = [[] for _ in collection]
    for g in pres.generators:
        for c in holding.get(g, ()):
            members[c].append(g)
    for member, member_gens in zip(collection, members):
        basis, _, _ = echelon([images[g] for g in member_gens])
        if len(basis) != 2:
            raise SparsityError(
                f"critical set {sorted(member)} spans a lattice of rank "
                f"{len(basis)}, not two", witness=member)
        h1, h2, hstar = islice(fresh, 3)
        generators.extend((h1, h2, hstar))
        images[h1], images[h2] = basis
        images[hstar] = tuple(x + y for x, y in zip(*basis))
        for g in member_gens:
            coeffs = coordinates(images[g], basis)
            if coeffs is None:
                raise SparsityError(
                    f"the image of {g} is outside the lattice of its critical "
                    f"set {sorted(member)}", witness=g)
            b1, b2 = coeffs
            added_relations.append(_clean_word(
                ((g, -1), (h1, b1), (h2, b2))))
        added_relations.append(word((hstar, -1), (h1, 1), (h2, 1)))
        added_relations.append(word((hstar, -1), (h2, 1), (h1, 1)))
    relations = []
    relation_map: list[int | None] = []
    for idx, rel in enumerate(pres.relations):
        if idx in inside:
            relation_map.append(None)
        else:
            relation_map.append(len(relations))
            relations.append(rel)
    relations.extend(added_relations)
    out = Presentation(tuple(generators), tuple(relations))
    out_phi = AbelianMap(phi.rank, images)
    gap = len(out.relations) - len(out.generators)
    chain = len(partition.sparse) + len(partition.other) - len(pres.generators)
    if gap != chain:
        raise SparsityError(
            f"size identity violated: |R|-|S| = {gap}, but |R_s|+|R_o|-|S| "
            f"= {chain}", witness=(gap, chain))
    return ReplaceSparseResult(out, out_phi, tuple(relation_map),
                               tuple(collection))


def replace_subspace(pres: Presentation, phi: AbelianMap,
                     generators) -> Presentation:
    """Kill a generator subset, dropping the rank by the subset's dimension.

    Three intlinalg.echelon runs do the lattice work.  The left kernel of
    the subset images' coordinate columns, a saturated basis of the vectors
    orthogonal to them, is the projection P: Z^n -> Z^(n-d) as rows; P is
    onto, and its kernel is span(subset images) intersected with Z^n.  The
    left kernel of P's columns, one row per coordinate, is a saturated
    basis x1..xd of that kernel.
    One echelon of all the images, with intlinalg.coordinates, writes each
    x_i as the image of a word w_i.  The words enter as the last d
    relations, and the subset's generators are deleted from every relation.
    The returned presentation presents Z^(n-d); its abelianization is not
    computed here.  When the images of phi do not generate Z^n, some x_i
    is the image of no word, and PipelineStageError carries the first such
    i as the witness.  An empty subset kills nothing, so the input object
    itself is returned, unrewritten.
    """
    generators = list(generators)
    wanted = set(generators)
    if not wanted:
        return pres
    known = set(pres.generators)
    for g in generators:
        if g not in known:
            raise ValueError(f"unknown generator {g!r}")
    subset = [g for g in pres.generators if g in wanted]
    n = phi.rank
    # The rows of P as sparse dicts {coordinate: entry}.
    _, _, projection = echelon([[phi.vector(g)[t] for g in subset] for t in range(n)])
    _, _, saturated = echelon([[y.get(t, 0) for y in projection] for t in range(n)])
    new_words: list[Word] = []
    if saturated:
        basis, combos, _ = echelon([phi.vector(g) for g in pres.generators])
        for i, x in enumerate(saturated):
            coeffs = coordinates([x.get(t, 0) for t in range(n)], basis)
            if coeffs is None:
                raise PipelineStageError(
                    "replace-subspace", f"basis vector {i} is not the image "
                    f"of a word: the images do not generate Z^{n}", witness=i)
            exponents = [0] * len(pres.generators)
            for c, combo in zip(coeffs, combos):
                for idx, v in combo.items():
                    exponents[idx] += c * v
            new_words.append(tuple(
                (g, e) for g, e in zip(pres.generators, exponents) if e))
    relations = tuple(
        _clean_word((g, e) for g, e in rel if g not in wanted)
        for rel in tuple(pres.relations) + tuple(new_words))
    return Presentation(tuple(g for g in pres.generators if g not in wanted),
                        relations)


# ---------------------------------------------------------------------------
# Stock presentations and size bounds

def standard_zn(n: int, style: str) -> Presentation:
    """Standard presentations of Z^n.

    'commutator': n generators and the C(n,2) commutator relations (four
    syllables each, so not a 3-presentation).  'intro3': the three-syllable
    variant with helper generators h_{i,j} and relations g_i g_j h_{i,j},
    g_j g_i h_{i,j}.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    gens = [f"g{i}" for i in range(1, n + 1)]
    if style == "commutator":
        relations = []
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                relations.append(word((f"g{i}", 1), (f"g{j}", 1),
                                      (f"g{i}", -1), (f"g{j}", -1)))
        return Presentation(tuple(gens), tuple(relations))
    if style == "intro3":
        helpers = []
        relations = []
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                h = f"h{i}_{j}"
                helpers.append(h)
                relations.append(word((f"g{i}", 1), (f"g{j}", 1), (h, 1)))
                relations.append(word((f"g{j}", 1), (f"g{i}", 1), (h, 1)))
        return Presentation(tuple(gens + helpers), tuple(relations))
    raise ValueError(f"unknown style {style!r}")


def deficiency_bounds(pres: Presentation, n: int) -> Report:
    """Size constraints every presentation of Z^n satisfies.

    |S| >= n, |R| - |S| >= C(n,2) - n, and their sum |R| >= C(n,2); the
    commutator presentation attains equality in all three.
    """
    s, r = len(pres.generators), len(pres.relations)
    violations = []
    if s < n:
        violations.append(f"|S| = {s} < n = {n}")
    if r - s < comb(n, 2) - n:
        violations.append(f"|R| - |S| = {r - s} < C(n,2) - n = {comb(n, 2) - n}")
    if r < comb(n, 2):
        violations.append(f"|R| = {r} < C(n,2) = {comb(n, 2)}")
    return Report.of(violations)


# ---------------------------------------------------------------------------
# JSON form

def to_json_dict(pres: Presentation) -> dict:
    return {
        "generators": sorted(pres.generators),
        "relations": [[[g, e] for g, e in rel] for rel in pres.relations],
    }


def from_json_dict(data) -> Presentation:
    """Parse the JSON form; any structural problem raises ValueError."""
    if not isinstance(data, dict):
        raise ValueError("presentation must be a JSON object")
    for key in ("generators", "relations"):
        if not isinstance(data.get(key), list):
            raise ValueError(f"presentation needs a {key!r} list")
    for rel in data["relations"]:
        if not isinstance(rel, list) or not all(
                isinstance(s, list) and len(s) == 2 for s in rel):
            raise ValueError(
                f"relation {rel!r} is not a list of [generator, exponent] pairs")
    generators = tuple(str(g) for g in data["generators"])
    relations = tuple(
        tuple((str(g), e) for g, e in rel) for rel in data["relations"])
    return Presentation(generators, relations)


def dumps_presentation(pres: Presentation) -> str:
    return json.dumps(to_json_dict(pres), indent=1, sort_keys=True) + "\n"


def loads_presentation(text: str) -> Presentation:
    """Parse the JSON text; JSON nested too deeply raises ValueError too."""
    try:
        return from_json_dict(json.loads(text))
    except RecursionError:
        raise ValueError("the JSON is nested too deeply") from None


def write_presentation(pres: Presentation, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_presentation(pres))


def read_presentation(path) -> Presentation:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_presentation(fh.read())
