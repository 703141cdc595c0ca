"""End-to-end drivers: build-and-verify collapses, presentation reduction.

run_upper builds a block complex and its collapsed form and re-checks every
construction invariant.  run_lower takes a presentation of Z^n through the
whole reduction: minimize, maximal sparse subset, degree pruning over the
image points, the sparse and subspace replacements, and the final size
accounting with its exact rational bound.  Both record each step as one
Stage, and both reports render their stages by the same line rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .construction import CollapseTrace, build_x_trace
from .errors import CheckFailedError, PipelineStageError
from .intlinalg import echelon, sparse_snf
from .presentation import (
    AbelianMap,
    Presentation,
    SparsityPartition,
    abelian_images,
    exponent_rows,
    maximal_sparse_subset,
    minimize,
    relations_on,
    replace_sparse,
    replace_subspace,
)
from .sg import Hypergraph3, config, sg_reduce
from .simplicial import compatible_spurs, homology_through, is_spur


@dataclass(frozen=True)
class Stage:
    """One checked step of a pipeline and what it reports.

    A lower-pipeline stage also carries the generator and relation counts
    and the free rank of the presentation it left.
    """

    name: str
    ok: bool = True
    detail: str = ""
    generators: int | None = None
    relations: int | None = None
    rank: int | None = None

    def line(self) -> str:
        text = self.detail
        if self.rank is not None:
            text = (f"|S| = {self.generators}, |R| = {self.relations}, "
                    f"rank = {self.rank}" + (f"  ({text})" if text else ""))
        return (f"[{'pass' if self.ok else 'FAIL'}] {self.name}"
                + (f": {text}" if text else ""))


def _render(head_lines: list[str], stages) -> str:
    return "\n".join(head_lines + [s.line() for s in stages]) + "\n"


@dataclass(frozen=True)
class UpperReport:
    trace: CollapseTrace
    stages: tuple[Stage, ...]

    @property
    def ok(self) -> bool:
        return all(s.ok for s in self.stages)

    def render(self) -> str:
        t = self.trace
        return _render([
            f"m = {t.m} ({t.parity}), factorization size {2 * t.n}",
            f"block complex: {t.start.vertex_count} vertices, "
            f"{len(t.start.faces)} faces",
            f"collapsed complex: {t.result.vertex_count} vertices, "
            f"{len(t.result.faces)} faces",
        ], self.stages)


def run_upper(m: int) -> UpperReport:
    """Build the collapsed complex for m and re-verify every claimed property."""
    trace = build_x_trace(m)
    stages = []
    expected = 8 * trace.n - (1 if trace.parity == "even" else 3)
    stages.append(Stage(
        "vertex count",
        trace.result.vertex_count == expected,
        f"{trace.result.vertex_count} (expected {expected})"))
    reports = (is_spur(trace.start, trace.labeling.u, s) for s in trace.spurs)
    failed = next(((k, r) for k, r in enumerate(reports) if not r), None)
    stages.append(Stage(
        "every set is a spur", failed is None,
        f"{len(trace.spurs)} spurs" if failed is None
        else f"spur {failed[0]}: {failed[1].violations[0]}"))
    compat = compatible_spurs(trace.start, trace.spurs)
    stages.append(Stage("spurs pairwise compatible", compat.ok,
                        "".join(compat.violations)))
    hw = homology_through(trace.start, 2)
    hx = homology_through(trace.result, 2)
    stages.append(Stage(
        "homology preserved by the collapses", hw == hx,
        f"betti {[h.betti for h in hx]}, torsion {[h.torsion for h in hx]}"))
    stages.append(Stage(
        "first homology is Z^m",
        hx[1].betti == m and not hx[1].torsion,
        f"H1 = Z^{hx[1].betti}, torsion {list(hx[1].torsion)}"))
    stages.append(Stage(
        "second homology is torsion-free of rank C(m,2)",
        hx[2].betti == comb(m, 2) and not hx[2].torsion,
        f"H2 = Z^{hx[2].betti}"))
    return UpperReport(trace, tuple(stages))


@dataclass(frozen=True)
class PipelineReport:
    c: Fraction
    stages: tuple[Stage, ...]
    final_difference: int
    final_bound: Fraction

    @property
    def ok(self) -> bool:
        return all(s.ok for s in self.stages)

    def render(self) -> str:
        return _render([f"reduction pipeline, c = {self.c}"], self.stages) + (
            f"final |R| - |S| = {self.final_difference} <= {self.final_bound} "
            f"= c k^2 / n + d: {'pass' if self.ok else 'FAIL'}\n")


def _sized(name: str, pres: Presentation, rank: int,
           detail: str = "", ok: bool = True) -> Stage:
    """The stage record of a lower stage that left pres, of free rank rank."""
    return Stage(name, ok, detail, len(pres.generators), len(pres.relations), rank)


def _verify_rank(pres: Presentation, stage: str, expected: int) -> None:
    """Check that pres presents Z^expected, by a Smith form without transforms."""
    snf = sparse_snf(exponent_rows(pres), len(pres.relations))
    if snf.torsion:
        raise PipelineStageError(stage, f"torsion appeared: {snf.torsion}",
                                 witness=snf.torsion)
    rank = len(pres.generators) - snf.rank
    if rank != expected:
        raise PipelineStageError(
            stage, f"free rank {rank}, expected {expected}")


def _span_closure(phi: AbelianMap, generators, kept) -> list[str]:
    """The generators whose images lie in the rational span of the kept images.

    echelon's left kernel of the kept images' coordinate columns, the first
    step of replace_subspace too, is a basis of the normals to that span;
    an image lies in the span exactly when every normal annihilates it.
    """
    _, _, normals = echelon(
        [[phi.vector(g)[t] for g in kept] for t in range(phi.rank)])
    return [g for g in generators if not any(
        sum(phi.vector(g)[t] * v for t, v in y.items()) for y in normals)]


def run_lower(pres: Presentation, c=Fraction(24)) -> PipelineReport:
    """Run the full reduction on a 3-presentation of Z^n.

    Stage order: abelianize, minimize, pick a maximal sparse subset, prune
    the image hypergraph at threshold c*k/n, grow the surviving generator
    set until it is span-closed, split the relations into sparse / extra /
    other, rebase the critical sets, kill the surviving subspace, and strip
    the trivialized other-class relations.  A c <= 0 raises ValueError
    before any work.  Re-check rule: a stage that hands on a new
    presentation re-verifies its abelianization by a fresh Smith form, and
    one that hands on its input object does not.  So minimize always runs
    one, replace-sparse and replace-subspace when their output is not their
    input, and strip-other when it stripped something.
    replace_sparse raises on a broken size identity and on an other-class
    relation inside a critical set, so neither is checked again here.  One
    funnel turns any other CheckFailedError into a PipelineStageError naming
    the stage, with the same witness; a stage's own PipelineStageError
    passes through as is.
    """
    c = Fraction(c)
    if c <= 0:
        raise ValueError(f"c must be positive, got {c}")
    stages = []
    stage = "abelianize"
    try:
        phi = abelian_images(pres)
        n = phi.rank
        if n == 0:
            raise PipelineStageError(stage, "rank 0: the threshold c*k/n needs n >= 1")
        stages.append(_sized(stage, pres, n))

        stage = "minimize"
        p1, phi1 = minimize(pres, phi)
        _verify_rank(p1, stage, n)
        k = len(p1.generators)
        stages.append(_sized(stage, p1, n))

        stage = "maximal-sparse"
        sparse_idx = maximal_sparse_subset(p1, phi1)
        stages.append(_sized(stage, p1, n, f"|R'| = {len(sparse_idx)}"))

        stage = "sg-reduce"
        threshold = c * k / n
        gen_index = {g: i for i, g in enumerate(p1.generators)}
        graph = Hypergraph3(tuple(range(k)), tuple(
            frozenset(gen_index[g] for g in p1.support(i)) for i in sparse_idx))
        points = config([phi1.vector(g) for g in p1.generators], dimension=n)
        reduction = sg_reduce(points, graph, threshold)
        stages.append(_sized(
            stage, p1, n,
            f"threshold {threshold}, kept {len(reduction.kept)} points, "
            f"span {reduction.dim_span} <= {reduction.bound}, "
            f"removed {reduction.removed_edges} < {reduction.removal_budget}",
            reduction.dim_within_bound and reduction.removal_within_budget))

        stage = "augment"
        d = reduction.dim_span
        s_prime = _span_closure(
            phi1, p1.generators, [p1.generators[i] for i in reduction.kept])
        stages.append(_sized(stage, p1, n, f"|S'| = {len(s_prime)}, d = {d}"))

        stage = "partition"
        on_sprime = set(relations_on(p1, range(len(p1.relations)), s_prime))
        sparse_set = set(sparse_idx)
        r_s = tuple(i for i in sparse_idx if i not in on_sprime)
        r_e = tuple(i for i in range(len(p1.relations))
                    if i not in sparse_set and i not in on_sprime)
        r_o = tuple(sorted(on_sprime))
        stages.append(_sized(
            stage, p1, n, f"|R_s| = {len(r_s)}, |R_e| = {len(r_e)}, |R_o| = {len(r_o)}"))

        stage = "replace-sparse"
        sparse_result = replace_sparse(p1, phi1, SparsityPartition(r_s, r_e, r_o))
        p2, phi2 = sparse_result.presentation, sparse_result.phi
        if p2 is not p1:
            _verify_rank(p2, stage, n)
        gap, chain = len(p2.relations) - len(p2.generators), len(r_s) + len(r_o) - k
        stages.append(_sized(stage, p2, n, f"|R|-|S| = {gap} = |R_s|+|R_o|-|S| = {chain}"))

        stage = "replace-subspace"
        p3 = replace_subspace(p2, phi2, s_prime)
        # replace_subspace returns its input only for an empty S', where
        # d = 0, so a skipped check never skips a change of rank.
        if p3 is not p2:
            _verify_rank(p3, stage, n - d)
        stages.append(_sized(stage, p3, n - d, f"rank dropped by d = {d}"))

        stage = "strip-other"
        other_new = [sparse_result.relation_map[i] for i in r_o]
        for j in other_new:
            if p3.relations[j]:
                raise PipelineStageError(
                    stage, f"relation {j} should have trivialized", witness=j)
        stripped = set(other_new)
        p4 = p3
        if stripped:
            p4 = Presentation(p3.generators, tuple(
                rel for j, rel in enumerate(p3.relations) if j not in stripped))
            _verify_rank(p4, stage, n - d)
        stages.append(_sized(stage, p4, n - d, f"stripped {len(other_new)} trivial relations"))
    except PipelineStageError:
        raise
    except CheckFailedError as exc:
        raise PipelineStageError(stage, str(exc), witness=exc.witness) from exc

    difference = len(p4.relations) - len(p4.generators)
    expected_difference = len(r_s) + d - (k - len(s_prime))
    bound = c * k * k / n + d
    stages.append(_sized("final", p4, n - d,
                         f"|R|-|S| = {difference}, chain value {expected_difference}, "
                         f"bound {bound}",
                         difference == expected_difference and difference <= bound))
    return PipelineReport(c, tuple(stages), difference, bound)


def smallest_k(predicate) -> int:
    """The least k >= 1 with predicate(k), for a predicate monotone in k.

    Doubling finds a k that holds, then bisection the least one below it.
    """
    low, high = 0, 1
    while not predicate(high):
        low, high = high, 2 * high
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (low, mid) if predicate(mid) else (mid, high)
    return high


def report_bounds(n: int) -> str:
    """Exact constraint table for vertex counts at a given rank n."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    target = comb(n, 2)
    k_gens = smallest_k(lambda k: comb(k, 2) >= n)
    k_rels = smallest_k(lambda k: comb(k, 3) >= target)
    k_pairs = smallest_k(lambda k: comb(k, 2) >= target)
    lines = [
        f"n = {n}, C(n,2) = {target}",
        f"smallest k with C(k,2) >= n      : {k_gens} (C({k_gens},2) = {comb(k_gens, 2)})",
        f"smallest k with C(k,3) >= C(n,2) : {k_rels} (C({k_rels},3) = {comb(k_rels, 3)})",
        f"smallest k with C(k,2) >= C(n,2) : {k_pairs} (C({k_pairs},2) = {comb(k_pairs, 2)})",
    ]
    return "\n".join(lines) + "\n"
