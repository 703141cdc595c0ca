"""End-to-end drivers: build-and-verify collapses, presentation reduction.

run_upper builds a block complex and its collapsed form and re-checks every
construction invariant.  run_lower takes a presentation of Z^n through the
whole reduction: minimize, maximal sparse subset, degree pruning over the
image points, the sparse and subspace replacements, and the final size
accounting with its exact rational bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    exponent_columns,
    maximal_sparse_subset,
    minimize,
    relations_on,
    replace_sparse,
    replace_subspace,
)
from .sg import Hypergraph3, config, sg_reduce
from .simplicial import compatible_spurs, homology_through, is_spur


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class UpperReport:
    trace: CollapseTrace
    checks: tuple[Check, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def render(self) -> str:
        t = self.trace
        lines = [
            f"m = {t.m} ({t.parity}), factorization size {2 * t.n}",
            f"block complex: {t.start.vertex_count} vertices, "
            f"{len(t.start.faces)} faces",
            f"collapsed complex: {t.result.vertex_count} vertices, "
            f"{len(t.result.faces)} faces",
        ]
        for c in self.checks:
            status = "pass" if c.ok else "FAIL"
            lines.append(f"[{status}] {c.name}" + (f": {c.detail}" if c.detail else ""))
        return "\n".join(lines) + "\n"


def run_upper(m: int) -> UpperReport:
    """Build the collapsed complex for m and re-verify every claimed property."""
    trace = build_x_trace(m)
    checks = []
    expected = 8 * trace.n - (1 if trace.parity == "even" else 3)
    checks.append(Check(
        "vertex count",
        trace.result.vertex_count == expected,
        f"{trace.result.vertex_count} (expected {expected})"))
    reports = (is_spur(trace.start, trace.labeling.u, s) for s in trace.spurs)
    failed = next(((k, r) for k, r in enumerate(reports) if not r), None)
    checks.append(Check(
        "every set is a spur", failed is None,
        f"{len(trace.spurs)} spurs" if failed is None
        else f"spur {failed[0]}: {failed[1].violations[0]}"))
    compat = compatible_spurs(trace.start, trace.spurs)
    checks.append(Check("spurs pairwise compatible", compat.ok,
                        "".join(compat.violations)))
    hw = homology_through(trace.start, 2)
    hx = homology_through(trace.result, 2)
    checks.append(Check(
        "homology preserved by the collapses", hw == hx,
        f"betti {[h.betti for h in hx]}, torsion {[h.torsion for h in hx]}"))
    checks.append(Check(
        "first homology is Z^m",
        hx[1].betti == m and not hx[1].torsion,
        f"H1 = Z^{hx[1].betti}, torsion {list(hx[1].torsion)}"))
    checks.append(Check(
        "second homology is torsion-free of rank C(m,2)",
        hx[2].betti == comb(m, 2) and not hx[2].torsion,
        f"H2 = Z^{hx[2].betti}"))
    return UpperReport(trace, tuple(checks))


@dataclass(frozen=True)
class StageRecord:
    name: str
    generators: int
    relations: int
    rank: int
    detail: str = ""
    ok: bool = True


@dataclass
class PipelineReport:
    c: Fraction
    stages: list[StageRecord] = field(default_factory=list)
    final_difference: int = 0
    final_bound: Fraction = Fraction(0)

    @property
    def ok(self) -> bool:
        return all(s.ok for s in self.stages)

    def record(self, name: str, pres: Presentation, rank: int,
               detail: str = "", ok: bool = True) -> None:
        """Append the stage's record, with the sizes of the presentation it left."""
        self.stages.append(StageRecord(
            name, len(pres.generators), len(pres.relations), rank, detail, ok))

    def render(self) -> str:
        lines = [f"reduction pipeline, c = {self.c}"]
        for s in self.stages:
            status = "pass" if s.ok else "FAIL"
            lines.append(
                f"[{status}] {s.name}: |S| = {s.generators}, |R| = {s.relations}, "
                f"rank = {s.rank}" + (f"  ({s.detail})" if s.detail else ""))
        lines.append(
            f"final |R| - |S| = {self.final_difference} <= {self.final_bound} "
            f"= c k^2 / n + d: {'pass' if self.ok else 'FAIL'}")
        return "\n".join(lines) + "\n"


def _verified_rank(pres: Presentation, stage: str, expected: int,
                   last: tuple[Presentation, int] | None) -> tuple[Presentation, int]:
    """Check that pres presents Z^expected, by a Smith form without transforms.

    last is what the previous call returned: the presentation it verified,
    and at which rank.  The same object at the same rank has passed this
    check already, so nothing runs; any other presentation, even an equal
    one, gets its Smith form.
    """
    if last is not None and last[0] is pres and last[1] == expected:
        return last
    snf = sparse_snf(exponent_columns(pres), len(pres.generators))
    if snf.torsion:
        raise PipelineStageError(stage, f"torsion appeared: {snf.torsion}",
                                 witness=snf.torsion)
    rank = len(pres.generators) - snf.rank
    if rank != expected:
        raise PipelineStageError(
            stage, f"free rank {rank}, expected {expected}")
    return pres, expected


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
    the trivialized other-class relations.  minimize, replace-sparse,
    replace-subspace and strip-other each re-verify the abelianization of
    the presentation they leave by a fresh Smith form, unless it is the
    very object the previous check passed at the same rank: at d = 0,
    replace_subspace returns its input and strip-other has nothing to
    strip, so only minimize and replace-sparse run one, and with no
    critical set replace_sparse returns its input too.
    replace_sparse raises on a broken size identity and on an other-class
    relation inside a critical set, so neither is checked again here.  One
    funnel turns any other CheckFailedError into a PipelineStageError naming
    the stage, with the same witness; a stage's own PipelineStageError
    passes through as is.
    """
    c = Fraction(c)
    report = PipelineReport(c=c)
    stage = "abelianize"
    try:
        phi = abelian_images(pres)
        n = phi.rank
        if n == 0:
            raise PipelineStageError(stage, "rank 0: the threshold c*k/n needs n >= 1")
        report.record(stage, pres, n)

        stage = "minimize"
        p1, phi1 = minimize(pres, phi)
        verified = _verified_rank(p1, stage, n, None)
        k = len(p1.generators)
        report.record(stage, p1, n)

        stage = "maximal-sparse"
        sparse_idx = maximal_sparse_subset(p1, phi1)
        report.record(stage, p1, n, f"|R'| = {len(sparse_idx)}")

        stage = "sg-reduce"
        threshold = c * k / n
        gen_index = {g: i for i, g in enumerate(p1.generators)}
        graph = Hypergraph3(tuple(range(k)), tuple(
            frozenset(gen_index[g] for g in p1.support(i)) for i in sparse_idx))
        points = config([phi1.vector(g) for g in p1.generators], dimension=n)
        reduction = sg_reduce(points, graph, threshold)
        report.record(
            stage, p1, n,
            f"threshold {threshold}, kept {len(reduction.kept)} points, "
            f"span {reduction.dim_span} <= {reduction.bound}, "
            f"removed {reduction.removed_edges} < {reduction.removal_budget}",
            reduction.dim_within_bound and reduction.removal_within_budget)

        stage = "augment"
        d = reduction.dim_span
        s_prime = _span_closure(
            phi1, p1.generators, [p1.generators[i] for i in reduction.kept])
        report.record(stage, p1, n, f"|S'| = {len(s_prime)}, d = {d}")

        stage = "partition"
        on_sprime = set(relations_on(p1, range(len(p1.relations)), s_prime))
        sparse_set = set(sparse_idx)
        r_s = tuple(i for i in sparse_idx if i not in on_sprime)
        r_e = tuple(i for i in range(len(p1.relations))
                    if i not in sparse_set and i not in on_sprime)
        r_o = tuple(sorted(on_sprime))
        report.record(stage, p1, n,
                      f"|R_s| = {len(r_s)}, |R_e| = {len(r_e)}, |R_o| = {len(r_o)}")

        stage = "replace-sparse"
        sparse_result = replace_sparse(p1, phi1, SparsityPartition(r_s, r_e, r_o))
        p2, phi2 = sparse_result.presentation, sparse_result.phi
        verified = _verified_rank(p2, stage, n, verified)
        gap, chain = len(p2.relations) - len(p2.generators), len(r_s) + len(r_o) - k
        report.record(stage, p2, n, f"|R|-|S| = {gap} = |R_s|+|R_o|-|S| = {chain}")

        stage = "replace-subspace"
        p3 = replace_subspace(p2, phi2, s_prime)
        verified = _verified_rank(p3, stage, n - d, verified)
        report.record(stage, p3, n - d, f"rank dropped by d = {d}")

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
        _verified_rank(p4, stage, n - d, verified)
        report.record(stage, p4, n - d, f"stripped {len(other_new)} trivial relations")
    except PipelineStageError:
        raise
    except CheckFailedError as exc:
        raise PipelineStageError(stage, str(exc), witness=exc.witness) from exc

    difference = len(p4.relations) - len(p4.generators)
    expected_difference = len(r_s) + d - (k - len(s_prime))
    report.final_difference = difference
    report.final_bound = bound = c * k * k / n + d
    report.record("final", p4, n - d,
                  f"|R|-|S| = {difference}, chain value {expected_difference}, "
                  f"bound {bound}",
                  difference == expected_difference and difference <= bound)
    return report


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
