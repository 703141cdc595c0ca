"""The benchmark's workloads: input generation, timed jobs and exact checks.

Each workload is a list of jobs.  `prepare` does the set-up (builds every
input the jobs need) and returns the jobs; a job's `run` is the timed call
into zncomplex and its `check` inspects the result afterwards, untimed.
`text` renders a result canonically for the workload's output digest.

Program-side seeds stay at their default of 0 (see NOTES.md); only the
sparsity inputs depend on the benchmark's seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Any, Callable

from zncomplex import construction, pipeline, presentation, simplicial
from zncomplex.presentation import AbelianMap, Presentation, SparsityPartition


@dataclass(frozen=True)
class Job:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]  # None when the answer is exact
    text: Callable[[Any], str]


# Job sizes per scale.  "small" is only for the harness self-test.
SIZES = {
    "full": {
        "upper": (12, 16),
        # (m, c, expected final |R| - |S|) for run_lower(extract(X_m), c)
        "lower": ((10, 24, 35), (12, 24, 54), (10, Fraction(1, 8), 10)),
        "build-x": (9, 15, 25),
        # (cases, most generators in a case)
        "sparsity": (196, 16),
    },
    "small": {
        "upper": (7, 8),
        "lower": ((7, 24, 14), (8, 24, 20), (7, Fraction(1, 8), 7)),
        "build-x": (7, 9),
        "sparsity": (12, 8),
    },
}


def _x_vertices(m: int) -> int:
    """8n - 1 vertices for m = 2n, 8n - 3 for m = 2n - 1."""
    n = (m + 1) // 2
    return 8 * n - 1 if m % 2 == 0 else 8 * n - 3


def _upper_jobs(sizes, seed):
    def job(m):
        def check(report):
            if not report.ok:
                return f"run_upper({m}) failed: {report.render()}"
            got = report.trace.result.vertex_count
            if got != _x_vertices(m):
                return f"X_{m} has {got} vertices, expected {_x_vertices(m)}"
            return None
        return Job(f"run_upper({m})", lambda: pipeline.run_upper(m), check,
                   lambda report: report.render())
    return [job(m) for m in sizes]


def _lower_jobs(sizes, seed):
    inputs = {m: presentation.extract_presentation(construction.build_x(m), 0)
              for m in sorted({m for m, _, _ in sizes})}

    def job(m, c, expected):
        def check(report):
            if not report.ok:
                return f"run_lower(P_{m}, {c}) failed: {report.render()}"
            if report.final_difference != expected:
                return (f"run_lower(P_{m}, {c}) ends at |R|-|S| = "
                        f"{report.final_difference}, expected {expected}")
            return None
        return Job(f"run_lower(P_{m}, {c})",
                   lambda: pipeline.run_lower(inputs[m], c), check,
                   lambda report: report.render())
    return [job(*size) for size in sizes]


def _build_x_jobs(sizes, seed):
    def job(m):
        def check(complex_):
            if complex_.vertex_count != _x_vertices(m):
                return (f"X_{m} has {complex_.vertex_count} vertices, "
                        f"expected {_x_vertices(m)}")
            report = simplicial.validate(complex_)
            if not report:
                return f"X_{m} is invalid: {report.violations[:3]}"
            return None
        return Job(f"build_x({m})", lambda: construction.build_x(m), check,
                   lambda complex_: repr((complex_.vertex_count,
                                          sorted(complex_.faces))))
    return [job(m) for m in sizes]


def plane_case(rng: random.Random, count: int) -> tuple[Presentation, AbelianMap]:
    """A presentation whose relations are random triples inside one plane.

    The count generators get pairwise non-parallel images in the plane
    z = 0 of Z^3, each a primitive direction times a scale in 1..3, so every
    triple spans that plane.  Each relation g^x h^y k^z has the coprime
    exponents that send it to zero.  Triples may repeat.
    """
    directions = set()
    while len(directions) < count:
        x, y = rng.randint(-5, 5), rng.randint(-5, 5)
        if (x, y) == (0, 0):
            continue
        g = gcd(x, y)
        x, y = x // g, y // g
        if x < 0 or (x == 0 and y < 0):
            x, y = -x, -y
        directions.add((x, y))
    names = [f"p{i}" for i in range(count)]
    images = {}
    for name, (x, y) in zip(names, sorted(directions)):
        scale = rng.randint(1, 3)
        images[name] = (scale * x, scale * y, 0)
    relations = []
    for _ in range(rng.randint(count - 2, count + 2)):
        a, b, c = sorted(rng.sample(names, 3))
        u, v, w = images[a], images[b], images[c]
        x = v[0] * w[1] - v[1] * w[0]
        y = w[0] * u[1] - w[1] * u[0]
        z = u[0] * v[1] - u[1] * v[0]
        g = gcd(x, y, z)
        relations.append(((a, x // g), (b, y // g), (c, z // g)))
    return Presentation(tuple(names), tuple(relations)), AbelianMap(3, images)


def _sparsity_jobs(sizes, seed):
    cases, most = sizes
    rng = random.Random(seed)
    # Generator counts cycle through 3..most rather than being drawn, so the
    # 2^count enumeration cost is the same for every seed and only the
    # hypergraphs themselves vary.
    inputs = [plane_case(rng, 3 + i % (most - 2)) for i in range(cases)]

    def job(i):
        pres, phi = inputs[i]

        def run():
            everything = range(len(pres.relations))
            whole = presentation.is_sparse(pres, phi, everything)
            chosen = presentation.maximal_sparse_subset(pres, phi)
            rest = tuple(j for j in everything if j not in set(chosen))
            replaced = presentation.replace_sparse(
                pres, phi, SparsityPartition(chosen, rest, ()))
            return whole, chosen, replaced

        def check(result):
            whole, chosen, replaced = result
            if bool(whole) != (len(chosen) == len(pres.relations)):
                return f"case {i}: is_sparse and the maximal subset disagree"
            if not presentation.is_sparse(pres, phi, chosen):
                return f"case {i}: maximal subset {chosen} is not sparse"
            out = replaced.presentation
            if (len(out.relations) - len(out.generators)
                    != len(chosen) - len(pres.generators)):
                return f"case {i}: replace_sparse broke its size identity"
            return None

        def text(result):
            whole, chosen, replaced = result
            collection = sorted(tuple(sorted(s)) for s in replaced.collection)
            out = replaced.presentation
            return repr((bool(whole), chosen, collection,
                         len(out.generators), len(out.relations)))
        return Job(f"sparsity case {i}", run, check, text)
    return [job(i) for i in range(cases)]


WORKLOADS = {
    "upper": _upper_jobs,
    "lower": _lower_jobs,
    "build-x": _build_x_jobs,
    "sparsity": _sparsity_jobs,
}


def prepare(workload: str, seed: int, scale: str) -> list[Job]:
    """Generate the workload's inputs; this is the timed set-up."""
    return WORKLOADS[workload](SIZES[scale][workload], seed)
