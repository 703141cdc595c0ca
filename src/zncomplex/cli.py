"""Command-line driver.

Exit codes: 0 when every requested check passes, 1 when a check fails (the
witness goes to standard output), 2 for usage or input errors.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from . import construction, factorization, pipeline, presentation, sg, simplicial
from .errors import CheckFailedError, ZnComplexError


# The largest m and factorization size the commands accept, so that a huge
# value is rejected at once instead of starting an unbounded build.
MAX_SIZE = 100


def _require_range(name: str, value: int, low: int, high: int) -> None:
    """A size outside low..high is a usage error (exit 2), before any work."""
    if not low <= value <= high:
        raise ValueError(f"{name} must be in {low}..{high}, got {value}")


def _cmd_build_w(args) -> int:
    _require_range("--n", args.n, 1, MAX_SIZE)
    complex_, labeling = construction.build_w(args.n)
    simplicial.write_scx(complex_, args.output)
    with open(args.output + ".labels", "w", encoding="utf-8") as fh:
        fh.write(construction.dumps_labeling(labeling))
    counts = complex_.face_counts() + [0, 0, 0]
    print(f"wrote {args.output}: {counts[0]} vertices, {counts[1]} edges, "
          f"{counts[2]} triangles")
    return 0


def _cmd_build_x(args) -> int:
    _require_range("--m", args.m, 1, MAX_SIZE)
    complex_ = construction.build_x(args.m)
    simplicial.write_scx(complex_, args.output)
    print(f"wrote {args.output}: {complex_.vertex_count} vertices")
    return 0


def _cmd_verify(args) -> int:
    if args.expect_rank is not None and args.expect_rank < 0:
        raise ValueError(f"--expect-rank must be >= 0, got {args.expect_rank}")
    complex_ = simplicial.read_scx(args.file)
    report = simplicial.validate(complex_)
    if not report:
        for line in report.violations:
            print(line)
        return 1
    print(f"valid complex: {complex_.vertex_count} vertices, "
          f"{len(complex_.faces)} faces")
    if args.expect_rank is not None:
        h1 = simplicial.homology(complex_, 1)
        if h1.betti != args.expect_rank or h1.torsion:
            print(f"H1 = Z^{h1.betti} with torsion {list(h1.torsion)}, "
                  f"expected Z^{args.expect_rank}")
            return 1
        print(f"H1 = Z^{h1.betti}")
    return 0


def _cmd_homology(args) -> int:
    complex_ = simplicial.read_scx(args.file)
    h = simplicial.homology(complex_, args.dim)
    parts = [f"Z^{h.betti}"] + [f"Z/{t}" for t in h.torsion]
    print(f"H_{args.dim} = " + " + ".join(parts))
    return 0


def _cmd_extract(args) -> int:
    complex_ = simplicial.read_scx(args.file)
    pres = presentation.extract_presentation(complex_, args.basepoint)
    presentation.write_presentation(pres, args.output)
    print(f"wrote {args.output}: {len(pres.generators)} generators, "
          f"{len(pres.relations)} relations")
    return 0


def _cmd_orth(args) -> int:
    _require_range("--size", args.size, 2, MAX_SIZE)
    pair = factorization.orthogonal_pair(args.size)
    factorization.write_pair(pair, args.output)
    print(f"wrote {args.output}: orthogonal pair of size {args.size}")
    return 0


def _cmd_reduce(args) -> int:
    pres = presentation.read_presentation(args.file)
    passes = args.passes.split(",")
    for name in passes:
        if name not in ("minimize", "sparse"):
            raise ValueError(f"unknown pass {name!r}")
    pres2, phi = presentation.minimize(pres, presentation.abelian_images(pres))
    print(f"minimize: |S| = {len(pres2.generators)}, |R| = {len(pres2.relations)}")
    if "sparse" in passes:
        sparse_idx = presentation.maximal_sparse_subset(pres2, phi)
        sparse = set(sparse_idx)
        rest = tuple(i for i in range(len(pres2.relations)) if i not in sparse)
        partition = presentation.SparsityPartition(sparse_idx, rest, ())
        result = presentation.replace_sparse(pres2, phi, partition)
        pres2 = result.presentation
        print(f"sparse: |S| = {len(pres2.generators)}, "
              f"|R| = {len(pres2.relations)}")
    if args.output:
        presentation.write_presentation(pres2, args.output)
        print(f"wrote {args.output}")
    return 0


def _rational(text: str) -> Fraction:
    """Fraction(text), with a zero denominator raising ValueError (exit 2)."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"{text!r} has a zero denominator") from None


def _cmd_sg_check(args) -> int:
    cfg = sg.read_points(args.file)
    report = sg.is_delta_sg(cfg, _rational(args.delta))
    required, tallies = report.witness
    print(f"threshold delta*(n-1) = {required}")
    print("tallies: " + " ".join(str(t) for t in tallies))
    if not report:
        for line in report.violations:
            print(line)
        return 1
    print("configuration passes")
    return 0


def _cmd_pipeline(args) -> int:
    pres = presentation.read_presentation(args.file)
    report = pipeline.run_lower(pres, c=_rational(args.c))
    sys.stdout.write(report.render())
    return 0 if report.ok else 1


def _cmd_bounds(args) -> int:
    sys.stdout.write(pipeline.report_bounds(args.n))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zncomplex",
        description="Small complexes with free-abelian fundamental group, "
                    "and the presentation machinery around them.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-w", help="build the block complex")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_build_w)

    p = sub.add_parser("build-x", help="build the collapsed complex")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_build_x)

    p = sub.add_parser("verify", help="validate a complex file")
    p.add_argument("file")
    p.add_argument("--expect-rank", type=int, default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("homology", help="integer homology of a complex file")
    p.add_argument("file")
    p.add_argument("--dim", type=int, required=True)
    p.set_defaults(func=_cmd_homology)

    p = sub.add_parser("extract", help="spanning-tree presentation of a complex")
    p.add_argument("file")
    p.add_argument("--basepoint", type=int, default=0)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("orth", help="orthogonal pair of 1-factorizations")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_orth)

    p = sub.add_parser("reduce", help="reduce a presentation")
    p.add_argument("file")
    p.add_argument("--passes", default="minimize",
                   help="comma list: minimize[,sparse]")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("sg-check", help="delta-SG test for a point file")
    p.add_argument("file")
    p.add_argument("--delta", required=True, help="rational like 1/2")
    p.set_defaults(func=_cmd_sg_check)

    p = sub.add_parser("pipeline", help="full reduction of a presentation file")
    p.add_argument("file")
    p.add_argument("--c", default="24")
    p.set_defaults(func=_cmd_pipeline)

    p = sub.add_parser("bounds", help="size constraint table for rank n")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_bounds)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    # "--c -1/8" as "--c=-1/8": argparse reads a separate "-1/8" as an option.
    for k in reversed(range(len(argv) - 1)):
        if argv[k] in ("--c", "--delta"):
            argv[k:k + 2] = [f"{argv[k]}={argv[k + 1]}"]
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CheckFailedError as exc:
        print(f"check failed: {exc}")
        return 1
    except (OSError, ValueError, ZnComplexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
