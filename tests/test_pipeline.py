"""End-to-end drivers and the command line."""

import dataclasses
import hashlib
import json
import time
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import zncomplex
from lattice_oracle import brute_rank
from sg_inputs import points_to_json
from zncomplex import errors
from zncomplex.cli import main
from zncomplex.construction import build_x
from zncomplex.errors import PipelineStageError
from zncomplex.pipeline import (
    _span_closure,
    _verify_rank,
    report_bounds,
    run_lower,
    run_upper,
)
from zncomplex.presentation import (
    AbelianMap,
    Presentation,
    dumps_presentation,
    extract_presentation,
    loads_presentation,
    standard_zn,
)
from zncomplex.report import Report
from zncomplex.sg import config
from zncomplex.simplicial import is_spur, read_scx


@pytest.mark.parametrize("m", [1, 2, 8])
def test_run_upper(m):
    report = run_upper(m)
    assert report.ok, report.render()
    assert f"m = {m}" in report.render()


def test_run_upper_names_the_first_incompatible_pair(monkeypatch):
    assert "[pass] spurs pairwise compatible\n" in run_upper(8).render()
    trace = zncomplex.construction.build_x_trace(8)
    spurs = list(trace.spurs)
    spurs[3] = spurs[1]  # the same spur twice: spurs 1 and 3 overlap
    shared = min(spurs[1])
    monkeypatch.setattr(zncomplex.pipeline, "build_x_trace",
                        lambda m: dataclasses.replace(trace, spurs=spurs))
    report = run_upper(8)
    assert not report.ok
    assert (f"[FAIL] spurs pairwise compatible: spurs 1 and 3 share vertex "
            f"{shared}\n") in report.render()


def test_run_upper_names_the_first_non_spur(monkeypatch):
    trace = zncomplex.construction.build_x_trace(8)
    u, w = trace.labeling.u, trace.labeling.w
    spurs = list(trace.spurs)
    # Twins share a torus block, so they are adjacent: no spur holds both.
    spurs[5] = frozenset({w[1, 2, 1], w[1, 2, 2]})
    spurs[9] = frozenset({w[1, 3, 1], w[1, 3, 2]})
    first = is_spur(trace.start, u, spurs[5]).violations[0]
    monkeypatch.setattr(zncomplex.pipeline, "build_x_trace",
                        lambda m: dataclasses.replace(trace, spurs=spurs))
    report = run_upper(8)
    assert not report.ok
    assert f"[FAIL] every set is a spur: spur 5: {first}\n" in report.render()


def test_run_lower_intro():
    for n in (2, 3, 4):
        report = run_lower(standard_zn(n, "intro3"))
        assert report.ok, report.render()
        stage_names = [s.name for s in report.stages]
        assert stage_names == [
            "abelianize", "minimize", "maximal-sparse", "sg-reduce",
            "augment", "partition", "replace-sparse", "replace-subspace",
            "strip-other", "final"]
        # rank bookkeeping: constant until replace-subspace
        ranks = [s.rank for s in report.stages]
        assert len(set(ranks[:7])) == 1


def test_run_lower_single_generator():
    report = run_lower(Presentation(("g",), ()))
    assert report.ok
    assert report.final_difference == -1


def test_run_lower_torsion_fails_early():
    with pytest.raises(PipelineStageError) as info:
        run_lower(Presentation(("g",), ((("g", 2),),)))
    assert info.value.stage == "abelianize"
    assert info.value.witness == (2,)


def test_run_lower_passes_a_stage_error_through_as_is():
    # Relation a = 1 kills the one generator: rank 0, a stage's own error.
    with pytest.raises(PipelineStageError) as info:
        run_lower(Presentation(("a",), ((("a", 1),),)))
    assert str(info.value) == ("stage abelianize: rank 0: the threshold "
                               "c*k/n needs n >= 1")
    assert info.value.__cause__ is None


def test_run_lower_rejects_long_relations():
    with pytest.raises(PipelineStageError) as info:
        run_lower(standard_zn(3, "commutator"))
    assert info.value.stage == "minimize"
    assert info.value.witness == (("g1", 1), ("g2", 1), ("g1", -1), ("g2", -1))


def test_run_lower_other_relation_inside_a_critical_set(monkeypatch):
    # Relations 0 and 1 make {a, b, c} critical and relation 2 repeats 0.
    # Forcing relation 2 into the other class puts it inside that critical
    # set; replace_sparse rejects it before anything maps it to None.
    pres = Presentation(("a", "b", "c"), (
        (("a", 1), ("b", 1), ("c", 1)),
        (("b", 1), ("a", 1), ("c", 1)),
        (("a", 1), ("b", 1), ("c", 1))))
    assert run_lower(pres).ok
    monkeypatch.setattr(zncomplex.pipeline, "relations_on",
                        lambda pres, indices, generators: [2])
    with pytest.raises(PipelineStageError) as info:
        run_lower(pres)
    assert info.value.stage == "replace-sparse"
    assert info.value.witness == 2
    assert "other-class relation 2 lies inside a critical set" in str(info.value)


def spy_on_checks(monkeypatch):
    """The generator count of every presentation _verify_rank reduces."""
    checked = []
    real = zncomplex.pipeline.sparse_snf

    def spy(rows, width):
        checked.append(len(rows))
        return real(rows, width)

    monkeypatch.setattr(zncomplex.pipeline, "sparse_snf", spy)
    return checked


def test_run_lower_checks_each_changed_presentation_once(monkeypatch):
    checked = spy_on_checks(monkeypatch)
    # d = 0: replace-subspace and strip-other hand on the object that the
    # replace-sparse check passed, so only minimize and replace-sparse run.
    assert run_lower(extract_presentation(build_x(12), 0), 24).ok
    assert checked == [78, 276]
    checked.clear()
    # d = n: nothing is critical, so replace-sparse hands on the object that
    # the minimize check passed; the two stages after it leave new ones.
    assert run_lower(extract_presentation(build_x(10), 0), Fraction(1, 8)).ok
    assert checked == [55, 0, 0]


def test_run_lower_checks_an_equal_but_new_presentation(monkeypatch):
    checked = spy_on_checks(monkeypatch)
    real = zncomplex.pipeline.replace_subspace

    def copy(pres, phi, generators):
        out = real(pres, phi, generators)
        return Presentation(out.generators, out.relations)

    monkeypatch.setattr(zncomplex.pipeline, "replace_subspace", copy)
    assert run_lower(extract_presentation(build_x(12), 0), 24).ok
    assert checked == [78, 276, 276]


def test_verify_rank_passes_or_names_the_rank_it_found(monkeypatch):
    checked = spy_on_checks(monkeypatch)
    pres = standard_zn(3, "intro3")
    assert _verify_rank(pres, "stage", 3) is None
    with pytest.raises(PipelineStageError, match="free rank 3, expected 2"):
        _verify_rank(pres, "stage", 2)
    assert checked == [6, 6]


@pytest.mark.parametrize("c", ["0", "-1", "-1/8"])
def test_cli_pipeline_rejects_a_non_positive_c_before_any_work(
        tmp_path, capsys, monkeypatch, c):
    path = tmp_path / "intro3.json"
    path.write_text(dumps_presentation(standard_zn(3, "intro3")))
    calls = []
    monkeypatch.setattr(zncomplex.pipeline, "abelian_images",
                        lambda pres: calls.append(pres))
    assert main(["pipeline", str(path), f"--c={c}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: c must be positive, got {c}\n"
    assert calls == []


@pytest.mark.parametrize("joined", [False, True], ids=["separate", "joined"])
@pytest.mark.parametrize("command, option, value, message", [
    ("pipeline", "--c", "-1/8", "c must be positive, got -1/8"),
    ("sg-check", "--delta", "-1/2", "delta must be in [0, 1], got -1/2"),
], ids=["pipeline", "sg-check"])
def test_cli_reads_a_negative_fraction_as_the_option_value(
        tmp_path, capsys, joined, command, option, value, message):
    # argparse alone reads a separate "-1/8" as an option name and exits 2
    # with its two-line usage error, before the command can check the value.
    path = tmp_path / "input.json"
    path.write_text(dumps_presentation(standard_zn(3, "intro3"))
                    if command == "pipeline" else
                    json.dumps(points_to_json(config([(0, 0), (1, 0)]))))
    option_args = [f"{option}={value}"] if joined else [option, value]
    assert main([command, str(path)] + option_args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


# run_lower(standard_zn(3, "intro3")) with sg_reduce's bound forced below the
# span it reports: the sg-reduce line and the closing verdict read FAIL.
GOLDEN_LOWER_INTRO3_SG_FAIL = (
    "reduction pipeline, c = 24\n"
    "[pass] abelianize: |S| = 6, |R| = 6, rank = 3\n"
    "[pass] minimize: |S| = 6, |R| = 6, rank = 3\n"
    "[pass] maximal-sparse: |S| = 6, |R| = 6, rank = 3  (|R'| = 6)\n"
    "[FAIL] sg-reduce: |S| = 6, |R| = 6, rank = 3  (threshold 48, kept 0 "
    "points, span 0 <= -1, removed 6 < 288)\n"
    "[pass] augment: |S| = 6, |R| = 6, rank = 3  (|S'| = 0, d = 0)\n"
    "[pass] partition: |S| = 6, |R| = 6, rank = 3  "
    "(|R_s| = 6, |R_e| = 0, |R_o| = 0)\n"
    "[pass] replace-sparse: |S| = 15, |R| = 15, rank = 3  "
    "(|R|-|S| = 0 = |R_s|+|R_o|-|S| = 0)\n"
    "[pass] replace-subspace: |S| = 15, |R| = 15, rank = 3  "
    "(rank dropped by d = 0)\n"
    "[pass] strip-other: |S| = 15, |R| = 15, rank = 3  "
    "(stripped 0 trivial relations)\n"
    "[pass] final: |S| = 15, |R| = 15, rank = 3  "
    "(|R|-|S| = 0, chain value 0, bound 288)\n"
    "final |R| - |S| = 0 <= 288 = c k^2 / n + d: FAIL\n"
)


def test_run_lower_renders_a_failed_stage(tmp_path, capsys, monkeypatch):
    real = zncomplex.pipeline.sg_reduce

    def over_bound(points, graph, threshold):
        return dataclasses.replace(real(points, graph, threshold),
                                   bound=Fraction(-1))

    monkeypatch.setattr(zncomplex.pipeline, "sg_reduce", over_bound)
    report = run_lower(standard_zn(3, "intro3"))
    assert not report.ok
    assert report.render() == GOLDEN_LOWER_INTRO3_SG_FAIL
    path = tmp_path / "intro3.json"
    path.write_text(dumps_presentation(standard_zn(3, "intro3")))
    assert main(["pipeline", str(path)]) == 1
    assert capsys.readouterr().out == GOLDEN_LOWER_INTRO3_SG_FAIL


# SHA-256 of run_lower(extract_presentation(build_x(m), 0), c).render().
RUN_LOWER_RENDER_SHA256 = {
    (24, 10): "dd27fd7463a22fea0ded4a92a07a824aec4fa671db8bf97089614295e6add83e",
    (24, 12): "52c701a468d9384a209a8b79ef85db1e57036399427afc80f71f4a37aaf05da6",
    (24, 28): "d99325ef0d271b5ee7eb9cf14cb31b6197eb67b27816df341a4540b6e0f4ad68",
    (24, 48): "4bec0b70132efa9588438d20d476bc2fd7b59a25c627662c266c5b6898387824",
    ("1/8", 10): "24058a942047022ae50caa5409daced7236d0fbcc7bc03dbeb77efb525ee2b33",
    ("1/8", 12): "a01d3b2be88efd949e2a60e24a5188b6636adaf6b9f22ec929e1c009cf460563",
    ("1/8", 28): "8e9b0067a49f1b7ed3c0baea4c890d61eb50c5445dedc68d79b85f24d9a340b6",
}


@pytest.mark.parametrize("c, m", list(RUN_LOWER_RENDER_SHA256))
def test_run_lower_render_is_pinned(c, m):
    text = run_lower(extract_presentation(build_x(m), 0), Fraction(c)).render()
    assert hashlib.sha256(text.encode()).hexdigest() == RUN_LOWER_RENDER_SHA256[c, m]


def test_every_toolkit_error_exposes_witness():
    report = Report.of(["bad"], witness=7)
    made = {
        errors.ZnComplexError("plain"): None,
        errors.CheckFailedError("check"): None,
        errors.ScxFormatError("bad line"): None,
        errors.UnsupportedSizeError("size 4"): None,
        errors.SparsityError("not sparse", witness=(1, 2)): (1, 2),
        errors.InvalidComplexError(report): report,
        errors.SpurError(report): report,
        errors.TooLongError((("a", 1), ("b", 1))): (("a", 1), ("b", 1)),
        errors.NotFreeAbelianError([2, 4]): (2, 4),
        errors.SgHypothesisError([2, 0]): frozenset({0, 2}),
        errors.PipelineStageError("minimize", "bad", witness=0): 0,
    }
    classes = {cls for cls in vars(errors).values()
               if isinstance(cls, type) and issubclass(cls, errors.ZnComplexError)}
    assert {type(exc) for exc in made} == classes
    for exc, witness in made.items():
        assert exc.witness == witness, type(exc).__name__


REPORT = Report.of(["bad"], witness=7)
# One instance of every class in errors, with the exit code cli.main gives it.
EXIT_CODES = [
    (errors.ZnComplexError("plain"), 2),
    (errors.ScxFormatError("bad line"), 2),
    (errors.UnsupportedSizeError("size 4"), 2),
    (errors.InvalidComplexError(REPORT), 2),
    (errors.SpurError(REPORT), 2),
    (errors.CheckFailedError("check"), 1),
    (errors.SparsityError("not sparse", witness=(1, 2)), 1),
    (errors.TooLongError((("a", 1), ("b", 1))), 1),
    (errors.NotFreeAbelianError([2, 4]), 1),
    (errors.SgHypothesisError([2, 0]), 1),
    (errors.PipelineStageError("minimize", "bad", witness=0), 1),
]


def test_exit_code_table_covers_every_error_class():
    classes = {cls for cls in vars(errors).values()
               if isinstance(cls, type) and issubclass(cls, errors.ZnComplexError)}
    assert {type(exc) for exc, _ in EXIT_CODES} == classes
    for exc, code in EXIT_CODES:
        assert (code == 1) == isinstance(exc, errors.CheckFailedError)


@pytest.mark.parametrize("exc, code", EXIT_CODES,
                         ids=[type(exc).__name__ for exc, _ in EXIT_CODES])
def test_cli_exit_code_of_every_error_class(monkeypatch, capsys, exc, code):
    def fail(args):
        raise exc

    monkeypatch.setattr(zncomplex.cli, "_cmd_bounds", fail)
    assert main(["bounds", "--n", "3"]) == code
    captured = capsys.readouterr()
    if code == 1:
        assert (captured.out, captured.err) == (f"check failed: {exc}\n", "")
    else:
        assert (captured.out, captured.err) == ("", f"error: {exc}\n")


def brute_closure(phi, generators, kept):
    """The generators whose image leaves the rank of the kept images unchanged."""
    rows = [phi.vector(g) for g in kept]
    base = brute_rank(rows)
    return [g for g in generators if brute_rank(rows + [phi.vector(g)]) == base]


def test_span_closure_matches_rank_oracle():
    rng = random.Random(1313)
    seen = 0
    for _ in range(150):
        n = rng.randint(2, 6)
        d = rng.randint(1, n - 1)
        basis = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(d)]
        if brute_rank(basis) != d:
            continue
        seen += 1

        def in_span():
            weights = [rng.randint(-2, 2) for _ in range(d)]
            return tuple(sum(w * row[t] for w, row in zip(weights, basis))
                         for t in range(n))

        images = {f"b{i}": tuple(row) for i, row in enumerate(basis)}
        for i in range(rng.randint(0, 4)):
            images[f"s{i}"] = in_span()
        for i in range(rng.randint(1, 4)):
            images[f"x{i}"] = tuple(rng.randint(-3, 3) for _ in range(n))
        names = list(images)
        rng.shuffle(names)
        phi = AbelianMap(n, images)
        kept = [g for g in names if g.startswith("b")]
        kept += [g for g in names if g.startswith("s") and rng.random() < 0.5]
        closure = _span_closure(phi, names, kept)
        assert closure == brute_closure(phi, names, kept), (images, kept)
        assert set(kept) <= set(closure)
    assert seen >= 100


def test_span_closure_of_nothing_and_of_everything():
    phi = AbelianMap(3, {"a": (1, 0, 0), "b": (0, 2, 0), "z": (0, 0, 0),
                         "c": (1, 1, 1), "h": (1, 0, 1)})
    names = list(phi.images)
    assert _span_closure(phi, names, []) == ["z"] == brute_closure(phi, names, [])
    assert _span_closure(phi, names, ["a", "b", "c"]) == names
    # h = c - b/2 lies in the rational span of b and c, not in their lattice.
    assert _span_closure(phi, names, ["b", "c"]) == ["b", "z", "c", "h"]


def test_report_bounds_values():
    text = report_bounds(10)
    assert "C(n,2) = 45" in text
    assert "C(k,3) >= C(n,2) : 8" in text
    text100 = report_bounds(100)
    assert "C(k,2) >= C(n,2) : 100" in text100
    text1 = report_bounds(1)
    assert "C(k,3) >= C(n,2) : 1" in text1


def test_report_bounds_matches_a_linear_search(monkeypatch):
    fast = [report_bounds(n) for n in range(1, 2001)]

    def linear(predicate):
        k = 1
        while not predicate(k):
            k += 1
        return k

    monkeypatch.setattr(zncomplex.pipeline, "smallest_k", linear)
    assert fast == [report_bounds(n) for n in range(1, 2001)]


def test_report_bounds_finishes_for_a_huge_n(capsys):
    start = time.perf_counter()
    assert main(["bounds", "--n", str(10 ** 18)]) == 0
    assert time.perf_counter() - start < 1.0
    out = capsys.readouterr().out
    assert f"smallest k with C(k,2) >= C(n,2) : {10 ** 18} " in out


def test_cli_build_verify_homology(tmp_path):
    out = tmp_path / "x8.scx"
    assert main(["build-x", "--m", "8", "-o", str(out)]) == 0
    assert main(["verify", str(out), "--expect-rank", "8"]) == 0
    assert main(["verify", str(out), "--expect-rank", "9"]) == 1
    assert main(["homology", str(out), "--dim", "1"]) == 0
    complex_ = read_scx(out)
    assert complex_.vertex_count == 31


def test_cli_verify_rejects_a_negative_expected_rank(tmp_path, capsys):
    # The file does not exist: the rank is rejected before it is read.
    missing = tmp_path / "missing.scx"
    assert main(["verify", str(missing), "--expect-rank", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --expect-rank must be >= 0, got -1\n"


def test_cli_build_x_excluded_size(tmp_path):
    assert main(["build-x", "--m", "4", "-o", str(tmp_path / "x.scx")]) == 2


@pytest.mark.parametrize("argv,message", [
    (["build-x", "--m", "0"], "--m must be in 1..100, got 0"),
    (["build-x", "--m", "101"], "--m must be in 1..100, got 101"),
    (["build-x", "--m", "1000000000"], "--m must be in 1..100, got 1000000000"),
    (["build-w", "--n", "0"], "--n must be in 1..100, got 0"),
    (["build-w", "--n", "1000000000"], "--n must be in 1..100, got 1000000000"),
    (["orth", "--size", "0"], "--size must be in 2..100, got 0"),
    (["orth", "--size", "102"], "--size must be in 2..100, got 102"),
    (["orth", "--size", "1000000000"], "--size must be in 2..100, got 1000000000"),
])
def test_cli_size_limits_exit_2(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    assert main(argv + ["-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert not out.exists()


def test_cli_build_w_emits_labels(tmp_path):
    out = tmp_path / "w3.scx"
    assert main(["build-w", "--n", "3", "-o", str(out)]) == 0
    labels = (tmp_path / "w3.scx.labels").read_text()
    assert labels.splitlines()[0] == "u 0"


def test_cli_verify_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.scx"
    bad.write_text("nonsense\n")
    assert main(["verify", str(bad)]) == 2


def test_cli_extract_and_pipeline(tmp_path):
    scx = tmp_path / "x7.scx"
    pres_file = tmp_path / "x7.json"
    assert main(["build-x", "--m", "7", "-o", str(scx)]) == 0
    assert main(["extract", str(scx), "--basepoint", "0",
                 "-o", str(pres_file)]) == 0
    pres = loads_presentation(pres_file.read_text())
    assert len(pres.relations) == 14 * 21  # triangle count of the m = 7 block

    intro = tmp_path / "intro3.json"
    intro.write_text(dumps_presentation(standard_zn(3, "intro3")))
    assert main(["pipeline", str(intro)]) == 0
    assert main(["reduce", str(intro), "--passes", "minimize,sparse",
                 "-o", str(tmp_path / "reduced.json")]) == 0


def test_cli_orth(tmp_path):
    out = tmp_path / "pair.txt"
    assert main(["orth", "--size", "12", "-o", str(out)]) == 0
    assert "%" in out.read_text()
    assert main(["orth", "--size", "6", "-o", str(out)]) == 2


@pytest.mark.parametrize("argv, budget", [
    (["orth", "--size", "100"], 5),
    (["build-x", "--m", "50"], 10),
])
def test_cli_builds_past_size_48_in_bounded_time(tmp_path, argv, budget):
    start = time.monotonic()
    assert main(argv + ["-o", str(tmp_path / "out")]) == 0
    elapsed = time.monotonic() - start
    assert elapsed < budget, f"{argv[0]} took {elapsed:.1f}s, budget {budget}s"


def test_cli_sg_check(tmp_path):
    good = tmp_path / "line.json"
    good.write_text(json.dumps(points_to_json(
        config([(i, i) for i in range(4)]))))
    assert main(["sg-check", str(good), "--delta", "1"]) == 0
    bad = tmp_path / "scatter.json"
    bad.write_text(json.dumps(points_to_json(
        config([(0, 0), (1, 0), (0, 1)]))))
    assert main(["sg-check", str(bad), "--delta", "1/2"]) == 1


def test_cli_bounds(capsys):
    assert main(["bounds", "--n", "10"]) == 0
    captured = capsys.readouterr()
    assert "C(n,2) = 45" in captured.out


def test_cli_pipeline_torsion_is_check_failure(tmp_path):
    bad = tmp_path / "torsion.json"
    bad.write_text(dumps_presentation(
        Presentation(("g",), ((("g", 2),),))))
    assert main(["pipeline", str(bad)]) == 1


NESTED = "[" * 200000 + "]" * 200000  # deeper than json can recurse


@pytest.mark.parametrize("command, text", [
    ("reduce", '{"generators": ["a"]}'),
    ("reduce", "[]"),
    ("reduce", '{"generators": ["a"], "relations": [[["a", true]]]}'),
    ("sg-check", '{"points": [[1, 0], [0, 1]]}'),
    ("pipeline", NESTED),
    ("reduce", NESTED),
    ("sg-check", NESTED),
], ids=["missing-relations", "top-level-list", "bool-exponent", "missing-dimension",
        "nested-pipeline", "nested-reduce", "nested-sg-check"])
def test_cli_malformed_input_exits_2(tmp_path, capsys, command, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    extra = ["--delta", "1"] if command == "sg-check" else []
    assert main([command, str(bad)] + extra) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


# Golden outputs: the exact stdout and exit code of three commands, so that a
# change to the report types underneath cannot change what the CLI prints.

GOLDEN_PIPELINE_INTRO3 = (
    "reduction pipeline, c = 24\n"
    "[pass] abelianize: |S| = 6, |R| = 6, rank = 3\n"
    "[pass] minimize: |S| = 6, |R| = 6, rank = 3\n"
    "[pass] maximal-sparse: |S| = 6, |R| = 6, rank = 3  (|R'| = 6)\n"
    "[pass] sg-reduce: |S| = 6, |R| = 6, rank = 3  (threshold 48, kept 0 "
    "points, span 0 <= 3/2, removed 6 < 288)\n"
    "[pass] augment: |S| = 6, |R| = 6, rank = 3  (|S'| = 0, d = 0)\n"
    "[pass] partition: |S| = 6, |R| = 6, rank = 3  "
    "(|R_s| = 6, |R_e| = 0, |R_o| = 0)\n"
    "[pass] replace-sparse: |S| = 15, |R| = 15, rank = 3  "
    "(|R|-|S| = 0 = |R_s|+|R_o|-|S| = 0)\n"
    "[pass] replace-subspace: |S| = 15, |R| = 15, rank = 3  "
    "(rank dropped by d = 0)\n"
    "[pass] strip-other: |S| = 15, |R| = 15, rank = 3  "
    "(stripped 0 trivial relations)\n"
    "[pass] final: |S| = 15, |R| = 15, rank = 3  "
    "(|R|-|S| = 0, chain value 0, bound 288)\n"
    "final |R| - |S| = 0 <= 288 = c k^2 / n + d: pass\n"
)


def test_cli_golden_verify_uncovered_vertices(tmp_path, capsys):
    scx = tmp_path / "uncovered.scx"
    scx.write_text("scx 1\nv 5\n0 1 2\n")
    assert main(["verify", str(scx)]) == 1
    assert capsys.readouterr().out == (
        "vertex 3 appears in no face\nvertex 4 appears in no face\n")


@pytest.mark.parametrize("count", [13, 14, 3_000_000, 10 ** 12])
def test_cli_verify_names_ten_uncovered_vertices_and_counts_the_rest(
        tmp_path, capsys, count):
    scx = tmp_path / "uncovered.scx"
    scx.write_text(f"scx 1\nv {count}\n0 1 2\n")
    start = time.monotonic()
    assert main(["verify", str(scx)]) == 1
    elapsed = time.monotonic() - start
    named = [f"vertex {v} appears in no face" for v in range(3, 13)]
    rest = [f"... and {count - 13} more vertices appear in no face"] \
        if count > 13 else []
    assert capsys.readouterr().out.splitlines() == named + rest
    assert elapsed < 1, f"verify took {elapsed:.2f}s"


@pytest.mark.parametrize("relations", [
    ((("g", 2),),),
    ((("g", 1), ("h", 1), ("g", -1), ("h", -1)),),
], ids=["torsion", "four-syllables"])
def test_cli_reduce_and_pipeline_fail_a_check_alike(tmp_path, capsys, relations):
    path = tmp_path / "bad.json"
    generators = tuple(sorted({g for rel in relations for g, _ in rel}))
    path.write_text(dumps_presentation(Presentation(generators, relations)))
    for command in ("reduce", "pipeline"):
        assert main([command, str(path)]) == 1, command
        assert capsys.readouterr().out.startswith("check failed: "), command


@pytest.mark.parametrize("points, delta, code, out", [
    ([(i, i) for i in range(4)], "1", 0,
     "threshold delta*(n-1) = 3\ntallies: 3 3 3 3\nconfiguration passes\n"),
    ([(0, 0), (1, 1), (2, 2), (0, 1)], "1/2", 1,
     "threshold delta*(n-1) = 3/2\ntallies: 2 2 2 0\npoint 3 sees only 0\n"),
], ids=["passing", "failing"])
def test_cli_golden_sg_check(tmp_path, capsys, points, delta, code, out):
    path = tmp_path / "points.json"
    path.write_text(json.dumps(points_to_json(config(points))))
    assert main(["sg-check", str(path), "--delta", delta]) == code
    assert capsys.readouterr().out == out


# The SHA-256 of sg-check's stdout on six point files, with its exit code.
GOLDEN_SG_CHECK = {
    "grid": ([(x, y) for x in range(3) for y in range(3)], "1/2", 0,
             "ccbc6ad9a80d4f28ad4b5e4a222de734d21edfe56f07d1ce8e5ec95a940eb341"),
    "line": ([(3 * i - 4, 5 - 2 * i) for i in range(6)], "1", 0,
             "ac0fbf55379e799e3f633f7bdbc5a848e5df61c7d38706971db01fa0697860b7"),
    "scatter": ([(0, 0), (5, 1), (2, 7), (-3, 4), (6, -2), (1, 3), (-4, -5),
                 (7, 6), (4, 4), (-1, -1)], "1/3", 1,
                "e8946e3b4321be55ddeb186fbe8786bd7edb2efb03410d60746512b942f4508c"),
    "cube": ([(x, y, z) for x in range(3) for y in range(3) for z in range(3)],
             "1/4", 0,
             "633e30b83daacf1463043860d11e7781878fb0993cf68fc8171f7e7deac79a64"),
    "mixed-4d": ([(i, 2 * i, -i, 1) for i in range(4)]
                 + [(j, 0, 0, 0) for j in range(3)]
                 + [(1, 1, 1, 1), (-2, 3, 0, 5), (4, -6, 0, -10)], "1/4", 1,
                 "caf0373a34072f5baa2ebd3eab4672be0279eff30871fba6e0932c5b98881c31"),
    "failing": ([(x, y) for x in range(3) for y in range(3)] + [(5, 7)], "1/2", 1,
                "777b8978c08d4258bea08259732801ce220beedb12b62945f9627256887a45f8"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SG_CHECK))
def test_cli_sg_check_stdout_is_pinned(tmp_path, capsys, name):
    points, delta, code, digest = GOLDEN_SG_CHECK[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(points_to_json(config(points))))
    assert main(["sg-check", str(path), "--delta", delta]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest, out


@pytest.mark.parametrize("text, shown", [("1.5", "1.5"), ("true", "True")])
def test_cli_sg_check_rejects_a_non_integer_coordinate(tmp_path, capsys, text, shown):
    path = tmp_path / "points.json"
    path.write_text(f'{{"dimension": 2, "points": [[1, 0], [{text}, 0]]}}')
    assert main(["sg-check", str(path), "--delta", "1/2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: point [{shown}, 0] is not a list of integers\n"


def test_cli_golden_pipeline_intro3(tmp_path, capsys):
    path = tmp_path / "intro3.json"
    path.write_text(dumps_presentation(standard_zn(3, "intro3")))
    assert main(["pipeline", str(path)]) == 0
    assert capsys.readouterr().out == GOLDEN_PIPELINE_INTRO3


def test_cli_golden_pipeline_intro3_optimized(tmp_path):
    # python -O drops every assert, so no reported check may rest on one.
    path = tmp_path / "intro3.json"
    path.write_text(dumps_presentation(standard_zn(3, "intro3")))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(
        zncomplex.__file__)))
    done = subprocess.run(
        [sys.executable, "-O", "-m", "zncomplex.cli", "pipeline", str(path)],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == GOLDEN_PIPELINE_INTRO3


# run_lower on the presentation of X_10 at both workload thresholds, captured
# before the abelianization moved to sparse unit elimination: the images
# change by a basis change of Z^n, which must not change the text.

GOLDEN_LOWER_X10_C24 = (
    "reduction pipeline, c = 24\n"
    "[pass] abelianize: |S| = 595, |R| = 630, rank = 10\n"
    "[pass] minimize: |S| = 55, |R| = 90, rank = 10\n"
    "[pass] maximal-sparse: |S| = 55, |R| = 90, rank = 10  (|R'| = 90)\n"
    "[pass] sg-reduce: |S| = 55, |R| = 90, rank = 10"
    "  (threshold 132, kept 0 points, span 0 <= 5, removed 90 < 7260)\n"
    "[pass] augment: |S| = 55, |R| = 90, rank = 10  (|S'| = 0, d = 0)\n"
    "[pass] partition: |S| = 55, |R| = 90, rank = 10"
    "  (|R_s| = 90, |R_e| = 0, |R_o| = 0)\n"
    "[pass] replace-sparse: |S| = 190, |R| = 225, rank = 10"
    "  (|R|-|S| = 35 = |R_s|+|R_o|-|S| = 35)\n"
    "[pass] replace-subspace: |S| = 190, |R| = 225, rank = 10"
    "  (rank dropped by d = 0)\n"
    "[pass] strip-other: |S| = 190, |R| = 225, rank = 10"
    "  (stripped 0 trivial relations)\n"
    "[pass] final: |S| = 190, |R| = 225, rank = 10"
    "  (|R|-|S| = 35, chain value 35, bound 7260)\n"
    "final |R| - |S| = 35 <= 7260 = c k^2 / n + d: pass\n"
)

GOLDEN_LOWER_X10_C1_8 = (
    "reduction pipeline, c = 1/8\n"
    "[pass] abelianize: |S| = 595, |R| = 630, rank = 10\n"
    "[pass] minimize: |S| = 55, |R| = 90, rank = 10\n"
    "[pass] maximal-sparse: |S| = 55, |R| = 90, rank = 10  (|R'| = 90)\n"
    "[pass] sg-reduce: |S| = 55, |R| = 90, rank = 10"
    "  (threshold 11/16, kept 55 points, span 10 <= 960, removed 0 < 605/16)\n"
    "[pass] augment: |S| = 55, |R| = 90, rank = 10  (|S'| = 55, d = 10)\n"
    "[pass] partition: |S| = 55, |R| = 90, rank = 10"
    "  (|R_s| = 0, |R_e| = 0, |R_o| = 90)\n"
    "[pass] replace-sparse: |S| = 55, |R| = 90, rank = 10"
    "  (|R|-|S| = 35 = |R_s|+|R_o|-|S| = 35)\n"
    "[pass] replace-subspace: |S| = 0, |R| = 100, rank = 0"
    "  (rank dropped by d = 10)\n"
    "[pass] strip-other: |S| = 0, |R| = 10, rank = 0"
    "  (stripped 90 trivial relations)\n"
    "[pass] final: |S| = 0, |R| = 10, rank = 0"
    "  (|R|-|S| = 10, chain value 10, bound 765/16)\n"
    "final |R| - |S| = 10 <= 765/16 = c k^2 / n + d: pass\n"
)


def test_golden_run_lower_x10():
    pres = extract_presentation(build_x(10), 0)
    assert run_lower(pres, 24).render() == GOLDEN_LOWER_X10_C24
    assert run_lower(pres, Fraction(1, 8)).render() == GOLDEN_LOWER_X10_C1_8


GOLDEN_UPPER_8 = (
    "m = 8 (even), factorization size 8\n"
    "block complex: 73 vertices, 909 faces\n"
    "collapsed complex: 31 vertices, 825 faces\n"
    "[pass] vertex count: 31 (expected 31)\n"
    "[pass] every set is a spur: 14 spurs\n"
    "[pass] spurs pairwise compatible\n"
    "[pass] homology preserved by the collapses: betti [1, 8, 28], "
    "torsion [(), (), ()]\n"
    "[pass] first homology is Z^m: H1 = Z^8, torsion []\n"
    "[pass] second homology is torsion-free of rank C(m,2): H2 = Z^28\n"
)


def test_golden_run_upper_8():
    assert run_upper(8).render() == GOLDEN_UPPER_8


GOLDEN_UPPER_7 = (
    "m = 7 (odd), factorization size 8\n"
    "block complex: 57 vertices, 687 faces\n"
    "collapsed complex: 29 vertices, 631 faces\n"
    "[pass] vertex count: 29 (expected 29)\n"
    "[pass] every set is a spur: 14 spurs\n"
    "[pass] spurs pairwise compatible\n"
    "[pass] homology preserved by the collapses: betti [1, 7, 21], "
    "torsion [(), (), ()]\n"
    "[pass] first homology is Z^m: H1 = Z^7, torsion []\n"
    "[pass] second homology is torsion-free of rank C(m,2): H2 = Z^21\n"
)


def test_golden_run_upper_7():
    assert run_upper(7).render() == GOLDEN_UPPER_7


@pytest.mark.parametrize("command, flag", [
    ("sg-check", "--delta"), ("pipeline", "--c")])
def test_cli_zero_denominator_exits_2(tmp_path, capsys, command, flag):
    path = tmp_path / "input.json"
    if command == "sg-check":
        path.write_text(json.dumps(points_to_json(config([(0, 0), (1, 1)]))))
    else:
        path.write_text(dumps_presentation(standard_zn(2, "intro3")))
    assert main([command, str(path), flag, "1/0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: '1/0' has a zero denominator\n"


def test_cli_sg_check_empty_configuration_exits_2(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text('{"dimension": 2, "points": []}')
    assert main(["sg-check", str(path), "--delta", "1/2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the configuration has no points\n"
