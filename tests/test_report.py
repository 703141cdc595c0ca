"""Every check returns one Report: ok, violation lines and a witness."""

import inspect
from fractions import Fraction

import pytest

import zncomplex
from zncomplex.factorization import (
    OneFactorization,
    OrthogonalPair,
    orthogonal_pair,
    round_robin_factorization,
    validate_factorization,
    verify_orthogonal_pair,
)
from zncomplex.hyperforest import hyperforest_report
from zncomplex.presentation import (
    Presentation,
    abelian_images,
    deficiency_bounds,
    is_sparse,
    standard_zn,
)
from zncomplex.report import Report
from zncomplex.sg import config, is_delta_sg, linear_mode_report
from zncomplex.simplicial import (
    SimplicialComplex,
    closure_of,
    from_maximal_faces,
    is_spur,
    validate,
)


def no_witness(report):
    assert report.witness is None


def forest_witness(report):
    closure, edges = report.witness
    assert isinstance(closure, frozenset) and isinstance(edges, tuple)
    assert all(isinstance(i, int) for i in edges)
    assert len(edges) > len(closure) - 1


def sparse_witness(report):
    generators, relations = report.witness
    assert generators == frozenset("abc") and relations == (0, 1, 2)


def orthogonality_witness(report):
    edge, edge2, first, second = report.witness
    matchings = ROUND_ROBIN_8.matchings
    assert edge != edge2
    assert {edge, edge2} <= matchings[first] and {edge, edge2} <= matchings[second]


def delta_sg_witness(report):
    required, tallies = report.witness
    assert required == Fraction(1) and tallies == (0, 0, 0)


TRIPLE = Presentation(("a", "b", "c"), (
    (("a", 1), ("b", 1), ("c", 1)),
    (("a", 1), ("b", 1), ("c", 1)),
    (("b", 1), ("a", 1), ("c", 1))))
PATH = from_maximal_faces([(0, 1), (0, 2)])
TRIANGLE = from_maximal_faces([(0, 1, 2)])
ROUND_ROBIN_8 = round_robin_factorization(8)

# check name -> (passing call, failing call, witness shape of the failure)
CHECKS = {
    "validate": (
        lambda: validate(TRIANGLE),
        lambda: validate(SimplicialComplex(closure_of([(0, 1)]), 3)),
        no_witness),
    "is_spur": (
        lambda: is_spur(PATH, 0, [1, 2]),
        lambda: is_spur(TRIANGLE, 0, [1, 2]),
        no_witness),
    "validate_factorization": (
        lambda: validate_factorization(ROUND_ROBIN_8),
        lambda: validate_factorization(
            OneFactorization(8, ROUND_ROBIN_8.matchings[:-1])),
        no_witness),
    "linear_mode_report": (
        lambda: linear_mode_report(config([(1, 0), (0, 1)])),
        lambda: linear_mode_report(config([(1, 0), (2, 0)])),
        no_witness),
    "deficiency_bounds": (
        lambda: deficiency_bounds(standard_zn(3, "commutator"), 3),
        lambda: deficiency_bounds(Presentation(("a",), ()), 3),
        no_witness),
    "hyperforest_report": (
        lambda: hyperforest_report([{0, 1, 2}, {1, 2, 3}]),
        lambda: hyperforest_report([{0, 1, 2}, {1, 2, 3}, {0, 1, 3}, {0, 2, 3}]),
        forest_witness),
    "is_sparse": (
        lambda: is_sparse(TRIPLE, abelian_images(TRIPLE), [0, 1]),
        lambda: is_sparse(TRIPLE, abelian_images(TRIPLE), [0, 1, 2]),
        sparse_witness),
    "verify_orthogonal_pair": (
        lambda: verify_orthogonal_pair(orthogonal_pair(8)),
        lambda: verify_orthogonal_pair(OrthogonalPair(ROUND_ROBIN_8, ROUND_ROBIN_8)),
        orthogonality_witness),
    "is_delta_sg": (
        lambda: is_delta_sg(config([(i, 2 * i) for i in range(1, 5)]), 1),
        lambda: is_delta_sg(config([(0, 0), (1, 0), (0, 1)]), Fraction(1, 2)),
        delta_sg_witness),
}


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_every_check_returns_report(name):
    passing, failing, witness_shape = CHECKS[name]
    good = passing()
    assert type(good) is Report and good and good.ok
    assert good.violations == ()
    bad = failing()
    assert type(bad) is Report and not bad and not bad.ok
    assert bad.violations and all(isinstance(v, str) and v for v in bad.violations)
    witness_shape(bad)


def test_report_of_passes_exactly_without_violations():
    assert Report.of([]) == Report(True)
    assert Report.of(["x"], witness=7) == Report(False, ("x",), 7)


def test_only_run_records_define_other_report_classes():
    names = {cls.__name__
             for module in (zncomplex.factorization, zncomplex.hyperforest,
                            zncomplex.pipeline, zncomplex.presentation,
                            zncomplex.report, zncomplex.sg, zncomplex.simplicial)
             for _, cls in inspect.getmembers(module, inspect.isclass)
             if cls.__module__ == module.__name__ and cls.__name__.endswith("Report")}
    assert names == {"Report", "UpperReport", "PipelineReport"}
