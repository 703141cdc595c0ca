"""1-factorizations and orthogonal pairs."""

import hashlib
import time

import pytest

from zncomplex import factorization
from zncomplex.errors import PipelineStageError, UnsupportedSizeError
from zncomplex.report import Report
from zncomplex.factorization import (
    OrthogonalPair,
    all_edges,
    dumps_pair,
    loads_factorization,
    orthogonal_pair,
    round_robin_factorization,
    validate_factorization,
    verify_orthogonal_pair,
)


def test_round_robin_size_2():
    fact = round_robin_factorization(2)
    assert fact.matchings == (frozenset({(1, 2)}),)


def test_round_robin_size_4():
    fact = round_robin_factorization(4)
    assert len(fact.matchings) == 3
    covered = set().union(*fact.matchings)
    assert covered == set(all_edges(4))
    assert validate_factorization(fact)


@pytest.mark.parametrize("size", [2, 4, 6, 8, 10, 12, 14, 16])
def test_round_robin_invariants(size):
    report = validate_factorization(round_robin_factorization(size))
    assert report, report.violations


def test_round_robin_rejects_bad_sizes():
    with pytest.raises(ValueError):
        round_robin_factorization(3)
    with pytest.raises(ValueError):
        round_robin_factorization(0)


@pytest.mark.parametrize("size", [2, 8, 10, 12, 14, 16])
def test_orthogonal_pair_valid(size):
    pair = orthogonal_pair(size)
    assert validate_factorization(pair.first), size
    assert validate_factorization(pair.second), size
    assert verify_orthogonal_pair(pair)


@pytest.mark.parametrize("size", [4, 6])
def test_orthogonal_pair_excluded_sizes(size):
    with pytest.raises(UnsupportedSizeError):
        orthogonal_pair(size)


def test_orthogonal_pair_rejects_odd():
    with pytest.raises(ValueError):
        orthogonal_pair(7)


def test_orthogonal_pair_deterministic():
    assert orthogonal_pair(10) == orthogonal_pair(10)
    assert orthogonal_pair(16) == orthogonal_pair(16)


def test_orthogonal_pair_every_size_to_48():
    start = time.monotonic()
    for size in range(2, 49, 2):
        if size in (4, 6):
            continue
        pair = orthogonal_pair(size)
        assert validate_factorization(pair.first), size
        assert validate_factorization(pair.second), size
        assert verify_orthogonal_pair(pair), size
    elapsed = time.monotonic() - start
    assert elapsed < 30, f"sweep took {elapsed:.1f}s, budget 30s"


# SHA-256 of dumps_pair(orthogonal_pair(size)), fixed since the pairs for
# these sizes feed X_m and the presentations P_m built from them.
PAIR_DIGESTS = {
    2: "19e3a863b9312987bc5356f06b6796379e30e09b7ffdca01d668b8a409b033dd",
    8: "8fd1828690c3cd1b987271f758c6e337208331148e66a4d01856a99431af4bb5",
    10: "0b7bcc196a390a5435977f988b70e473159672f5ed1a74b5bb5b91779e6b3991",
    12: "f4da11da5ad274e0793486c4a1c38be9b568e2e9fd4e924ac92807ee1b144da7",
    14: "79aab1143b3568a6b4b92bb3dcaad311897363fc8ed168635257e252b3fec5b6",
}


@pytest.mark.parametrize("size", sorted(PAIR_DIGESTS))
def test_orthogonal_pair_pinned(size):
    text = dumps_pair(orthogonal_pair(size))
    assert hashlib.sha256(text.encode()).hexdigest() == PAIR_DIGESTS[size]


def test_orthogonal_pair_verified_once(monkeypatch):
    calls = []
    witness = ((1, 2), (3, 4), 0, 0)

    def failing(pair):
        calls.append(pair)
        return Report(False, ("edges share a matching",), witness)

    monkeypatch.setattr(factorization, "verify_orthogonal_pair", failing)
    with pytest.raises(PipelineStageError) as info:
        orthogonal_pair(12)
    assert len(calls) == 1
    assert info.value.witness == witness


def test_orthogonal_pair_validates_each_half(monkeypatch):
    # Round 8 of the stored size-10 mate now repeats the edge 1-2 of round 0.
    corrupted = factorization._SIZE_10_MATE.replace("1-10 2-4", "1-10 1-2", 1)
    assert corrupted != factorization._SIZE_10_MATE
    monkeypatch.setattr(factorization, "_SIZE_10_MATE", corrupted)
    with pytest.raises(PipelineStageError) as info:
        orthogonal_pair(10)
    assert info.value.stage == "orthogonal pair"
    assert "second factorization" in str(info.value)
    assert info.value.witness == validate_factorization(
        loads_factorization(corrupted, size=10)).violations
    assert any("repeated" in line for line in info.value.witness)


def test_self_pair_not_orthogonal_for_size_8():
    fact = round_robin_factorization(8)
    report = verify_orthogonal_pair(OrthogonalPair(fact, fact))
    assert not report
    edge, edge2, first_idx, second_idx = report.witness
    assert edge in fact.matchings[first_idx]
    assert edge2 in fact.matchings[second_idx]


def test_self_pair_vacuous_for_size_2():
    fact = round_robin_factorization(2)
    assert verify_orthogonal_pair(OrthogonalPair(fact, fact))


def test_verify_rejects_size_mismatch():
    with pytest.raises(ValueError):
        verify_orthogonal_pair(OrthogonalPair(
            round_robin_factorization(4), round_robin_factorization(6)))


def test_pair_text_round_trip():
    pair = orthogonal_pair(8)
    text = dumps_pair(pair)
    assert "%" in text
    head, _, tail = text.partition("\n%\n")
    again = OrthogonalPair(loads_factorization(head), loads_factorization(tail))
    assert again == pair
    assert dumps_pair(again) == text
