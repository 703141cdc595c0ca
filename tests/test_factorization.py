"""1-factorizations and orthogonal pairs."""

import hashlib
import random
import time

import pytest

from orthogonal_oracle import pairwise_verify
from zncomplex import factorization
from zncomplex.errors import PipelineStageError, UnsupportedSizeError
from zncomplex.report import Report
from zncomplex.factorization import (
    OneFactorization,
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


def test_orthogonal_pair_every_size_to_128_under_a_second_each():
    for size in range(8, 129, 2):
        start = time.monotonic()
        pair = orthogonal_pair(size)
        elapsed = time.monotonic() - start
        assert validate_factorization(pair.first), size
        assert validate_factorization(pair.second), size
        assert verify_orthogonal_pair(pair), size
        assert elapsed < 1, f"size {size} took {elapsed:.2f}s, budget 1s"


@pytest.mark.parametrize("size", [50, 100])
def test_climbed_pairs_are_deterministic(size):
    assert orthogonal_pair(size) == orthogonal_pair(size)


def _is_strong_starter(pairs, m):
    elements = sorted(x for pair in pairs for x in pair)
    classes = sorted(min((x - y) % m, (y - x) % m) for x, y in pairs)
    sums = [(x + y) % m for x, y in pairs]
    return (elements == list(range(1, m))
            and classes == list(range(1, (m - 1) // 2 + 1))
            and 0 not in sums and len(set(sums)) == len(sums))


@pytest.mark.parametrize("m", [7, 11, 13, 15, 25, 27, 49, 99, 127])
def test_climb_finds_a_strong_starter(m):
    assert _is_strong_starter(factorization._strong_starter(m), m)


@pytest.mark.parametrize("m", [3, 5, 9])
def test_climb_gives_up_where_no_strong_starter_exists(m):
    with pytest.raises(UnsupportedSizeError):
        factorization._strong_starter(m)


def _corrupted(pair, rng):
    """The pair with its second factorization relabeled, reshuffled or thinned."""
    size = pair.first.size
    matchings = [sorted(matching) for matching in pair.second.matchings]
    kind = rng.randrange(3)
    if kind == 0:
        image = list(range(1, size + 1))
        rng.shuffle(image)
        matchings = [[factorization._edge(image[a - 1], image[b - 1])
                      for a, b in matching] for matching in matchings]
    elif kind == 1:
        for _ in range(rng.randint(1, 3)):
            i, j = rng.sample(range(len(matchings)), 2)
            if matchings[i]:
                matchings[j].append(
                    matchings[i].pop(rng.randrange(len(matchings[i]))))
    else:
        matchings = [[edge for edge in matching if rng.random() < 0.8]
                     for matching in matchings]
    second = OneFactorization(size, tuple(frozenset(m) for m in matchings))
    return OrthogonalPair(pair.first, second)


def test_verify_matches_the_pairwise_oracle_on_corrupted_pairs():
    rng = random.Random(2024)
    trials = failures = 0
    for size in (8, 12, 14, 16, 20, 26):
        pair = orthogonal_pair(size)
        for _ in range(60):
            corrupted = _corrupted(pair, rng)
            got = verify_orthogonal_pair(corrupted)
            want = pairwise_verify(corrupted)
            assert (bool(got), got.violations, got.witness) == (
                bool(want), want.violations, want.witness)
            trials += 1
            failures += not want
    # Thinning never breaks orthogonality; relabeling almost always does.
    assert trials / 3 < failures < trials


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
