"""Perfect matchings, 1-factorizations of K_2n, and orthogonal pairs.

Points are labeled 1..2n.  A 1-factorization partitions the edge set of the
complete graph into 2n-1 perfect matchings; two factorizations are orthogonal
when no two edges share a matching in both.  Orthogonal pairs exist for all
sizes 2n except 4 and 6 (Mullin & Wallis, 1975).

One construction serves every size: the round-robin factorization, which is
the development of the patterned starter {-s, s} in Z_{2n-1}, paired with the
development of a strong starter in Z_{2n-1}.  The starter argument holds in
Z_m for any odd m, prime or not.  Z_9 has no strong starter, so size 10 uses
one stored pair instead.  Sizes up to 48 are covered.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import PipelineStageError, UnsupportedSizeError
from .report import Report

Edge = tuple[int, int]
Matching = frozenset[Edge]


@dataclass(frozen=True)
class OneFactorization:
    size: int
    matchings: tuple[Matching, ...]


@dataclass(frozen=True)
class OrthogonalPair:
    first: OneFactorization
    second: OneFactorization


def _edge(a: int, b: int) -> Edge:
    return (a, b) if a < b else (b, a)


def all_edges(size: int) -> list[Edge]:
    return [(a, b) for a in range(1, size + 1) for b in range(a + 1, size + 1)]


def validate_factorization(fact: OneFactorization) -> Report:
    """Exact partition check: disjoint perfect matchings covering K_size."""
    violations = []
    size = fact.size
    if size < 2 or size % 2:
        return Report.of([f"size {size} is not an even integer >= 2"])
    if len(fact.matchings) != size - 1:
        violations.append(
            f"expected {size - 1} matchings, found {len(fact.matchings)}")
    seen: dict[Edge, int] = {}
    for idx, matching in enumerate(fact.matchings):
        covered: set[int] = set()
        for edge in matching:
            a, b = edge
            if not (1 <= a < b <= size):
                violations.append(f"matching {idx}: bad edge {edge}")
                continue
            if a in covered or b in covered:
                violations.append(f"matching {idx}: edges overlap at {edge}")
            covered.update(edge)
            if edge in seen:
                violations.append(
                    f"edge {edge} repeated in matchings {seen[edge]} and {idx}")
            seen[edge] = idx
        if covered != set(range(1, size + 1)):
            violations.append(f"matching {idx} is not perfect")
    missing = set(all_edges(size)) - set(seen)
    if missing:
        violations.append(f"edges never covered: {sorted(missing)[:4]}")
    return Report.of(violations)


def round_robin_factorization(size: int) -> OneFactorization:
    """Circle-method factorization: point `size` fixed, the rest rotating.

    It is the development of the patterned starter {-s, s}, s = 1..size/2-1,
    in Z_{size-1}: round r pairs the fixed point with r and r-s with r+s.
    """
    if size < 2 or size % 2:
        raise ValueError(f"size must be an even integer >= 2, got {size}")
    m = size - 1
    return _starter_factorization([(-s % m, s) for s in range(1, size // 2)], size)


def verify_orthogonal_pair(pair: OrthogonalPair) -> Report:
    """No two edges may share a matching in both factorizations.

    A failing report's witness is (edge, edge', first index, second index):
    two edges of matching `first index` of the first factorization that
    both lie in matching `second index` of the second.
    """
    if pair.first.size != pair.second.size:
        raise ValueError("factorizations have different sizes")
    second_index: dict[Edge, int] = {}
    for idx, matching in enumerate(pair.second.matchings):
        for edge in matching:
            second_index[edge] = idx
    for idx, matching in enumerate(pair.first.matchings):
        edges = sorted(matching)
        for i, e in enumerate(edges):
            for e2 in edges[i + 1:]:
                shared = second_index.get(e)
                if shared is not None and shared == second_index.get(e2):
                    return Report.of(
                        [f"edges {e} and {e2} share matching {idx} of the "
                         f"first and {shared} of the second"],
                        (e, e2, idx, shared))
    return Report(True)


def _starter_factorization(pairs: list[tuple[int, int]], size: int) -> OneFactorization:
    """Translates of a starter in Z_{size-1}, residue 0 labeled size-1.

    Round t holds the edge {size, t} plus the starter pairs shifted by t.
    """
    m = size - 1

    def label(r: int) -> int:
        return r % m or m

    rounds = []
    for t in range(m):
        edges = [_edge(size, label(t))]
        for x, y in pairs:
            edges.append(_edge(label(x + t), label(y + t)))
        rounds.append(frozenset(edges))
    return OneFactorization(size, tuple(rounds))


def _strong_starter(m: int) -> list[tuple[int, int]] | None:
    """Starter in Z_m, for any odd m, whose pair sums are distinct and nonzero.

    Such a starter generates a factorization orthogonal to the patterned one
    (the round-robin factorization): two translated pairs land on
    {x, -x}-type pairs of a common translate exactly when their sums
    collide, and a sum of zero collides with the untranslated patterned
    matching itself.  Nothing in this argument needs m to be prime.  Z_3,
    Z_5 and Z_9 have no strong starter; for every other odd m up to 47 the
    search finds one, and None means it found none.  Depth-first search
    over the difference classes 1..(m-1)/2, with candidates in a fixed
    pseudo-random order.
    """
    rng = random.Random(0)
    used: set[int] = set()
    sums: set[int] = set()
    pairs: list[tuple[int, int]] = []

    def place(d: int) -> bool:
        if d > (m - 1) // 2:
            return True
        candidates = list(range(1, m))
        rng.shuffle(candidates)
        for x in candidates:
            y = (x + d) % m
            s = (x + y) % m
            if y == 0 or x in used or y in used or s == 0 or s in sums:
                continue
            used.update((x, y))
            sums.add(s)
            pairs.append((x, y))
            if place(d + 1):
                return True
            pairs.pop()
            used.difference_update((x, y))
            sums.discard(s)
        return False

    return pairs if place(1) else None


# Z_9 has no strong starter, so size 10 keeps one stored mate of the
# round-robin factorization.
_SIZE_10_MATE = """
1-2 3-8 4-5 6-9 7-10
1-3 2-7 4-6 5-9 8-10
1-4 2-9 3-5 6-10 7-8
1-5 2-6 3-7 4-8 9-10
1-6 2-3 4-7 5-10 8-9
1-7 2-8 3-10 4-9 5-6
1-8 2-5 3-9 4-10 6-7
1-9 2-10 3-4 5-7 6-8
1-10 2-4 3-6 5-8 7-9
"""


def orthogonal_pair(size: int) -> OrthogonalPair:
    """Deterministic orthogonal pair of 1-factorizations of K_size.

    Sizes 4 and 6 are the genuinely impossible cases and raise
    UnsupportedSizeError.  The first factorization is always the
    round-robin one.  Its mate is the same factorization for size 2 (the
    pair is vacuously orthogonal), a stored factorization for size 10, and
    otherwise the development of a strong starter in Z_{size-1}.  Every
    even size from 2 to 48 except 4 and 6 is covered.  Each half is
    validated, then the pair is checked, once each, before it is returned.
    A failure raises PipelineStageError; it names a half that is not a
    1-factorization, with the violations as the witness.
    """
    if size < 2 or size % 2:
        raise ValueError(f"size must be an even integer >= 2, got {size}")
    if size in (4, 6):
        raise UnsupportedSizeError(
            f"no orthogonal pair of 1-factorizations of K_{size} exists")
    first = round_robin_factorization(size)
    if size == 2:
        second = first
    elif size == 10:
        second = loads_factorization(_SIZE_10_MATE, size=10)
    else:
        strong = _strong_starter(size - 1)
        if strong is None:
            raise UnsupportedSizeError(f"no strong starter in Z_{size - 1}")
        second = _starter_factorization(strong, size)
    for name, half in (("first", first), ("second", second)):
        report = validate_factorization(half)
        if not report:
            raise PipelineStageError(
                "orthogonal pair", f"the {name} factorization of size {size} "
                f"is not a 1-factorization: {report.violations[0]}",
                report.violations)
    pair = OrthogonalPair(first, second)
    report = verify_orthogonal_pair(pair)
    if not report:
        raise PipelineStageError("orthogonal pair",
                                 f"size {size} pair is not orthogonal, "
                                 f"witness {report.witness}",
                                 report.witness)
    return pair


def _matching_line(matching: Matching) -> str:
    return " ".join(f"{a}-{b}" for a, b in sorted(matching))


def dumps_factorization(fact: OneFactorization) -> str:
    return "\n".join(_matching_line(m) for m in fact.matchings) + "\n"


def loads_factorization(text: str, size: int | None = None) -> OneFactorization:
    matchings = []
    points = 0
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        edges = []
        for token in line.split():
            a, _, b = token.partition("-")
            edges.append(_edge(int(a), int(b)))
            points = max(points, int(a), int(b))
        matchings.append(frozenset(edges))
    return OneFactorization(size if size is not None else points, tuple(matchings))


def dumps_pair(pair: OrthogonalPair) -> str:
    return (dumps_factorization(pair.first) + "%\n"
            + dumps_factorization(pair.second))


def write_pair(pair: OrthogonalPair, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_pair(pair))
