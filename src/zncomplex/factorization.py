"""Perfect matchings, 1-factorizations of K_2n, and orthogonal pairs.

Points are labeled 1..2n.  A 1-factorization partitions the edge set of the
complete graph into 2n-1 perfect matchings; two factorizations are orthogonal
when no two edges share a matching in both.  Orthogonal pairs exist for all
sizes 2n except 4 and 6 (Mullin & Wallis, 1975).

One construction serves every size: the round-robin factorization, which is
the development of the patterned starter {-s, s} in Z_{2n-1}, paired with the
development of a strong starter in Z_{2n-1}.  The starter argument holds in
Z_m for any odd m, prime or not.  A seeded hill-climb finds the strong
starter in bounded time; a sweep over every even size from 8 to 400 but 10
found one each time.  Z_9 has no strong starter, so size 10 uses one stored
pair instead, and the starters of Z_7, Z_11, Z_13 and Z_27 are stored
because the pairs and complexes built from them are pinned.
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
        buckets: dict[int, list[Edge]] = {}
        for edge in sorted(matching):
            shared = second_index.get(edge)
            if shared is not None:
                buckets.setdefault(shared, []).append(edge)
        clashes = [(bucket, shared) for shared, bucket in buckets.items()
                   if len(bucket) > 1]
        if clashes:
            bucket, shared = min(clashes)
            e, e2 = bucket[0], bucket[1]
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


def _append(items: list[int], at: dict[int, int], item: int) -> None:
    at[item] = len(items)
    items.append(item)


def _swap_remove(items: list[int], at: dict[int, int], item: int) -> None:
    """Remove item by moving the last entry into its place."""
    last = items.pop()
    i = at.pop(item)
    if last != item:
        items[i] = last
        at[last] = i


# Restarts of the climb before a modulus is given up on.  A sweep of every
# even size from 8 to 400 needed at most 3.
_CLIMB_SEEDS = 20


def _strong_starter(m: int) -> list[tuple[int, int]]:
    """Starter in Z_m, for any odd m, whose pair sums are distinct and nonzero.

    Such a starter generates a factorization orthogonal to the patterned one
    (the round-robin factorization): two translated pairs land on
    {x, -x}-type pairs of a common translate exactly when their sums
    collide, and a sum of zero collides with the untranslated patterned
    matching itself.  Nothing in this argument needs m to be prime.

    The hill-climb of Dinitz & Stinson (SIAM J. Alg. Disc. Meth. 8, 1987)
    builds one pair per difference class d = 1..(m-1)/2.  A step picks an
    uncovered x and an unused class d, sets y = x +- d, and accepts {x, y}
    when at most one placed pair conflicts with it, on y or on the sum
    x + y; that pair is evicted.  Every 200*m steps the climb restarts from
    the next seed of a fixed sequence, so the result is deterministic.
    Z_3, Z_5 and Z_9 have no strong starter; the climb finds one for every
    odd m from 7 to 399 but 9 within a few seeds, and raises
    UnsupportedSizeError once _CLIMB_SEEDS seeds have failed.
    """
    half = (m - 1) // 2
    for seed in range(_CLIMB_SEEDS):
        draw = random.Random(seed).random
        pair_of: dict[int, tuple[int, int]] = {}   # class -> (x, y)
        class_at: dict[int, int] = {}              # element -> class
        class_of_sum: dict[int, int] = {}          # pair sum -> class
        # Uncovered elements and unused classes: lists with position maps,
        # so that a random pick, an add and a removal each cost O(1).
        uncovered = list(range(1, m))
        uncovered_at = {x: i for i, x in enumerate(uncovered)}
        unused = list(range(1, half + 1))
        unused_at = {d: i for i, d in enumerate(unused)}
        for _ in range(200 * m):
            x = uncovered[int(draw() * len(uncovered))]
            d = unused[int(draw() * len(unused))]
            y = (x + d) % m if draw() < 0.5 else (x - d) % m
            s = (x + y) % m
            if y == 0 or s == 0:
                continue
            old = class_at.get(y)
            by_sum = class_of_sum.get(s)
            if old is None:
                old = by_sum
            elif by_sum is not None and by_sum != old:
                continue
            if old is not None:
                a, b = pair_of.pop(old)
                del class_at[a], class_at[b], class_of_sum[(a + b) % m]
                _append(uncovered, uncovered_at, a)
                _append(uncovered, uncovered_at, b)
                _append(unused, unused_at, old)
            pair_of[d] = (x, y)
            class_at[x] = class_at[y] = d
            class_of_sum[s] = d
            _swap_remove(uncovered, uncovered_at, x)
            _swap_remove(uncovered, uncovered_at, y)
            _swap_remove(unused, unused_at, d)
            if not unused:
                return [pair_of[d] for d in range(1, half + 1)]
    raise UnsupportedSizeError(
        f"no strong starter in Z_{m} after {_CLIMB_SEEDS} restarts")


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


# The starters the depth-first search that preceded the climb found in
# these moduli.  They are kept because the pairs of sizes 8, 12 and 14 and
# the presentations of X_7, X_12 and X_28 built from them are pinned.
_STORED_STARTERS = {
    7: [(2, 3), (4, 6), (5, 1)],
    11: [(8, 9), (4, 6), (2, 5), (10, 3), (7, 1)],
    13: [(9, 10), (5, 7), (1, 4), (12, 3), (6, 11), (2, 8)],
    27: [(15, 16), (17, 19), (10, 13), (14, 18), (3, 8), (23, 2), (4, 11),
         (20, 1), (24, 6), (26, 9), (21, 5), (22, 7), (12, 25)],
}


def orthogonal_pair(size: int) -> OrthogonalPair:
    """Deterministic orthogonal pair of 1-factorizations of K_size.

    Sizes 4 and 6 are the genuinely impossible cases and raise
    UnsupportedSizeError.  The first factorization is always the
    round-robin one.  Its mate is the same factorization for size 2 (the
    pair is vacuously orthogonal), a stored factorization for size 10, and
    otherwise the development of a strong starter in Z_{size-1}: a stored
    one for sizes 8, 12, 14 and 28, whose pairs or complexes are pinned,
    and the hill-climb's for the rest.  A sweep found a pair for every even
    size from 8 to 400; at any size the climb ends in bounded time, with
    UnsupportedSizeError if it finds no starter.  Each half is
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
        strong = _STORED_STARTERS.get(size - 1) or _strong_starter(size - 1)
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
