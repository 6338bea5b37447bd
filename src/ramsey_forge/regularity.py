"""Regular-pair certification and fixed-k partitions.

A pair (X, Y) is eps-regular when every subpair (X', Y') with |X'| >= eps|X|
and |Y'| >= eps|Y| has density within eps of d(X, Y).  Certification iterates
only subpairs of the threshold sizes m_x = ceil(eps|X|), m_y = ceil(eps|Y|):
for a fixed Y', removing from X' the vertex of smallest contribution never
lowers the density (it is the mean of per-vertex densities), and dually for
the largest contribution, so any violation at larger sizes forces one at the
threshold sizes.  The tests keep a reference checker that iterates every
admissible subpair with no such reduction; both must agree.

The checkers compare integer edge counts, not densities: with e0 edges
between X and Y, a threshold-size subpair with e edges deviates from d(X, Y)
by more than eps iff its gap e|X||Y| - e0 m_x m_y exceeds floor(eps|X||Y| m_x m_y)
in absolute value (the density test times the constant |X||Y| m_x m_y > 0).
Every violating witness, from either checker, is rechecked on its own by
exact edge counts against d(X, Y) and eps; a failed recheck raises
VerificationError.

The sampled checker draws `budget` random subpairs of the threshold sizes,
keeps the one of largest gap and grows that gap by single-vertex swaps.  Its
draws are positions into the sorted sides, and random.sample picks positions
by the population's length alone, so every pair of one partition attempt
(equal class sizes, one seed) reuses one cached list of draws.  The swap
search keeps each vertex's count of neighbours in the other side's current
subset (Kernighan-Lin gain bookkeeping): a candidate swap's gap costs O(1),
and an accepted swap updates the other side's counts in O(side).
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

from .graphs import Graph, edges_between, mask_of, pair_density, threshold_size
from .morphisms import VerificationError

EXHAUSTIVE_SIDE_CAP = 16

CERTIFIED = "certified_regular"
VIOLATED = "violated"
UNREFUTED = "unrefuted"

MODE_EXHAUSTIVE = "exhaustive"
MODE_SAMPLED = "sampled"

DEFAULT_SAMPLE_BUDGET = 200


@dataclass(frozen=True)
class RegularityParams:
    eps: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "eps", Fraction(self.eps))
        if not 0 < self.eps < 1:
            raise ValueError("eps must lie in (0, 1)")


@dataclass(frozen=True)
class Partition:
    """Equitable partition: exceptional class V_0 plus equal classes V_1..V_k."""

    n: int
    exceptional: frozenset[int]
    classes: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for cls in (self.exceptional, *self.classes):
            if seen & cls:
                raise ValueError("partition classes must be disjoint")
            seen |= cls
        if seen != set(range(self.n)):
            raise ValueError("classes must cover exactly 0..n-1")
        sizes = {len(c) for c in self.classes}
        if len(sizes) > 1:
            raise ValueError("non-exceptional classes must have equal sizes")

    @property
    def k(self) -> int:
        return len(self.classes)


@dataclass(frozen=True)
class RegularityVerdict:
    status: str  # CERTIFIED | VIOLATED | UNREFUTED
    witness_x: frozenset[int] | None = None
    witness_y: frozenset[int] | None = None
    samples_tried: int = 0
    density: Fraction | None = None  # d(X, Y); regularity_check sets it

    @property
    def treated_regular(self) -> bool:
        return self.status in (CERTIFIED, UNREFUTED)


def regularity_check(
    g: Graph,
    xs: Sequence[int],
    ys: Sequence[int],
    params: RegularityParams,
    mode: str = MODE_EXHAUSTIVE,
    budget: int = DEFAULT_SAMPLE_BUDGET,
    seed: int = 0,
) -> RegularityVerdict:
    """Certify or refute eps-regularity of the pair (X, Y).

    Exhaustive mode (sides capped at 16) returns certified_regular or a
    re-checkable violating witness.  Sampled mode never certifies: it returns
    violated or unrefuted.  Either verdict carries d(X, Y).
    """
    d0 = pair_density(g, xs, ys)  # validates X and Y
    xs, ys = sorted(set(xs)), sorted(set(ys))
    if mode == MODE_EXHAUSTIVE and max(len(xs), len(ys)) > EXHAUSTIVE_SIDE_CAP:
        raise ValueError(f"exhaustive mode caps sides at {EXHAUSTIVE_SIDE_CAP}")
    if mode not in (MODE_EXHAUSTIVE, MODE_SAMPLED):
        raise ValueError(f"unknown mode {mode!r}")
    eps = params.eps
    m_x = threshold_size(eps, len(xs))
    m_y = threshold_size(eps, len(ys))
    nxy = len(xs) * len(ys)
    e0 = d0.numerator * nxy // d0.denominator
    limit = eps.numerator * nxy * m_x * m_y // eps.denominator
    if mode == MODE_EXHAUSTIVE:
        verdict = _check_exhaustive(g, xs, ys, m_x, m_y, e0, limit)
    else:
        verdict = _check_sampled(g, xs, ys, m_x, m_y, e0, limit, budget, seed)
    if verdict.status == VIOLATED and not _violates(g, xs, ys, eps, verdict):
        raise VerificationError("regularity witness does not violate eps-regularity")
    return replace(verdict, density=d0)


def _violates(
    g: Graph, xs: list[int], ys: list[int], eps: Fraction, v: RegularityVerdict
) -> bool:
    """Independent recheck of a witness: X' in X and Y' in Y with |X'| >= eps|X|,
    |Y'| >= eps|Y| and |d(X', Y') - d(X, Y)| > eps, by exact integer edge counts."""
    wx, wy = v.witness_x or frozenset(), v.witness_y or frozenset()
    nx, ny, a, b = len(xs), len(ys), len(wx), len(wy)
    p, q = eps.numerator, eps.denominator
    if not (wx <= set(xs) and wy <= set(ys) and a * q >= p * nx and b * q >= p * ny):
        return False
    e = edges_between(g, mask_of(wx), mask_of(wy))
    e0 = edges_between(g, mask_of(xs), mask_of(ys))
    return abs(e * nx * ny - e0 * a * b) * q > p * nx * ny * a * b


def _check_exhaustive(
    g: Graph, xs: list[int], ys: list[int], m_x: int, m_y: int, e0: int, limit: int
) -> RegularityVerdict:
    nxy, base = len(xs) * len(ys), e0 * m_x * m_y
    for xsub in itertools.combinations(xs, m_x):
        xmask = mask_of(xsub)
        by_count = sorted(((g.adj[y] & xmask).bit_count(), y) for y in ys)
        low = by_count[:m_y]
        high = by_count[-m_y:]
        if base - sum(c for c, _ in low) * nxy > limit:
            return RegularityVerdict(VIOLATED, frozenset(xsub), frozenset(y for _, y in low))
        if sum(c for c, _ in high) * nxy - base > limit:
            return RegularityVerdict(VIOLATED, frozenset(xsub), frozenset(y for _, y in high))
    return RegularityVerdict(CERTIFIED)


@functools.lru_cache(maxsize=8)
def _sample_draws(
    nx: int, ny: int, m_x: int, m_y: int, budget: int, seed: int
) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """The sampled checker's draws as sorted positions into X and Y, X then Y
    on each draw: the positions rng.sample(xs, m_x) and rng.sample(ys, m_y)
    pick, since sample's choices depend only on the population's length.
    Tuples, so no caller can change what the next one gets."""
    rng = random.Random(seed)
    return tuple(
        (tuple(sorted(rng.sample(range(nx), m_x))), tuple(sorted(rng.sample(range(ny), m_y))))
        for _ in range(budget)
    )


def _check_sampled(
    g: Graph, xs: list[int], ys: list[int], m_x: int, m_y: int, e0: int, limit: int,
    budget: int, seed: int,
) -> RegularityVerdict:
    nxy, base = len(xs) * len(ys), e0 * m_x * m_y
    adj = g.adj
    xrows = [adj[x] for x in xs]
    ybits = [1 << y for y in ys]

    best: tuple[int, tuple[int, ...], tuple[int, ...]] | None = None
    for xi, yi in _sample_draws(len(xs), len(ys), m_x, m_y, budget, seed):
        ymask = 0
        for j in yi:
            ymask |= ybits[j]
        dev = abs(sum((xrows[i] & ymask).bit_count() for i in xi) * nxy - base)
        if best is None or dev > best[0]:
            best = (dev, xi, yi)
    if best is None:
        return RegularityVerdict(UNREFUTED)
    dev, xi, yi = best
    xsub, ysub = list(xi), list(yi)
    if dev <= limit:
        # greedy local search: single-element swaps while the deviation grows;
        # counts[0][i] is xs[i]'s neighbour count in the current Y subset,
        # counts[1][j] that of ys[j] in the current X subset, and e the
        # subpair's edge count
        yrows = [adj[y] for y in ys]
        counts = (
            [(row & mask_of(ys[j] for j in ysub)).bit_count() for row in xrows],
            [(row & mask_of(xs[i] for i in xsub)).bit_count() for row in yrows],
        )
        inside = ([False] * len(xs), [False] * len(ys))
        for i in xsub:
            inside[0][i] = True
        for j in ysub:
            inside[1][j] = True
        e = sum(counts[0][i] for i in xsub)
        sides = ((xsub, xs, yrows), (ysub, ys, xrows))
        improved = True
        while improved and dev <= limit:
            improved = False
            for s, (side, pool, other_rows) in enumerate(sides):
                own, member, other = counts[s], inside[s], counts[1 - s]
                for i in range(len(side)):
                    kept = side[i]
                    for new in range(len(pool)):
                        if member[new]:
                            continue
                        cand_e = e - own[kept] + own[new]
                        cand = abs(cand_e * nxy - base)
                        if cand > dev:
                            dev, e, improved = cand, cand_e, True
                            out_bit, in_bit = pool[kept], pool[new]
                            for j, row in enumerate(other_rows):
                                other[j] += (row >> in_bit & 1) - (row >> out_bit & 1)
                            member[kept], member[new] = False, True
                            side[i] = kept = new
    if dev > limit:
        return RegularityVerdict(
            VIOLATED, frozenset(xs[i] for i in xsub), frozenset(ys[j] for j in ysub), budget
        )
    return RegularityVerdict(UNREFUTED, samples_tried=budget)


@dataclass(frozen=True)
class QualityReport:
    """Per-class irregularity counts for a partition under one mode, the
    class pairs (i < j, in lexicographic order) that the same checks treated
    as regular, and the density d(V_i, V_j) of each of those pairs."""

    per_class_bad: tuple[int, ...]
    all_classes_ok: bool  # every class's bad count <= eps * k
    total_irregular_pairs: int
    pairs_ok: bool  # total <= eps * k^2 (the stricter standard reading)
    exceptional_ok: bool  # |V_0| <= eps * n
    regular_pairs: tuple[tuple[int, int], ...]
    densities: tuple[Fraction, ...]  # one per regular pair, in the same order


def _partition_for_seed(n: int, k: int, seed: int) -> Partition:
    order = list(range(n))
    random.Random(seed).shuffle(order)
    size = n // k
    leftover = n - size * k
    exceptional = frozenset(order[:leftover])
    classes = tuple(
        frozenset(order[leftover + i * size : leftover + (i + 1) * size])
        for i in range(k)
    )
    return Partition(n, exceptional, classes)


def _quality(
    g: Graph,
    partition: Partition,
    params: RegularityParams,
    mode: str,
    budget: int,
    seed: int,
) -> QualityReport:
    # the only loop over class pairs that checks regularity
    k = partition.k
    classes = [sorted(c) for c in partition.classes]
    bad = [0] * k
    regular = []
    densities = []
    for i, j in itertools.combinations(range(k), 2):
        verdict = regularity_check(g, classes[i], classes[j], params, mode, budget, seed)
        if verdict.treated_regular:
            regular.append((i, j))
            densities.append(verdict.density)
        else:
            bad[i] += 1
            bad[j] += 1
    total = sum(bad) // 2
    eps = params.eps
    return QualityReport(
        per_class_bad=tuple(bad),
        all_classes_ok=all(b <= eps * k for b in bad),
        total_irregular_pairs=total,
        pairs_ok=total <= eps * k * k,
        exceptional_ok=len(partition.exceptional) <= eps * partition.n,
        regular_pairs=tuple(regular),
        densities=tuple(densities),
    )


def fixed_k_partition(
    g: Graph,
    k: int,
    params: RegularityParams,
    seed: int = 0,
    retries: int = 0,
    mode: str = MODE_EXHAUSTIVE,
    budget: int = DEFAULT_SAMPLE_BUDGET,
) -> tuple[Partition, QualityReport]:
    """Random equitable partition into k classes plus |V_0| < k leftovers.

    Each retry re-rolls the shuffle seed; the attempt with the fewest
    irregular pairs wins (ties to the earliest attempt).  The attempts stop
    at the first one with 0 irregular pairs: no later attempt can have fewer,
    and a tie goes to the earlier one, so the result is the one all
    retries + 1 attempts would give.
    """
    if not 1 <= k <= g.n:
        raise ValueError("k must lie in 1..n")
    if retries < 0:
        raise ValueError("retries must be nonnegative")
    if mode not in (MODE_EXHAUSTIVE, MODE_SAMPLED):  # k = 1 checks no pair
        raise ValueError(f"unknown mode {mode!r}")

    best: tuple[Partition, QualityReport] | None = None
    for a in range(retries + 1):
        attempt_seed = seed * 1_000_003 + a
        partition = _partition_for_seed(g.n, k, attempt_seed)
        report = _quality(g, partition, params, mode, budget, attempt_seed)
        if best is None or report.total_irregular_pairs < best[1].total_irregular_pairs:
            best = partition, report
        if best[1].total_irregular_pairs == 0:
            break
    return best
