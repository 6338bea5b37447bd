"""Regular-pair certification, reduced graphs, and fixed-k partitions.

A pair (X, Y) is eps-regular when every subpair (X', Y') with |X'| >= eps|X|
and |Y'| >= eps|Y| has density within eps of d(X, Y).  Certification iterates
only subpairs of the threshold sizes m_x = ceil(eps|X|), m_y = ceil(eps|Y|):
for a fixed Y', removing from X' the vertex of smallest contribution never
lowers the density (it is the mean of per-vertex densities), and dually for
the largest contribution, so any violation at larger sizes forces one at the
threshold sizes.  The reference checker below iterates every admissible
subpair with no such reduction; both must agree.

The checkers compare integer edge counts, not densities: with e0 edges
between X and Y, a threshold-size subpair with e edges deviates from d(X, Y)
by more than eps iff its gap e|X||Y| - e0 m_x m_y exceeds floor(eps|X||Y| m_x m_y)
in absolute value (the density test times the constant |X||Y| m_x m_y > 0).
Every violating witness, from either checker, is rechecked on its own by
exact edge counts against d(X, Y) and eps; a failed recheck raises
VerificationError.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

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
    violated or unrefuted.
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
    return verdict


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


def _check_sampled(
    g: Graph, xs: list[int], ys: list[int], m_x: int, m_y: int, e0: int, limit: int,
    budget: int, seed: int,
) -> RegularityVerdict:
    nxy, base = len(xs) * len(ys), e0 * m_x * m_y
    rng = random.Random(seed)

    def gap(xsub: list[int], ysub: list[int]) -> int:
        ymask = mask_of(ysub)
        return abs(sum((g.adj[x] & ymask).bit_count() for x in xsub) * nxy - base)

    best: tuple[int, list[int], list[int]] | None = None
    tried = 0
    for _ in range(budget):
        xsub = sorted(rng.sample(xs, m_x))
        ysub = sorted(rng.sample(ys, m_y))
        tried += 1
        dev = gap(xsub, ysub)
        if best is None or dev > best[0]:
            best = (dev, xsub, ysub)
    if best is not None:
        # greedy local search: single-element swaps while the deviation grows
        dev, xsub, ysub = best
        improved = True
        while improved and dev <= limit:
            improved = False
            for side, pool in ((xsub, xs), (ysub, ys)):
                for i in range(len(side)):
                    kept = side[i]
                    for new in pool:
                        if new in side:
                            continue
                        side[i] = new
                        cand = gap(xsub, ysub)
                        if cand > dev:
                            dev, kept, improved = cand, new, True
                        else:
                            side[i] = kept
        if dev > limit:
            return RegularityVerdict(VIOLATED, frozenset(xsub), frozenset(ysub), tried)
    return RegularityVerdict(UNREFUTED, samples_tried=tried)


def regularity_check_all_subsets(
    g: Graph, xs: Sequence[int], ys: Sequence[int], params: RegularityParams
) -> RegularityVerdict:
    """Reference checker: direct double loop over every admissible subpair.

    Exponential in |X| + |Y|; exists to cross-check regularity_check.
    """
    d0 = pair_density(g, xs, ys)  # validates X and Y
    xs = sorted(set(xs))
    ys = sorted(set(ys))
    eps = params.eps
    m_x = threshold_size(eps, len(xs))
    m_y = threshold_size(eps, len(ys))
    nx, ny = len(xs), len(ys)
    e0 = d0.numerator * nx * ny // d0.denominator
    p, q = eps.numerator, eps.denominator

    ysubs: list[tuple[int, tuple[int, ...]]] = []  # (mask over ys-index, members)
    for size in range(m_y, ny + 1):
        for comb in itertools.combinations(range(ny), size):
            ysubs.append((sum(1 << i for i in comb), comb))

    for size in range(m_x, nx + 1):
        for xcomb in itertools.combinations(xs, size):
            xmask = mask_of(xcomb)
            counts = [(g.adj[y] & xmask).bit_count() for y in ys]
            a = size
            for ybits, ycomb in ysubs:
                e = sum(counts[i] for i in ycomb)
                b = len(ycomb)
                # |e/(a b) - e0/(nx ny)| > p/q, all integer
                lhs = abs(e * nx * ny - e0 * a * b) * q
                if lhs > p * nx * ny * a * b:
                    return RegularityVerdict(
                        VIOLATED,
                        frozenset(xcomb),
                        frozenset(ys[i] for i in ycomb),
                    )
    return RegularityVerdict(CERTIFIED)


@dataclass(frozen=True)
class QualityReport:
    """Per-class irregularity counts for a partition under one mode, and the
    class pairs (i < j, in lexicographic order) that the same checks treated
    as regular."""

    per_class_bad: tuple[int, ...]
    class_ok: tuple[bool, ...]  # bad count <= eps * k, per class
    total_irregular_pairs: int
    pairs_ok: bool  # total <= eps * k^2 (the stricter standard reading)
    exceptional_ok: bool  # |V_0| <= eps * n
    mode: str
    seed: int
    regular_pairs: tuple[tuple[int, int], ...]

    @property
    def all_classes_ok(self) -> bool:
        return all(self.class_ok)


def reduced_graph(
    g: Graph,
    partition: Partition,
    params: RegularityParams,
    mode: str = MODE_EXHAUSTIVE,
    budget: int = DEFAULT_SAMPLE_BUDGET,
    seed: int = 0,
) -> Graph:
    """Cluster graph on the k classes: edge {i, j} iff the pair is regular
    under the given mode (sampled treats unrefuted as regular).  Threshold
    its edges by density with split_by_density."""
    pairs = _quality(g, partition, params, mode, budget, seed).regular_pairs
    return Graph(partition.k, pairs)


def split_by_density(
    g: Graph, partition: Partition, pairs: Iterable[tuple[int, int]], delta: Fraction
) -> tuple[Graph, Graph]:
    """Cluster graphs on the k classes from the given class pairs: a pair of
    density at least delta is an edge of the first, any other of the second."""
    dense: list[tuple[int, int]] = []
    sparse: list[tuple[int, int]] = []
    for i, j in pairs:
        d = pair_density(g, sorted(partition.classes[i]), sorted(partition.classes[j]))
        (dense if d >= delta else sparse).append((i, j))
    return Graph(partition.k, dense), Graph(partition.k, sparse)


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
    for i, j in itertools.combinations(range(k), 2):
        if regularity_check(g, classes[i], classes[j], params, mode, budget, seed).treated_regular:
            regular.append((i, j))
        else:
            bad[i] += 1
            bad[j] += 1
    total = sum(bad) // 2
    eps = params.eps
    return QualityReport(
        per_class_bad=tuple(bad),
        class_ok=tuple(b <= eps * k for b in bad),
        total_irregular_pairs=total,
        pairs_ok=total <= eps * k * k,
        exceptional_ok=len(partition.exceptional) <= eps * partition.n,
        mode=mode,
        seed=seed,
        regular_pairs=tuple(regular),
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
    irregular pairs wins (ties to the earliest attempt).
    """
    if not 1 <= k <= g.n:
        raise ValueError("k must lie in 1..n")
    if retries < 0:
        raise ValueError("retries must be nonnegative")

    def attempt(attempt_seed: int) -> tuple[Partition, QualityReport]:
        partition = _partition_for_seed(g.n, k, attempt_seed)
        return partition, _quality(g, partition, params, mode, budget, attempt_seed)

    # min keeps the first of equal counts, so ties go to the earliest attempt
    return min(
        (attempt(seed * 1_000_003 + a) for a in range(retries + 1)),
        key=lambda pr: pr[1].total_irregular_pairs,
    )
