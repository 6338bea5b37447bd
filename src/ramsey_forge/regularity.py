"""Regular-pair certification, reduced graphs, and fixed-k partitions.

A pair (X, Y) is eps-regular when every subpair (X', Y') with |X'| >= eps|X|
and |Y'| >= eps|Y| has density within eps of d(X, Y).  Certification iterates
only subpairs of the threshold sizes m_x = ceil(eps|X|), m_y = ceil(eps|Y|):
for a fixed Y', removing from X' the vertex of smallest contribution never
lowers the density (it is the mean of per-vertex densities), and dually for
the largest contribution, so any violation at larger sizes forces one at the
threshold sizes.  The reference checker below iterates every admissible
subpair with no such reduction; both must agree.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .graphs import Graph, mask_of, pair_density, threshold_size

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
    delta: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "eps", Fraction(self.eps))
        object.__setattr__(self, "delta", Fraction(self.delta))
        if not 0 < self.eps < 1:
            raise ValueError("eps must lie in (0, 1)")
        if not 0 <= self.delta <= 1:
            raise ValueError("delta must lie in [0, 1]")


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


def _check_pair_inputs(g: Graph, xs: Sequence[int], ys: Sequence[int]) -> tuple[int, int]:
    xmask = mask_of(xs)
    ymask = mask_of(ys)
    if xmask == 0 or ymask == 0:
        raise ValueError("X and Y must be nonempty")
    if xmask & ymask:
        raise ValueError("X and Y must be disjoint")
    if (xmask | ymask) >> g.n:
        raise ValueError("vertex out of range")
    return xmask, ymask


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
    _check_pair_inputs(g, xs, ys)
    if mode == MODE_EXHAUSTIVE:
        if len(set(xs)) > EXHAUSTIVE_SIDE_CAP or len(set(ys)) > EXHAUSTIVE_SIDE_CAP:
            raise ValueError(f"exhaustive mode caps sides at {EXHAUSTIVE_SIDE_CAP}")
        return _check_exhaustive(g, sorted(set(xs)), sorted(set(ys)), params.eps)
    if mode == MODE_SAMPLED:
        return _check_sampled(g, sorted(set(xs)), sorted(set(ys)), params.eps, budget, seed)
    raise ValueError(f"unknown mode {mode!r}")


def _check_exhaustive(
    g: Graph, xs: list[int], ys: list[int], eps: Fraction
) -> RegularityVerdict:
    m_x = threshold_size(eps, len(xs))
    m_y = threshold_size(eps, len(ys))
    d0 = pair_density(g, xs, ys)
    for xsub in itertools.combinations(xs, m_x):
        xmask = mask_of(xsub)
        by_count = sorted(ys, key=lambda y: ((g.adj[y] & xmask).bit_count(), y))
        low = by_count[:m_y]
        high = by_count[-m_y:]
        d_low = pair_density(g, xsub, low)
        if d0 - d_low > eps:
            return RegularityVerdict(VIOLATED, frozenset(xsub), frozenset(low))
        d_high = pair_density(g, xsub, high)
        if d_high - d0 > eps:
            return RegularityVerdict(VIOLATED, frozenset(xsub), frozenset(high))
    return RegularityVerdict(CERTIFIED)


def _check_sampled(
    g: Graph, xs: list[int], ys: list[int], eps: Fraction, budget: int, seed: int
) -> RegularityVerdict:
    m_x = threshold_size(eps, len(xs))
    m_y = threshold_size(eps, len(ys))
    d0 = pair_density(g, xs, ys)
    rng = random.Random(seed)

    def deviation(xsub: list[int], ysub: list[int]) -> Fraction:
        return abs(pair_density(g, xsub, ysub) - d0)

    best: tuple[Fraction, list[int], list[int]] | None = None
    tried = 0
    for _ in range(budget):
        xsub = sorted(rng.sample(xs, m_x))
        ysub = sorted(rng.sample(ys, m_y))
        tried += 1
        dev = deviation(xsub, ysub)
        if best is None or dev > best[0]:
            best = (dev, xsub, ysub)
    if best is not None:
        # greedy local search: single-element swaps while the deviation grows
        dev, xsub, ysub = best
        improved = True
        while improved and dev <= eps:
            improved = False
            for side, pool in ((xsub, xs), (ysub, ys)):
                for i, old in enumerate(list(side)):
                    for new in pool:
                        if new in side:
                            continue
                        side[i] = new
                        cand = deviation(xsub, ysub)
                        if cand > dev:
                            dev = cand
                            improved = True
                        else:
                            side[i] = old
        if dev > eps:
            return RegularityVerdict(VIOLATED, frozenset(xsub), frozenset(ysub), tried)
    return RegularityVerdict(UNREFUTED, samples_tried=tried)


def regularity_check_all_subsets(
    g: Graph, xs: Sequence[int], ys: Sequence[int], params: RegularityParams
) -> RegularityVerdict:
    """Reference checker: direct double loop over every admissible subpair.

    Exponential in |X| + |Y|; exists to cross-check regularity_check.
    """
    _check_pair_inputs(g, xs, ys)
    xs = sorted(set(xs))
    ys = sorted(set(ys))
    eps = params.eps
    m_x = threshold_size(eps, len(xs))
    m_y = threshold_size(eps, len(ys))
    e0 = sum((g.adj[x] & mask_of(ys)).bit_count() for x in xs)
    nx, ny = len(xs), len(ys)
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
    with_density: bool = False,
    mode: str = MODE_EXHAUSTIVE,
    budget: int = DEFAULT_SAMPLE_BUDGET,
    seed: int = 0,
) -> Graph:
    """Cluster graph on the k classes: edge {i, j} iff the pair is regular
    under the given mode (sampled treats unrefuted as regular) and, when
    with_density, its density is at least delta."""
    pairs = _quality(g, partition, params, mode, budget, seed).regular_pairs
    if with_density:
        return split_by_density(g, partition, pairs, params.delta)[0]
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
    best: tuple[Partition, QualityReport] | None = None
    for attempt in range(retries + 1):
        attempt_seed = seed * 1_000_003 + attempt
        partition = _partition_for_seed(g.n, k, attempt_seed)
        report = _quality(g, partition, params, mode, budget, attempt_seed)
        if best is None or report.total_irregular_pairs < best[1].total_irregular_pairs:
            best = (partition, report)
    assert best is not None
    return best
