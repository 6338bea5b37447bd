"""Regular-pair certification and fixed-k partitions.

A pair (X, Y) is eps-regular when every subpair (X', Y') with |X'| >= eps|X|
and |Y'| >= eps|Y| has density within eps of d(X, Y).  Certification looks
only at subpairs of the threshold sizes m_x = ceil(eps|X|), m_y = ceil(eps|Y|):
for a fixed Y', removing from X' the vertex of smallest contribution never
lowers the density (it is the mean of per-vertex densities), and dually for
the largest contribution, so any violation at larger sizes forces one at the
threshold sizes.  For a fixed X', the m_y vertices of Y with the fewest
neighbours in X' form its sparsest Y' and the m_y with the most its densest,
so only X' is searched, and the search scans X'-prefixes (below).  The tests
keep a reference checker that iterates every admissible subpair with no
such reduction; both must agree.

The checkers compare integer edge counts, not densities: with e0 edges
between X and Y, a threshold-size subpair with e edges deviates from d(X, Y)
by more than eps iff its gap e|X||Y| - e0 m_x m_y exceeds floor(eps|X||Y| m_x m_y)
in absolute value (the density test times the constant |X||Y| m_x m_y > 0).
Every violating witness, from either checker, is rechecked on its own by
exact edge counts against d(X, Y) and eps; a failed recheck raises
VerificationError.

The exhaustive checker builds X' depth first, in itertools.combinations
order, after a root peel (the core peeling of Alon, Duke, Lefmann, Rödl and
Yuster, "The algorithmic aspects of the regularity lemma", J. Algorithms
16, 1994) has tried to rule each side out.  A threshold subpair with e
edges is too dense when e > high and too sparse when e < low, high and low
being the most and the fewest edges whose gap stays within the limit.  A
too-dense one has
e >= need = high + 1 edges, so it lacks at most s = m_x m_y - need:
each of its x has at least m_y - s neighbours in its Y' and each y at least
m_x - s in its X'.  A vertex with fewer neighbours than that on the live
other side lies in no such subpair, so peeling those from X and Y until
nothing changes keeps every too-dense subpair inside the live sets.  The
side is out when fewer than m_x or m_y vertices stay live, or when the m_y
largest min(m_x, live degree) of the live y sum to less than `need`.  The
sparse side is the same test on the complement inside X x Y, with
need = m_x m_y - low + 1 (at eps = 1/2 one side is out before any peel:
its edge threshold lies above m_x m_y or below 0).  When both sides are
out, the pair is certified with no prefix opened.

The scan starts with the sides the peel left open.  A prefix P chosen from
xs[:start] still needs r vertices from C = xs[start:].  Over all
completions, a vertex y of Y with c_y neighbours in P and a_y in C gets
between c_y + max(0, r - (|C| - a_y)) and c_y + min(r, a_y) neighbours in
X'.  If the m_y largest upper ends cannot push the gap above the limit, no
completion is too dense; if the m_y smallest lower ends cannot pull it
below minus the limit, none is too sparse; when both hold, the prefix is
pruned.  A child's ranges lie inside its parent's, so a side ruled out at
a prefix stays out below it, and a side out at the root is never bounded.
Each leaf tests its sparsest Y', then its densest.  The peel and the
bounds close only sides that hold no violating subpair, so the scan prunes
only subtrees that hold no violating X', and it reaches its leaves in
combinations order: it returns the same first violating X', with the same
Y', as a loop over every combination, and no verdict or witness differs
from that loop's (the tests keep it as a reference).

The sampled checker is the same scan, capped at `budget` opened prefixes
(the root peel opens none; budget 0 lets only the peel run).  It returns
the scan's violating witness, rechecked like every other, and unrefuted
when the scan rules out every threshold subpair or runs out of budget, so
it never certifies; either way its samples_tried is `budget`.  Sides past
EXHAUSTIVE_SIDE_CAP are open to it, since the budget bounds its search.

A partition attempt counts once: each class vertex's neighbour count in each
class (k n popcounts) gives every pair its e0, d(X, Y), its root peel's first
round and its scan's root prefix; witness rechecks read g's rows instead.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
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
) -> RegularityVerdict:
    """Certify or refute eps-regularity of the pair (X, Y).

    Exhaustive mode (sides capped at 16) returns certified_regular or a
    re-checkable violating witness.  Sampled mode runs the same scan under
    `budget` opened X'-prefixes and never certifies: it returns the scan's
    violating witness, or unrefuted when the scan finds none or runs out.
    Either verdict carries d(X, Y); samples_tried is the prefix budget
    sampled mode ran under, and 0 in exhaustive mode.
    """
    pair_density(g, xs, ys)  # validates X and Y
    if mode not in (MODE_EXHAUSTIVE, MODE_SAMPLED):
        raise ValueError(f"unknown mode {mode!r}")
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    classes = [sorted(set(xs)), sorted(set(ys))]
    return _check_pair(g, classes, _count_table(g, classes), 0, 1, params.eps, mode, budget)


def _count_table(g: Graph, classes: list[list[int]]) -> list[list[list[int]]]:
    """table[c][j][a]: the neighbour count of vertex classes[c][a] in class j."""
    masks, adj = [mask_of(c) for c in classes], g.adj
    return [[[(adj[v] & m).bit_count() for v in c] for m in masks] for c in classes]


def _check_pair(
    g: Graph, classes: list[list[int]], table: list[list[list[int]]], i: int, j: int,
    eps: Fraction, mode: str, budget: int,
) -> RegularityVerdict:
    """The verdict, with d(X, Y), on X = classes[i] and Y = classes[j] (each
    sorted), from the pair's counts in `table`: degs, each x's in Y and each y's in X."""
    xs, ys, degs = classes[i], classes[j], (table[i][j], table[j][i])
    nx, ny, e0 = len(xs), len(ys), sum(degs[0])
    m_x, m_y, nxy = threshold_size(eps, nx), threshold_size(eps, ny), nx * ny
    limit = eps.numerator * nxy * m_x * m_y // eps.denominator
    if mode == MODE_SAMPLED:
        verdict = _check_sampled(g, xs, ys, degs, m_x, m_y, e0, limit, budget)
    elif max(nx, ny) > EXHAUSTIVE_SIDE_CAP:
        raise ValueError(f"exhaustive mode caps sides at {EXHAUSTIVE_SIDE_CAP}")
    else:
        verdict = _scan(g, xs, ys, degs, m_x, m_y, e0, limit, None)
    if verdict.status == VIOLATED and not _violates(g, xs, ys, eps, verdict):
        raise VerificationError("regularity witness does not violate eps-regularity")
    return RegularityVerdict(
        verdict.status, verdict.witness_x, verdict.witness_y, verdict.samples_tried,
        Fraction(e0, nxy),
    )


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


def _ruled_out(
    g: Graph, xs: list[int], ys: list[int], degs: tuple[list[int], list[int]],
    m_x: int, m_y: int, need: int, flip: int,
) -> bool:
    """Whether the root peel shows that no m_x x m_y subpair of (X, Y) has
    `need` or more edges (need <= m_x m_y): edges of g when flip is 0, of its
    complement when flip is -1 (row ^ -1 is ~row; a count is then the side's
    size less degs').  The first round reads degs; a later round recounts a
    side on the other's live set when that set has shrunk, and the y keep
    their counts for the degree sum."""
    adj = g.adj
    s = m_x * m_y - need  # the most edges such a subpair lacks
    dx, dy = m_y - s, m_x - s  # so each x of X' has dx neighbours in Y', each y dy in X'
    nx, ny = len(xs), len(ys)
    xdeg, ydeg = ([ny - d for d in degs[0]], [nx - d for d in degs[1]]) if flip else degs
    xcells = [(1 << x, adj[x] ^ flip) for x, d in zip(xs, xdeg) if d >= dx]
    ycells = [(1 << y, adj[y] ^ flip, d) for y, d in zip(ys, ydeg) if d >= dy]
    shrunk_x, shrunk_y = len(xcells) < nx, len(ycells) < ny
    while len(xcells) >= m_x and len(ycells) >= m_y:
        if shrunk_y:
            ly = sum([b for b, _, _ in ycells])
            kept = [c for c in xcells if (c[1] & ly).bit_count() >= dx]
            shrunk_x, shrunk_y, xcells = shrunk_x or len(kept) < len(xcells), False, kept
        elif shrunk_x:
            lx = sum([b for b, _ in xcells])
            kept = [(b, row, d) for b, row, _ in ycells if (d := (row & lx).bit_count()) >= dy]
            shrunk_x, shrunk_y, ycells = False, len(kept) < len(ycells), kept
        else:  # the live sets are the fixed point
            return sum(sorted([min(m_x, d) for _, _, d in ycells])[-m_y:]) < need
    return True


def _scan(
    g: Graph, xs: list[int], ys: list[int], degs: tuple[list[int], list[int]],
    m_x: int, m_y: int, e0: int, limit: int, budget: int | None,
) -> RegularityVerdict | None:
    """The first violating threshold subpair, X' in combinations order, or
    certified_regular when there is none; None when `budget` X'-prefixes
    were opened first (None: no budget).  Each stack entry is a prefix's
    mask, the position its next vertex starts from, the count still to pick,
    and whether a completion may still be too dense and too sparse."""
    nx, nxy, base, mm = len(xs), len(xs) * len(ys), e0 * m_x * m_y, m_x * m_y
    high = (base + limit) // nxy  # a subpair with e edges is too dense iff e > high
    low = -((limit - base) // nxy)  # and too sparse iff e < low
    dense = high < mm and not _ruled_out(g, xs, ys, degs, m_x, m_y, high + 1, 0)
    # too sparse is too dense in the complement
    sparse = low > 0 and not _ruled_out(g, xs, ys, degs, m_x, m_y, mm - low + 1, -1)
    if not (dense or sparse):
        return RegularityVerdict(CERTIFIED)
    rows = [g.adj[y] for y in ys]
    bits = [1 << x for x in xs]
    xall = mask_of(xs)
    stack = [(0, 0, m_x, dense, sparse)]
    opened = 0
    while stack:
        if opened == budget:
            return None
        opened += 1
        xmask, start, r, dense, sparse = stack.pop()
        if r == 0:
            by_count = sorted(((row & xmask).bit_count(), y) for row, y in zip(rows, ys))
            if sum(c for c, _ in by_count[:m_y]) < low:
                ysub = by_count[:m_y]
            elif sum(c for c, _ in by_count[-m_y:]) > high:
                ysub = by_count[-m_y:]
            else:
                continue
            xsub = frozenset(x for x in xs if xmask >> x & 1)
            return RegularityVerdict(VIOLATED, xsub, frozenset(y for _, y in ysub))
        # a completion picks r of the vertices in xs[start:] and leaves k
        # out; y has a of them as neighbours and c in the prefix, so it gets
        # from c + max(0, a - k) to c + min(r, a) edges
        cmask, k = xall >> xs[start] << xs[start], nx - start - r
        if xmask:
            counts = [((row & xmask).bit_count(), (row & cmask).bit_count()) for row in rows]
        else:  # the root: C is X
            counts = [(0, a) for a in degs[1]]
        if dense:
            dense = sum(sorted([c + (a if a < r else r) for c, a in counts])[-m_y:]) > high
        if sparse:
            sparse = sum(sorted([c + (a - k if a > k else 0) for c, a in counts])[:m_y]) < low
        if dense or sparse:
            stack.extend(
                (xmask | bits[i], i + 1, r - 1, dense, sparse)
                for i in range(nx - r, start - 1, -1)
            )
    return RegularityVerdict(CERTIFIED)


def _check_sampled(
    g: Graph, xs: list[int], ys: list[int], degs: tuple[list[int], list[int]],
    m_x: int, m_y: int, e0: int, limit: int, budget: int,
) -> RegularityVerdict:
    """The scan under `budget` opened prefixes: its violating witness, else
    unrefuted (certified or out of budget alike, so sampled mode never certifies)."""
    scan = _scan(g, xs, ys, degs, m_x, m_y, e0, limit, budget)
    if scan is not None and scan.status == VIOLATED:
        return RegularityVerdict(VIOLATED, scan.witness_x, scan.witness_y, budget)
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
) -> QualityReport:
    # the only loop over class pairs that checks regularity
    k = partition.k
    classes = [sorted(c) for c in partition.classes]
    table = _count_table(g, classes)
    bad = [0] * k
    regular = []
    densities = []
    for i, j in itertools.combinations(range(k), 2):
        verdict = _check_pair(g, classes, table, i, j, params.eps, mode, budget)
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
    if budget < 0:
        raise ValueError("budget must be nonnegative")

    best: tuple[Partition, QualityReport] | None = None
    for a in range(retries + 1):
        attempt_seed = seed * 1_000_003 + a
        partition = _partition_for_seed(g.n, k, attempt_seed)
        report = _quality(g, partition, params, mode, budget)
        if best is None or report.total_irregular_pairs < best[1].total_irregular_pairs:
            best = partition, report
        if best[1].total_irregular_pairs == 0:
            break
    return best
