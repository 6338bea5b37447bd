"""References for regularity_check.

regularity_check_all_subsets iterates every admissible subpair of (X, Y),
with no reduction to the threshold sizes.  It is exponential in |X| + |Y|
and exists only to cross-check the library's checker on small pairs.

check_exhaustive_plain is the exhaustive checker as it was before its scan
pruned X'-prefixes: it runs through every X' of the threshold size in
itertools.combinations order.  It takes the arguments of
regularity._check_exhaustive, so a test can put it in that one's place and
compare whole verdicts, witnesses included.

check_sampled_rescanning is the sampled checker as it was before its swap
search kept per-vertex counts: it draws with rng.sample over the vertices
themselves and recounts the whole subpair for every candidate swap.  It
takes the arguments of regularity._check_sampled, so a test can put it in
that one's place and compare whole verdicts.
"""

from __future__ import annotations

import itertools
import random
from typing import Sequence

from ramsey_forge.graphs import Graph, mask_of, pair_density, threshold_size
from ramsey_forge.regularity import (
    CERTIFIED,
    UNREFUTED,
    VIOLATED,
    RegularityParams,
    RegularityVerdict,
)


def regularity_check_all_subsets(
    g: Graph, xs: Sequence[int], ys: Sequence[int], params: RegularityParams
) -> RegularityVerdict:
    """Reference checker: direct double loop over every admissible subpair."""
    d0 = pair_density(g, xs, ys)  # validates X and Y
    xs = sorted(set(xs))
    ys = sorted(set(ys))
    eps = params.eps
    m_x = threshold_size(eps, len(xs))
    m_y = threshold_size(eps, len(ys))
    nx, ny = len(xs), len(ys)
    e0 = d0.numerator * nx * ny // d0.denominator
    p, q = eps.numerator, eps.denominator

    ysubs = [
        comb for size in range(m_y, ny + 1) for comb in itertools.combinations(range(ny), size)
    ]  # members as indices into ys

    for size in range(m_x, nx + 1):
        for xcomb in itertools.combinations(xs, size):
            xmask = mask_of(xcomb)
            counts = [(g.adj[y] & xmask).bit_count() for y in ys]
            a = size
            for ycomb in ysubs:
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


def check_exhaustive_plain(
    g: Graph, xs: list[int], ys: list[int], m_x: int, m_y: int, e0: int, limit: int
) -> RegularityVerdict:
    """The plain exhaustive checker: for each X' in combinations order, the
    m_y vertices of Y with fewest neighbours in X', then the m_y with most."""
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


def check_sampled_rescanning(
    g: Graph, xs: list[int], ys: list[int], m_x: int, m_y: int, e0: int, limit: int,
    budget: int, seed: int, passes: list[int] | None = None,
) -> RegularityVerdict:
    """The rescanning sampled checker; `passes`, when given, gets one entry
    per swap-search pass."""
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
            if passes is not None:
                passes.append(1)
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
