"""References for regularity_check.

regularity_check_all_subsets iterates every admissible subpair of (X, Y),
with no reduction to the threshold sizes.  It is exponential in |X| + |Y|
and exists only to cross-check the library's checker on small pairs.

check_exhaustive_plain is the exhaustive checker as it was before its scan
pruned X'-prefixes: it runs through every X' of the threshold size in
itertools.combinations order.  It takes the arguments of regularity._scan
with no budget, as exhaustive mode calls it, so a test can put it in that
one's place and compare whole verdicts, witnesses included.

peel_rules_out is the scan's root peel as its definition states it, on
vertex sets (peel_live_sets gives its live sets round by round), and
most_edges the brute force that the peel must never contradict.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from ramsey_forge.graphs import Graph, mask_of, pair_density, threshold_size
from ramsey_forge.regularity import (
    CERTIFIED,
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
    g: Graph, xs: list[int], ys: list[int], degs: tuple, m_x: int, m_y: int, e0: int,
    limit: int, budget: None,
) -> RegularityVerdict:
    """The plain exhaustive checker: for each X' in combinations order, the
    m_y vertices of Y with fewest neighbours in X', then the m_y with most.
    It reads neither degs nor a budget."""
    if budget is not None:
        raise ValueError("the plain checker has no budget")
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


def peel_rules_out(
    g: Graph, xs: list[int], ys: list[int], m_x: int, m_y: int, need: int,
    complement: bool = False, rounds: int | None = None, degree_sum: bool = True,
) -> bool:
    """A too-dense m_x x m_y subpair (need <= m_x m_y edges or more) lacks at
    most s = m_x m_y - need edges, so each of its x has m_y - s neighbours in
    its Y' and each y has m_x - s in its X'.  Drop the x of fewer live
    neighbours, then the y, until nothing changes (or for `rounds` rounds);
    the side is out when fewer than m_x x or m_y y stay live, or when the
    m_y largest min(m_x, live degree) of the live y sum to less than `need`
    (skipped without `degree_sum`).  With `complement` the edges are the
    non-edges of X x Y."""

    live_x, live_y = peel_live_sets(g, xs, ys, m_x, m_y, need, complement, rounds)
    if len(live_x) < m_x or len(live_y) < m_y:
        return True
    if not degree_sum:
        return False
    degrees = sorted(
        min(m_x, sum(bool(g.adj[x] >> y & 1) != complement for x in live_x)) for y in live_y
    )
    return sum(degrees[-m_y:]) < need


def peel_live_sets(
    g: Graph, xs: list[int], ys: list[int], m_x: int, m_y: int, need: int,
    complement: bool = False, rounds: int | None = None,
) -> tuple[set[int], set[int]]:
    """The live X and Y of peel_rules_out's peel after `rounds` rounds (None:
    at its fixed point); a round drops the x, then the y."""

    def adjacent(x: int, y: int) -> bool:
        return bool(g.adj[x] >> y & 1) != complement

    s = m_x * m_y - need
    live_x, live_y = set(xs), set(ys)
    done = 0
    while rounds is None or done < rounds:
        new_x = {x for x in live_x if sum(adjacent(x, y) for y in live_y) >= m_y - s}
        new_y = {y for y in live_y if sum(adjacent(x, y) for x in new_x) >= m_x - s}
        done += 1
        if (new_x, new_y) == (live_x, live_y):
            break
        live_x, live_y = new_x, new_y
    return live_x, live_y


def most_edges(
    g: Graph, xs: list[int], ys: list[int], m_x: int, m_y: int, complement: bool = False
) -> int:
    """The most edges (non-edges of X x Y with `complement`) of any m_x x m_y
    subpair: every X', each with its m_y y of most such neighbours in it."""
    best = 0
    for xsub in itertools.combinations(xs, m_x):
        counts = sorted(sum(bool(g.adj[x] >> y & 1) != complement for x in xsub) for y in ys)
        best = max(best, sum(counts[-m_y:]))
    return best
