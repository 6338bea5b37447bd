"""The all-subsets reference for regularity_check.

regularity_check_all_subsets iterates every admissible subpair of (X, Y),
with no reduction to the threshold sizes.  It is exponential in |X| + |Y|
and exists only to cross-check the library's checker on small pairs.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from ramsey_forge.graphs import Graph, mask_of, pair_density, threshold_size
from ramsey_forge.regularity import CERTIFIED, VIOLATED, RegularityParams, RegularityVerdict


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
