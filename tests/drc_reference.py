"""References for drc._best_multiset and generators.random_min_degree_host.

best_multiset_plain is the exhaustive multiset scan as it was before it
bounded its prefixes: it scores every leaf, paying for the penalty at every
leaf that meets open_mask.  It takes the arguments of drc._best_multiset, so
a test can put it in that one's place and compare whole selections.

random_min_degree_host_refiltering is the min-degree host generator as it
was before a vertex reaching the floor took out only its own pairs: it
rebuilds the whole deletable list from what is left whenever a deletion
brings an end to the floor.

random_coloring_fraction is random_coloring as it was before it compared
integers: one Fraction per edge.

select_on_induced is the bandwidth embedder's block selection as it was
before selection ran inside a scope mask of the host: drc_select on the
relabelled induced subgraph, its score weights taken from the Fractions E1
and E2, and the winner mapped back to host labels.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
from fractions import Fraction
from typing import Callable, Sequence

from ramsey_forge.drc import (
    DEFAULT_TUPLE_BUDGET,
    _best_multiset,
    _high_nondegree,
    bad_supports,
    common_neighborhood,
    surjection_count,
)
from ramsey_forge.generators import min_degree_threshold
from ramsey_forge.graphs import EdgeColoring, Graph, induced, iter_bits, mask_of


def best_multiset_plain(
    rows: Sequence[int],
    depth: int,
    x0_mask: int,
    d: int,
    w_size: int,
    open_mask: int,
    penalty: Callable[[int], int],
) -> tuple[tuple[int, ...], int]:
    """Every multiset of `depth` row indices scored in
    combinations_with_replacement order; the first strictly best wins."""
    n = len(rows)
    best_score = best = None

    def descend(start: int, prefix: int, chosen: tuple[int, ...]) -> None:
        nonlocal best_score, best
        if len(chosen) < depth - 1:
            for i in range(start, n):
                descend(i, prefix & rows[i], chosen + (i,))
            return
        for i in range(start, n):
            common = prefix & rows[i]
            lift = (common & x0_mask).bit_count() ** d
            if not lift:
                score = 0
            elif common & open_mask:
                score = lift * (w_size * common.bit_count() ** d - penalty(common))
            else:
                score = lift * w_size * common.bit_count() ** d
            if best is None or score > best_score:
                best_score, best = score, (chosen + (i,), common)

    descend(0, -1, ())  # -1: the empty intersection holds every vertex
    return best


def random_min_degree_host_refiltering(n: int, eps: Fraction, seed: int) -> Graph:
    """The host generator that re-filters all its pairs when a vertex reaches
    the floor."""
    eps = Fraction(eps)
    rng = random.Random(seed)
    floor_deg = min_degree_threshold(n, eps)
    slack_per_vertex = max(0, n - 1 - floor_deg)
    max_deletions = n * slack_per_vertex // 2
    target = rng.randint(0, max_deletions) if max_deletions > 0 else 0

    adj = [((1 << n) - 1) & ~(1 << v) for v in range(n)]
    deg = [n - 1] * n
    deletable = list(itertools.combinations(range(n), 2)) if slack_per_vertex else []
    for _ in range(target):
        if not deletable:
            break
        u, v = rng.choice(deletable)
        del deletable[bisect.bisect_left(deletable, (u, v))]
        adj[u] &= ~(1 << v)
        adj[v] &= ~(1 << u)
        deg[u] -= 1
        deg[v] -= 1
        if deg[u] == floor_deg or deg[v] == floor_deg:
            deletable = [
                (a, b) for a, b in deletable if deg[a] > floor_deg and deg[b] > floor_deg
            ]
    return Graph.from_adj(adj)


def random_coloring_fraction(host: Graph, red_prob: Fraction, seed: int) -> EdgeColoring:
    """Each host edge red when Fraction(rng.random()) < red_prob."""
    red_prob = Fraction(red_prob)
    rng = random.Random(seed)
    return EdgeColoring(host, [e for e in host.edges() if Fraction(rng.random()) < red_prob])


def select_on_induced(
    host: Graph,
    scope: int,
    x0_mask: int,
    d: int,
    beta: Fraction,
    alpha: Fraction,
    trials: int,
    seed: int,
    tuple_budget: int = DEFAULT_TUPLE_BUDGET,
) -> tuple[tuple[int, ...], int, str]:
    """(tuple, set, mode) of the selection on induced(host, scope) with X0
    inside the scope, the tuple and the set in host labels; xi(X) is summed
    over the enumerated bad supports, with no closed form."""
    members = list(iter_bits(scope))
    index = {v: i for i, v in enumerate(members)}
    g = induced(host, members)
    x0 = mask_of(index[v] for v in iter_bits(x0_mask))
    n = g.n
    x0_size = x0.bit_count()
    threshold = beta * n
    e1 = alpha ** (2 * d * d) * Fraction(x0_size) ** d * Fraction(n) ** d
    e2 = beta**d * Fraction(n) ** d * Fraction(x0_size) ** d
    if e1 > 0 and e2 > 0:
        w_size, w_bad = 2 * e2.numerator * e1.denominator, e1.numerator * e2.denominator
    else:
        w_size, w_bad = int(e1 > 0), int(e2 > 0)
    open_mask = _high_nondegree(g, (1 << n) - 1, d, math.ceil(threshold)) if w_bad else 0

    def penalty(common: int) -> int:
        supports = bad_supports(g, common, d, threshold)
        return w_bad * sum(surjection_count(d, len(s)) for s in supports)

    if math.comb(n + d - 1, d) <= tuple_budget:
        mode = "exhaustive"
        tup, common = _best_multiset(g.adj, d, x0, d, w_size, open_mask, penalty)
    else:
        mode = "sampled"
        rng = random.Random(seed)
        draws = sorted(
            {tuple(sorted(rng.randrange(n) for _ in range(d))) for _ in range(trials)}
        )
        (i,), common = _best_multiset(
            [common_neighborhood(g, t) for t in draws], 1, x0, d, w_size, open_mask, penalty
        )
        tup = draws[i]
    return (
        tuple(members[i] for i in tup),
        mask_of(members[i] for i in iter_bits(common)),
        mode,
    )
