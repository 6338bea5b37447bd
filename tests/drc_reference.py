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
"""

from __future__ import annotations

import bisect
import itertools
import random
from fractions import Fraction
from typing import Callable, Sequence

from ramsey_forge.generators import min_degree_threshold
from ramsey_forge.graphs import EdgeColoring, Graph


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
