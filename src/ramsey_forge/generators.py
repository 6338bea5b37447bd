"""Deterministic graph families and seeded random instance generators.

Every random generator is a pure function of (params, seed).
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
from fractions import Fraction
from typing import Sequence

from .graphs import EdgeColoring, Graph
from .morphisms import VerificationError, VertexMap


def path(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    return Graph(n, list(itertools.combinations(range(n), 2)))


def complete_multipartite(sizes: Sequence[int]) -> Graph:
    if any(s < 1 for s in sizes):
        raise ValueError("part sizes must be positive")
    bounds = list(itertools.accumulate(sizes, initial=0))
    part = []
    for i, s in enumerate(sizes):
        part += [i] * s
    n = bounds[-1]
    edges = [(u, v) for u, v in itertools.combinations(range(n), 2) if part[u] != part[v]]
    return Graph(n, edges)


def wheel(k: int) -> Graph:
    """W_k: a (k-1)-cycle plus a dominating hub, the hub being vertex k-1."""
    if k < 4:
        raise ValueError("wheel needs at least 4 vertices")
    edges = [(i, (i + 1) % (k - 1)) for i in range(k - 1)]
    edges += [(i, k - 1) for i in range(k - 1)]
    return Graph(k, edges)


def path_power(n: int, r: int) -> Graph:
    """Vertices i, j adjacent iff 0 < |i - j| <= r."""
    if r < 0:
        raise ValueError("power must be nonnegative")
    edges = [(i, j) for i in range(n) for j in range(i + 1, min(n, i + r + 1))]
    return Graph(n, edges)


def hypercube(d: int) -> Graph:
    if d < 0:
        raise ValueError("dimension must be nonnegative")
    n = 1 << d
    edges = [(u, u ^ (1 << b)) for u in range(n) for b in range(d) if u < u ^ (1 << b)]
    return Graph(n, edges)


# kind -> (builder, parameter count); a count of None takes any number
_NAMED = {
    "path": (path, 1),
    "cycle": (cycle, 1),
    "complete": (complete, 1),
    "complete_multipartite": (lambda *sizes: complete_multipartite(sizes), None),
    "wheel": (wheel, 1),
    "path_power": (path_power, 2),
    "hypercube": (hypercube, 1),
}


def check_named(kind: str, params: Sequence[object]) -> None:
    """Raise ValueError unless `kind` is a named family given its parameter count."""
    if kind not in _NAMED:
        raise ValueError(f"unknown graph kind {kind!r} (known: {sorted(_NAMED)})")
    count = _NAMED[kind][1]
    if count is not None and len(params) != count:
        raise ValueError(f"{kind} takes {count} parameter(s), got {len(params)}")


def make_named(kind: str, params: Sequence[int]) -> Graph:
    check_named(kind, params)
    return _NAMED[kind][0](*(int(p) for p in params))


def blowup(base: Graph, part_sizes: Sequence[int]) -> tuple[Graph, VertexMap]:
    """Blow-up of base, with part i an independent set of part_sizes[i]
    vertices, and the projection onto base, under which part i is the
    preimage of i."""
    if len(part_sizes) != base.n:
        raise ValueError("one part size per base vertex required")
    if any(s < 1 for s in part_sizes):
        raise ValueError("part sizes must be positive")
    bounds = list(itertools.accumulate(part_sizes, initial=0))
    base_of = []
    for i, s in enumerate(part_sizes):
        base_of += [i] * s
    edges = []
    for u, v in base.edges():
        for up in range(bounds[u], bounds[u + 1]):
            for vp in range(bounds[v], bounds[v + 1]):
                edges.append((up, vp))
    return Graph(bounds[-1], edges), VertexMap(bounds[-1], base.n, tuple(base_of))


def random_coloring(host: Graph, red_prob: Fraction, seed: int) -> EdgeColoring:
    """Each host edge independently red with the given probability."""
    red_prob = Fraction(red_prob)
    if not 0 <= red_prob <= 1:
        raise ValueError("red_prob must lie in [0, 1]")
    rng = random.Random(seed)
    red = [e for e in host.edges() if Fraction(rng.random()) < red_prob]
    return EdgeColoring(host, red)


def min_degree_threshold(n: int, eps: Fraction) -> int:
    """Degree floor for min-degree hosts on n vertices.

    ceil((1-eps)n), capped at n-1 so that K_n is always admissible: under a
    plain ceiling the host class is empty for eps < 1/n and the quantifier
    would be vacuous, contradicting r_eps(K_2) = 2.
    """
    if n == 0:
        return 0
    return min(n - 1, math.ceil((1 - Fraction(eps)) * n))


def random_min_degree_host(n: int, eps: Fraction, seed: int) -> Graph:
    """Delete random edges from K_n while min degree stays at or above
    min_degree_threshold(n, eps), so eps < 1/n leaves K_n.

    Stops at a seeded target deletion count or when no edge is deletable; the
    min-degree certificate is exact by construction.  The deletable edges
    (both ends above the floor) are kept in one list in lexicographic order:
    a deletion removes its pair (found by bisection), and the list is
    re-filtered only when a vertex reaches the floor (at most n times).  Each
    step draws with rng.choice on that list, so the RNG stream is the one a
    full rescan of all pairs per step would give.
    """
    eps = Fraction(eps)
    if not 0 <= eps < 1:
        raise ValueError("eps must lie in [0, 1)")
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
    g = Graph.from_adj(adj)
    if g.min_degree() < floor_deg:
        raise VerificationError(f"host minimum degree fell below {floor_deg}")
    return g


def random_bounded_degree_graph(n: int, max_degree: int, seed: int) -> Graph:
    """Random graph with max degree <= max_degree (shuffled greedy edges)."""
    rng = random.Random(seed)
    pairs = list(itertools.combinations(range(n), 2))
    rng.shuffle(pairs)
    deg = [0] * n
    edges = []
    for u, v in pairs:
        if deg[u] < max_degree and deg[v] < max_degree and rng.random() < 0.5:
            edges.append((u, v))
            deg[u] += 1
            deg[v] += 1
    return Graph(n, edges)
