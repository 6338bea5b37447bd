"""Deterministic graph families and seeded random instance generators.

Every random generator is a pure function of (params, seed).
"""

from __future__ import annotations

import bisect
import functools
import itertools
import random
from fractions import Fraction
from typing import Sequence

from .graphs import EdgeColoring, Graph, iter_bits
from .morphisms import VerificationError, VertexMap


def _full(n: int) -> int:
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    return (1 << n) - 1


def path(n: int) -> Graph:
    return path_power(n, 1)


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    adj = path(n).adj
    adj[0] |= 1 << n - 1
    adj[-1] |= 1
    return Graph.from_adj(adj)


def complete(n: int) -> Graph:
    full = _full(n)
    return Graph.from_adj([full ^ 1 << v for v in range(n)])


def complete_multipartite(sizes: Sequence[int]) -> Graph:
    return blowup(complete(len(sizes)), sizes)[0]


def wheel(k: int) -> Graph:
    """W_k: a (k-1)-cycle plus a dominating hub, the hub being vertex k-1."""
    if k < 4:
        raise ValueError("wheel needs at least 4 vertices")
    hub = 1 << k - 1
    return Graph.from_adj([row | hub for row in cycle(k - 1).adj] + [hub - 1])


def path_power(n: int, r: int) -> Graph:
    """Vertices i, j adjacent iff 0 < |i - j| <= r."""
    if r < 0:
        raise ValueError("power must be nonnegative")
    full, band = _full(n), (1 << 2 * r + 1) - 1  # band << i >> r: bits i - r .. i + r
    return Graph.from_adj([(band << i >> r & full) ^ 1 << i for i in range(n)])


def hypercube(d: int) -> Graph:
    if d < 0:
        raise ValueError("dimension must be nonnegative")
    return Graph.from_adj([sum(1 << (u ^ 1 << b) for b in range(d)) for u in range(1 << d)])


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
    preimage of i; a vertex's row is the OR of its base neighbours' parts."""
    if len(part_sizes) != base.n:
        raise ValueError("one part size per base vertex required")
    if any(s < 1 for s in part_sizes):
        raise ValueError("part sizes must be positive")
    bounds = list(itertools.accumulate(part_sizes, initial=0))
    parts = [(1 << hi) - (1 << lo) for lo, hi in zip(bounds, bounds[1:])]
    adj, base_of = [], []
    for i, s in enumerate(part_sizes):
        adj += [sum(parts[j] for j in iter_bits(base.adj[i]))] * s  # disjoint: sum is OR
        base_of += [i] * s
    return Graph.from_adj(adj), VertexMap(bounds[-1], base.n, tuple(base_of))


def random_coloring(host: Graph, red_prob: Fraction, seed: int) -> EdgeColoring:
    """Each host edge independently red with the given probability: one
    rng.random() per edge of the rows' upper triangle, in Graph.edges' order."""
    red_prob = Fraction(red_prob)
    if not 0 <= red_prob <= 1:
        raise ValueError("red_prob must lie in [0, 1]")
    draw = random.Random(seed).random
    # random() is exactly m / 2**53, so m / 2**53 < p / q iff m q < p 2**53
    q = red_prob.denominator
    bound = red_prob.numerator << 53
    red = [0] * host.n
    for u, row in enumerate(host.adj):
        rest = row >> u + 1 << u + 1
        while rest:
            low = rest & -rest
            if int(draw() * 2**53) * q < bound:
                red[u] |= low
                red[low.bit_length() - 1] |= 1 << u
            rest ^= low
    return EdgeColoring.from_red_adj(host, red)


def min_degree_threshold(n: int, eps: Fraction) -> int:
    """Degree floor for min-degree hosts on n vertices.

    ceil((1-eps)n), capped at n-1 so that K_n is always admissible: under a
    plain ceiling the host class is empty for eps < 1/n and the quantifier
    would be vacuous, contradicting r_eps(K_2) = 2.
    """
    if n == 0:
        return 0
    return min(n - 1, -((eps.numerator - eps.denominator) * n // eps.denominator))


@functools.lru_cache(maxsize=8)
def _lex_pair_codes(n: int) -> tuple[int, ...]:
    """The pairs a < b of 0..n-1 as a n + b, in lex order; shared, never mutated."""
    return tuple(a * n + b for a in range(n) for b in range(a + 1, n))


def random_min_degree_host(n: int, eps: Fraction, seed: int) -> Graph:
    """Delete random edges from K_n while min degree stays at or above
    min_degree_threshold(n, eps), so eps < 1/n leaves K_n.

    Stops at a seeded target deletion count or when no edge is deletable; the
    min-degree certificate is exact by construction.  The deletable edges
    (both ends above the floor) are kept in one list in lexicographic order,
    each pair (a, b) as the int a n + b, copied from _lex_pair_codes(n): a
    deletion pops the position it drew and spends one unit of each end's
    slack above the floor, and a vertex w with none left takes its pairs out
    with it, the (w, b) block as one slice between two bisections and each
    (a, w) by its own bisection, for the a < w still above the floor and
    adjacent to w.  Each step draws its position below size = len(list) by
    the rejection loop that rng.randrange(size) runs over getrandbits
    (k = size.bit_length() bits, redrawn while >= size), written out to
    skip randrange's wrapper frames; it consumes the stream as rng.choice on
    that list does, so the RNG stream is the one a full rescan of all pairs
    per step would give.
    """
    eps = Fraction(eps)
    if not 0 <= eps < 1:
        raise ValueError("eps must lie in [0, 1)")
    rng = random.Random(seed)
    floor_deg = min_degree_threshold(n, eps)
    slack_per_vertex = max(0, n - 1 - floor_deg)
    max_deletions = n * slack_per_vertex // 2
    target = rng.randint(0, max_deletions) if max_deletions > 0 else 0

    full = _full(n)
    adj = [full ^ 1 << v for v in range(n)]
    slack = [slack_per_vertex] * n
    above = full  # the vertices whose degree is above the floor
    deletable = list(_lex_pair_codes(n)) if slack_per_vertex else []
    getrandbits, pop = rng.getrandbits, deletable.pop
    for _ in range(target):
        size = len(deletable)
        if not size:
            break
        k = size.bit_length()
        r = getrandbits(k)
        while r >= size:
            r = getrandbits(k)
        u, v = divmod(pop(r), n)
        adj[u] ^= 1 << v
        adj[v] ^= 1 << u
        slack[u] -= 1
        slack[v] -= 1
        if slack[u] and slack[v]:
            continue
        for w in (u, v):
            if not slack[w]:
                above &= ~(1 << w)
                lo = bisect.bisect_left(deletable, w * n)
                del deletable[lo : bisect.bisect_left(deletable, w * n + n, lo)]
                low_side = adj[w] & above & ((1 << w) - 1)
                while low_side:
                    low = low_side & -low_side
                    del deletable[bisect.bisect_left(deletable, (low.bit_length() - 1) * n + w)]
                    low_side ^= low
    g = Graph.from_adj(adj)
    if g.min_degree() < floor_deg:
        raise VerificationError(f"host minimum degree fell below {floor_deg}")
    return g


def random_bounded_degree_graph(n: int, max_degree: int, seed: int) -> Graph:
    """Random graph with max degree <= max_degree (shuffled greedy edges)."""
    rng = random.Random(seed)
    pairs = list(itertools.combinations(range(n), 2))
    rng.shuffle(pairs)
    adj = [0] * n
    for u, v in pairs:
        if max(adj[u].bit_count(), adj[v].bit_count()) < max_degree and rng.random() < 0.5:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return Graph.from_adj(adj)
