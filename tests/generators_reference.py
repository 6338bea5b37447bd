"""Edge-list references for the graph builders in generators.

Each is the builder as it was before it wrote adjacency rows directly: it
lists the edges and hands them to Graph(n, edges), or, for random_coloring,
to EdgeColoring(host, red_edges).  The builders must give equal graphs
(equal rows) for every argument and seed.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Sequence

from ramsey_forge.graphs import EdgeColoring, Graph
from ramsey_forge.morphisms import VertexMap


def path_edges(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_edges(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_edges(n: int) -> Graph:
    return Graph(n, list(itertools.combinations(range(n), 2)))


def wheel_edges(k: int) -> Graph:
    edges = [(i, (i + 1) % (k - 1)) for i in range(k - 1)]
    edges += [(i, k - 1) for i in range(k - 1)]
    return Graph(k, edges)


def path_power_edges(n: int, r: int) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, min(n, i + r + 1))])


def hypercube_edges(d: int) -> Graph:
    n = 1 << d
    return Graph(n, [(u, u ^ (1 << b)) for u in range(n) for b in range(d) if u < u ^ (1 << b)])


def blowup_edges(base: Graph, part_sizes: Sequence[int]) -> tuple[Graph, VertexMap]:
    """Every pair of vertices in the parts of a base edge's ends."""
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


def random_coloring_edges(host: Graph, red_prob: Fraction, seed: int) -> EdgeColoring:
    """One draw per edge of host.edges(), in its lex order."""
    red_prob = Fraction(red_prob)
    rng = random.Random(seed)
    q = red_prob.denominator
    bound = red_prob.numerator << 53
    red = [e for e in host.edges() if int(rng.random() * 2**53) * q < bound]
    return EdgeColoring(host, red)


def random_bounded_degree_graph_edges(n: int, max_degree: int, seed: int) -> Graph:
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
