"""Exact and heuristic graph bandwidth.

Exact computation is branch-and-bound over label positions placed left to
right; the heuristic is Cuthill-McKee style breadth-first labeling.
"""

from __future__ import annotations

import math
from collections import deque

from .graphs import Graph, iter_bits
from .morphisms import DEFAULT_BUDGET, BudgetExhausted


def labeling_width(g: Graph, labels: tuple[int, ...]) -> int:
    """Max |label(u) - label(v)| over edges; labels must be a bijection."""
    if sorted(labels) != list(range(g.n)):
        raise ValueError("labeling must be a bijection onto 0..n-1")
    return max((abs(labels[u] - labels[v]) for u, v in g.edges()), default=0)


def _feasible(g: Graph, b: int, budget: int, counter: list[int]) -> bool:
    """Does some labeling of width <= b exist?  DFS over label positions."""
    n = g.n
    pos = [-1] * n  # vertex -> assigned label, -1 if unplaced
    placed_mask = 0

    def place(p: int) -> bool:
        nonlocal placed_mask
        if p == n:
            return True
        counter[0] += 1
        if counter[0] > budget:
            raise BudgetExhausted(f"exact bandwidth budget {budget} exhausted")
        # a placed vertex with an unplaced neighbor forces that neighbor
        # into a position <= pos + b
        for v in iter_bits(placed_mask):
            if g.adj[v] & ~placed_mask and p - pos[v] > b:
                return False
        for v in range(n):
            if placed_mask >> v & 1:
                continue
            ok = True
            for u in iter_bits(g.adj[v] & placed_mask):
                if p - pos[u] > b:
                    ok = False
                    break
            if not ok:
                continue
            pos[v] = p
            placed_mask |= 1 << v
            if place(p + 1):
                return True
            placed_mask &= ~(1 << v)
            pos[v] = -1
        return False

    return place(0)


def exact_bandwidth(g: Graph, budget: int = DEFAULT_BUDGET) -> int:
    """Minimum labeling width over all bijections; exact when it returns."""
    if g.edge_count() == 0:
        return 0
    lower = max(math.ceil(g.degree(v) / 2) for v in range(g.n))
    counter = [0]
    for b in range(lower, g.n):
        if _feasible(g, b, budget, counter):
            return b
    raise AssertionError("unreachable: width n-1 is always feasible")


def heuristic_labeling(g: Graph) -> tuple[tuple[int, ...], int]:
    """Cuthill-McKee breadth-first labeling from a minimum-degree vertex.

    Returns (labels, width).  Always a valid bijection; disconnected
    components are processed in order of their minimum-degree vertices.
    """
    n = g.n
    labels = [-1] * n
    next_label = 0
    visited = 0
    by_degree = sorted(range(n), key=lambda v: (g.degree(v), v))
    for start in by_degree:
        if visited >> start & 1:
            continue
        queue = deque([start])
        visited |= 1 << start
        while queue:
            v = queue.popleft()
            labels[v] = next_label
            next_label += 1
            nbrs = sorted(iter_bits(g.adj[v] & ~visited), key=lambda u: (g.degree(u), u))
            for u in nbrs:
                visited |= 1 << u
                queue.append(u)
    out = tuple(labels)
    return out, labeling_width(g, out)
