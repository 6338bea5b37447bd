"""References for the oracles' one search path.

reference(oracle, *args) runs a public oracle with a full scan of every
coloring of each host in place of both of its searches: the one DFS over
K_{n_max} that finds a witness on each K_n (oracles._least_colorings) and
the per-host search (oracles._witness_coloring).  Everything else is the
library's own: the loop over n and the admissible hosts, the stable
oracle's multipartite fallback and the unrooted copy plan.  The swap is
unittest.mock.patch.object, not pytest's monkeypatch fixture, so it also
works inside hypothesis tests.

witness_coloring_unpruned(host, copies) is the library's colex DFS without
its symmetry cuts and rooted checks, so it returns the least copy-free
coloring of the host (first edge red), which the library must return too.

least_colorings_rescanning(host, copies, found) is the library's DFS with
its twin cuts found by rescanning: at each node every twin pair that the
new edge's position decides recomputes its first differing position from
the blue rows.  It spends the same nodes and records the same prefixes as
the library's tie masks must.
"""

from __future__ import annotations

from typing import Callable
from unittest import mock

from ramsey_forge import morphisms, oracles
from ramsey_forge.graphs import BLUE, RED, EdgeColoring, Graph, induced
from ramsey_forge.morphisms import BudgetExhausted
from ramsey_forge.oracles import OracleResult, _Copies


def _witness_coloring_naive(host: Graph, copies: _Copies) -> EdgeColoring | None:
    """Full 2^m scan with no pruning and no symmetry shortcuts."""
    edges = host.edges()
    m = len(edges)
    # the red graph of a mask is the blue graph of its complement
    seen: dict[tuple[int, ...], bool] = {}

    def has_copy(rows: tuple[int, ...]) -> bool:
        hit = seen.get(rows)
        if hit is None:
            hit = seen[rows] = copies.anywhere(rows)
        return hit

    for mask in range(1 << m):
        red = [0] * host.n
        for i, (u, v) in enumerate(edges):
            if mask >> i & 1:
                red[u] |= 1 << v
                red[v] |= 1 << u
        blue = tuple(host.adj[v] & ~red[v] for v in range(host.n))
        if not has_copy(tuple(red)) and not has_copy(blue):
            return EdgeColoring.from_red_adj(host, red)
    return None


def _least_colorings_naive(host: Graph, copies: _Copies, found: dict[int, list[int]]) -> None:
    """The 2^m scan's witness on the host's vertices 0..k-1, for k = 1, 2,
    ... up to the first k with none; on K_{n_max} that is each K_k."""
    for k in range(1, host.n + 1):
        coloring = _witness_coloring_naive(induced(host, range(k)), copies)
        if coloring is None:
            return
        found[k] = list(coloring.red_adj)


def witness_coloring_unpruned(host: Graph, copies: _Copies) -> EdgeColoring | None:
    """Colex DFS, red before blue, the first edge red, each prefix checked
    with the unrooted search on both color graphs; no twin cuts, no budget."""
    edges = sorted(host.edges(), key=lambda e: (e[1], e[0]))
    red = [0] * host.n
    blue = [0] * host.n

    def copy_free() -> bool:
        return not copies.anywhere(red) and not copies.anywhere(blue)

    def decide(i: int) -> EdgeColoring | None:
        if i == len(edges):
            return EdgeColoring.from_red_adj(host, red)
        u, v = edges[i]
        for rows in (red,) if i == 0 else (red, blue):
            rows[u] |= 1 << v
            rows[v] |= 1 << u
            if copy_free():
                found = decide(i + 1)
                if found is not None:
                    return found
            rows[u] &= ~(1 << v)
            rows[v] &= ~(1 << u)
        return None

    return decide(0) if copy_free() else None


def _rescanned_twin_tests(
    host: Graph,
) -> tuple[list[tuple[int, int]], list[list[tuple[int, int, int]]]]:
    """The host's edges (u, v), u < v, in colex order, and for each the
    (i, j, mask) of every twin pair i < j whose lex-leader test coloring
    that edge decides: k = u for the pairs (i, v), i != u (mask: bits
    0..u), and k = v for the pairs (i, u) (mask: bits 0..v); mask leaves
    out i and j."""
    adj = host.adj
    edges = sorted(host.edges(), key=lambda e: (e[1], e[0]))
    twins = [
        [i for i in range(j) if adj[i] & ~(1 << j) == adj[j] & ~(1 << i)] for j in range(host.n)
    ]
    return edges, [
        [(i, v, ((2 << u) - 1) & ~(1 << i)) for i in twins[v] if i != u]
        + [(i, u, ((2 << v) - 1) & ~(1 << i | 1 << u)) for i in twins[u]]
        for u, v in edges
    ]


def least_colorings_rescanning(host: Graph, copies: _Copies, found: dict[int, list[int]]) -> None:
    """oracles._least_colorings with each twin pair's first differing
    position rescanned at every node it is tested; the same copy checks,
    prefixes and budget accounting."""
    if host.n > oracles.RAMSEY_HARD_CAP:
        raise ValueError(f"host of {host.n} vertices exceeds RAMSEY_HARD_CAP")
    edges, tests = _rescanned_twin_tests(host)
    ends = [v for _, v in edges] + [host.n]
    stops = [k if i == 0 or ends[i - 1] < k else None for i, k in enumerate(ends)]
    red = [0] * host.n
    blue = [0] * host.n

    def through(rows: list[int], u: int, v: int) -> bool:
        open_, kernels = copies.blocks[v]
        budget = morphisms.DEFAULT_BUDGET
        hits = (kernel(rows, copies.room, open_, budget, u, v)[0] for kernel in kernels)
        return any(hit is not None for hit in hits)

    def decide(i: int, fixed_red: bool) -> bool:
        k = stops[i]
        if k is not None:
            if copies.trap and (copies.anywhere(red[:k]) or copies.anywhere(blue[:k])):
                return False
            if k not in found:
                found[k] = red[:k]
            if i == len(edges):
                return True
        if not copies.nodes_left:
            raise BudgetExhausted("coloring search gave up")
        copies.nodes_left -= 1
        u, v = edges[i]
        for color in (RED,) if fixed_red else (RED, BLUE):
            rows = red if color == RED else blue
            rows[u] |= 1 << v
            rows[v] |= 1 << u
            for a, b, mask in tests[i]:
                d = (blue[a] ^ blue[b]) & mask
                if blue[a] & d & -d:  # this pair's first differing k has ak blue
                    break
            else:
                if not through(rows, u, v) and decide(i + 1, False):
                    return True
            rows[u] &= ~(1 << v)
            rows[v] &= ~(1 << u)
        return False

    decide(0, len(edges) > 0)


def reference(oracle: Callable[..., OracleResult], *args: object) -> OracleResult:
    """oracle(*args) with every host searched by the 2^m scan."""
    with (
        mock.patch.object(oracles, "_least_colorings", _least_colorings_naive),
        mock.patch.object(oracles, "_witness_coloring", _witness_coloring_naive),
    ):
        return oracle(*args)
