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
"""

from __future__ import annotations

from typing import Callable
from unittest import mock

from ramsey_forge import oracles
from ramsey_forge.graphs import EdgeColoring, Graph, induced
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


def reference(oracle: Callable[..., OracleResult], *args: object) -> OracleResult:
    """oracle(*args) with every host searched by the 2^m scan."""
    with (
        mock.patch.object(oracles, "_least_colorings", _least_colorings_naive),
        mock.patch.object(oracles, "_witness_coloring", _witness_coloring_naive),
    ):
        return oracle(*args)
