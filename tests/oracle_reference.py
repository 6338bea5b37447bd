"""The 2^m reference for the oracles' one search path.

reference(oracle, *args) runs a public oracle with oracles._witness_coloring
swapped for a full scan of every coloring of each host.  Everything else is
the library's own: the loop over n and the admissible hosts, the stable
oracle's multipartite fallback and the unrooted copy plan.  The swap is
unittest.mock.patch.object, not pytest's monkeypatch fixture, so it also
works inside hypothesis tests.
"""

from __future__ import annotations

from typing import Callable
from unittest import mock

from ramsey_forge import oracles
from ramsey_forge.graphs import EdgeColoring, Graph
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


def reference(oracle: Callable[..., OracleResult], *args: object) -> OracleResult:
    """oracle(*args) with every host searched by the 2^m scan."""
    with mock.patch.object(oracles, "_witness_coloring", _witness_coloring_naive):
        return oracle(*args)
