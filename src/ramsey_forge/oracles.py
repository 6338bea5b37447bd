"""Exact desk-scale Ramsey, weighted Ramsey, and stable Ramsey oracles.

Colorings are enumerated edge by edge.  In pruned mode a branch is cut as
soon as the already-decided edges of one color contain a monochromatic copy
(every extension then contains it too), and the first edge is fixed red
(color swap is a symmetry of the predicate).  Exhaustive mode enumerates
every coloring with no shortcuts; both modes must agree.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import ceil
from typing import Callable, Iterator

from . import morphisms
from .generators import complete, complete_multipartite
from .graphs import BLUE, RED, EdgeColoring, Graph, WeightedGraph
from .morphisms import (
    CapacityProfile,
    VerificationError,
    VertexMap,
    decided,
    find_capacity_homomorphism,
    find_weighted_embedding,
    verify_capacity,
    verify_homomorphism,
)

RAMSEY_HARD_CAP = 8
STABLE_HARD_CAP = 6

VALUE = "value"
EXCEEDS = "exceeds"
INFINITE_SUSPECTED = "infinite_suspected"

MODE_PRUNED = "symmetry_pruned"
MODE_EXHAUSTIVE = "exhaustive"


@dataclass
class OracleResult:
    status: str  # VALUE | EXCEEDS | INFINITE_SUSPECTED
    value: int | None
    n_max: int
    certificate_mode: str
    witness_n: int | None = None
    witness_host: Graph | None = None  # None means K_{witness_n}
    witness_coloring: EdgeColoring | None = None


def mono_copy_search(
    coloring: EdgeColoring, gw: WeightedGraph
) -> tuple[str, VertexMap] | None:
    """Monochromatic weighted embedding in the red graph, then the blue.

    None is an exhaustive-search certificate for both colors.
    """
    for color in (RED, BLUE):
        host = coloring.subgraph(color)
        vmap = find_weighted_embedding(gw, host)
        if vmap is not None:
            if not (
                verify_homomorphism(gw.graph, host, vmap).valid
                and verify_capacity(vmap, CapacityProfile.weight_cap(gw.weights)).valid
            ):
                raise VerificationError(f"{color} weighted embedding failed verification")
            return color, vmap
    return None


def witness_verified(result: OracleResult, gw: WeightedGraph) -> bool:
    """Independent recheck of an oracle answer: its witness coloring, if any,
    holds no monochromatic copy of gw."""
    return result.witness_coloring is None or mono_copy_search(result.witness_coloring, gw) is None


def plain_embeds(g: Graph, host: Graph) -> bool:
    """Injective subgraph embedding existence: count cap 1 on every host vertex.

    Raises BudgetExhausted past morphisms.DEFAULT_BUDGET nodes.
    """
    profile = CapacityProfile.uniform_count_cap(host.n, 1)
    outcome = find_capacity_homomorphism(g, host, profile, morphisms.DEFAULT_BUDGET)
    return decided(outcome) is not None


def _checker(embeds: Callable[[Graph], bool]) -> Callable[[tuple[int, ...]], bool]:
    """embeds(host) for a host given by its adjacency rows, cached by rows."""
    cache: dict[tuple[int, ...], bool] = {}

    def check(adj: tuple[int, ...]) -> bool:
        hit = cache.get(adj)
        if hit is None:
            hit = cache[adj] = embeds(Graph.from_adj(adj))
        return hit

    return check


def _plain_checker(g: Graph) -> Callable[[tuple[int, ...]], bool]:
    return _checker(lambda host: plain_embeds(g, host))


def _weighted_checker(gw: WeightedGraph) -> Callable[[tuple[int, ...]], bool]:
    return _checker(lambda host: find_weighted_embedding(gw, host) is not None)


def _witness_coloring_pruned(
    host: Graph, has_copy: Callable[[tuple[int, ...]], bool]
) -> EdgeColoring | None:
    """A coloring of the host with no monochromatic copy, or None if all have one.

    DFS over the edge list; a branch dies once one color's decided edges
    already contain a copy.  The first edge is fixed red: the predicate is
    invariant under swapping colors.
    """
    edges = host.edges()
    red = [0] * host.n
    blue = [0] * host.n

    def decide(i: int, fixed_red: bool) -> EdgeColoring | None:
        if i == len(edges):
            return EdgeColoring.from_red_adj(host, list(red))
        u, v = edges[i]
        choices = (RED,) if fixed_red else (RED, BLUE)
        for color in choices:
            rows = red if color == RED else blue
            rows[u] |= 1 << v
            rows[v] |= 1 << u
            if not has_copy(tuple(rows)):
                found = decide(i + 1, False)
                if found is not None:
                    return found
            rows[u] &= ~(1 << v)
            rows[v] &= ~(1 << u)
        return None

    return decide(0, len(edges) > 0)


def _witness_coloring_naive(
    host: Graph, has_copy: Callable[[tuple[int, ...]], bool]
) -> EdgeColoring | None:
    """Full 2^m scan with no pruning and no symmetry shortcuts."""
    edges = host.edges()
    m = len(edges)
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


def _witness_coloring(
    host: Graph, has_copy: Callable[[tuple[int, ...]], bool], mode: str
) -> EdgeColoring | None:
    if mode == MODE_PRUNED:
        return _witness_coloring_pruned(host, has_copy)
    if mode == MODE_EXHAUSTIVE:
        return _witness_coloring_naive(host, has_copy)
    raise ValueError(f"unknown mode {mode!r}")


def ramsey_number(g: Graph, n_max: int, mode: str = MODE_PRUNED) -> OracleResult:
    """Smallest n <= n_max such that every 2-coloring of K_n contains a
    monochromatic copy of g (injective embedding)."""
    if n_max > RAMSEY_HARD_CAP:
        raise ValueError(f"n_max {n_max} exceeds hard cap {RAMSEY_HARD_CAP}")
    return _ramsey_loop(n_max, mode, lambda: _plain_checker(g))


def weighted_ramsey(gw: WeightedGraph, n_max: int, mode: str = MODE_PRUNED) -> OracleResult:
    """Smallest n <= n_max such that every 2-coloring of K_n admits a
    monochromatic weighted embedding of gw."""
    if n_max > RAMSEY_HARD_CAP:
        raise ValueError(f"n_max {n_max} exceeds hard cap {RAMSEY_HARD_CAP}")
    return _ramsey_loop(n_max, mode, lambda: _weighted_checker(gw))


def _ramsey_loop(
    n_max: int,
    mode: str,
    make_checker: Callable[[], Callable[[tuple[int, ...]], bool]],
) -> OracleResult:
    last_witness: tuple[int, EdgeColoring] | None = None
    for n in range(1, n_max + 1):
        witness = _witness_coloring(complete(n), make_checker(), mode)
        if witness is None:
            result = OracleResult(VALUE, n, n_max, mode)
            if last_witness is not None:
                result.witness_n, result.witness_coloring = last_witness
            return result
        last_witness = (n, witness)
    result = OracleResult(EXCEEDS, None, n_max, mode)
    if last_witness is not None:
        result.witness_n, result.witness_coloring = last_witness
    return result


def min_degree_threshold(n: int, eps: Fraction) -> int:
    """Degree bound for admissible stable-Ramsey hosts on n vertices.

    ceil((1-eps)n), capped at n-1 so that K_n is always admissible: under a
    plain ceiling the host class is empty for eps < 1/n and the quantifier
    would be vacuous, contradicting r_eps(K_2) = 2.
    """
    if n == 0:
        return 0
    return min(n - 1, ceil((1 - Fraction(eps)) * n))


def hosts_with_min_degree(n: int, threshold: int) -> Iterator[Graph]:
    """All graphs on [n] with minimum degree >= threshold.

    Enumerated in the complement (max degree <= n-1-threshold), which prunes
    hard when the threshold is close to n-1.
    """
    cap = n - 1 - threshold
    if cap < 0:
        return
    pairs = list(itertools.combinations(range(n), 2))
    codeg = [0] * n  # complement degrees
    full = (1 << n) - 1
    adj = [full & ~(1 << v) for v in range(n)]  # host rows, start at K_n

    def decide(i: int) -> Iterator[Graph]:
        if i == len(pairs):
            yield Graph.from_adj(list(adj))
            return
        u, v = pairs[i]
        yield from decide(i + 1)  # edge kept in the host
        if codeg[u] < cap and codeg[v] < cap:
            codeg[u] += 1
            codeg[v] += 1
            adj[u] &= ~(1 << v)
            adj[v] &= ~(1 << u)
            yield from decide(i + 1)
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            codeg[u] -= 1
            codeg[v] -= 1

    yield from decide(0)


def _integer_partitions(n: int, max_part: int | None = None) -> Iterator[tuple[int, ...]]:
    if n == 0:
        yield ()
        return
    if max_part is None:
        max_part = n
    for first in range(min(n, max_part), 0, -1):
        for rest in _integer_partitions(n - first, first):
            yield (first,) + rest


def stable_ramsey(
    gw: WeightedGraph, eps: Fraction, n_max: int, mode: str = MODE_PRUNED
) -> OracleResult:
    """Smallest n <= n_max such that every admissible host on n vertices is
    monochromatically weighted-Ramsey for gw under every 2-coloring."""
    if n_max > STABLE_HARD_CAP:
        raise ValueError(f"n_max {n_max} exceeds hard cap {STABLE_HARD_CAP}")
    eps = Fraction(eps)
    last_witness: tuple[int, Graph, EdgeColoring] | None = None
    for n in range(1, n_max + 1):
        threshold = min_degree_threshold(n, eps)
        failed = None
        for host in hosts_with_min_degree(n, threshold):
            witness = _witness_coloring(host, _weighted_checker(gw), mode)
            if witness is not None:
                failed = (n, host, witness)
                break
        if failed is None:
            result = OracleResult(VALUE, n, n_max, mode)
            if last_witness is not None:
                result.witness_n, result.witness_host, result.witness_coloring = last_witness
            return result
        last_witness = failed

    # Not reached by n_max.  If a complete multipartite host with p parts and
    # eps >= 1/p admits a copy-free coloring, balanced blow-ups of it stay
    # admissible at every scale, so the number is suspected infinite.
    result = OracleResult(EXCEEDS, None, n_max, mode)
    if last_witness is not None:
        result.witness_n, result.witness_host, result.witness_coloring = last_witness
    threshold = min_degree_threshold(n_max, eps)
    for sizes in _integer_partitions(n_max):
        p = len(sizes)
        if p < 2 or eps < Fraction(1, p):
            continue
        host = complete_multipartite(sizes)
        if host.min_degree() < threshold:
            continue
        witness = _witness_coloring(host, _weighted_checker(gw), mode)
        if witness is not None:
            result.status = INFINITE_SUSPECTED
            result.witness_n = n_max
            result.witness_host = host
            result.witness_coloring = witness
            break
    return result
