"""Degree-splitting partitions and the dense greedy and wheel embedders.

The degree split is a potential-function local search.  dense_greedy_embed
is the one greedy weighted embedder, inside a host mask; the wheel places
its rim through it.  Both are one-sided: Some is always an independently
verified embedding, None is a greedy failure and never a nonexistence claim.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .generators import cycle, wheel
from .graphs import (
    COLORS,
    EdgeColoring,
    Graph,
    WeightedGraph,
    iter_bits,
    other_color,
)
from .morphisms import (
    CapacityProfile,
    VerificationError,
    VertexMap,
    integer_units,
    verify_capacity,
    verify_homomorphism,
)

# unused here; perfbench/layers.py traces this name on this module, and its
# smoke test fails on an absent binding
from .graphs import pair_density  # noqa: F401


def lovasz_partition(g: Graph, degrees: Sequence[int]) -> tuple[frozenset[int], ...]:
    """Split V(G) into classes V_1..V_s with max degree of G[V_i] <= d_i.

    Requires sum(d_i) >= max_degree(G) - s + 1.  Local search: while some
    vertex exceeds its class bound, move it to the class minimizing
    deg_{V_j}(v) / (d_j + 1); the potential sum_i e(G[V_i]) / (d_i + 1)
    strictly drops each move, so this terminates.
    """
    degrees = list(degrees)
    s = len(degrees)
    if s == 0:
        raise ValueError("at least one class required")
    if any(d < 0 for d in degrees):
        raise ValueError("degree bounds must be nonnegative")
    if sum(degrees) < g.max_degree() - s + 1:
        raise ValueError("degree bounds too small: sum d_i >= max_degree - s + 1 required")
    cls = [0] * g.n
    masks = [0] * s
    masks[0] = (1 << g.n) - 1

    while True:
        moved = False
        for v in range(g.n):
            i = cls[v]
            if (g.adj[v] & masks[i]).bit_count() <= degrees[i]:
                continue
            j = min(
                range(s),
                key=lambda c: (
                    Fraction((g.adj[v] & masks[c]).bit_count(), degrees[c] + 1),
                    c,
                ),
            )
            if j == i:  # the minimum ratio is < 1, the current one is >= 1
                raise VerificationError(f"vertex {v} has no class to move to")
            masks[i] &= ~(1 << v)
            masks[j] |= 1 << v
            cls[v] = j
            moved = True
        if not moved:
            break
    for i in range(s):
        for v in iter_bits(masks[i]):
            if (g.adj[v] & masks[i]).bit_count() > degrees[i]:
                raise VerificationError(f"vertex {v} exceeds the degree bound of class {i}")
    return tuple(frozenset(iter_bits(m)) for m in masks)


def dense_greedy_embed(
    g: Graph, gw: WeightedGraph, delta: Fraction, allowed: int
) -> VertexMap | None:
    """Greedy weighted embedding of gw into g inside the host mask `allowed`.

    Source vertices go in (-weight, id) order.  Each takes its least
    candidate with room under the weight-1 load cap that keeps every forward
    neighbour's candidate set at least (delta/2)-dense, and those sets are
    then cut to the chosen vertex's row.  Loads are integer units and the
    density test is cross-multiplied: kept * 2q >= p * |cand| for
    delta = p/q.  None means the greedy starved.  A mask with a vertex
    outside range(g.n) raises ValueError.
    """
    src = gw.graph
    if not 0 <= allowed < 1 << g.n:
        raise ValueError("allowed mask contains out-of-range vertices")
    delta = Fraction(delta)
    if not 0 <= delta <= 1:
        raise ValueError("delta must lie in [0, 1]")
    p, two_q = delta.numerator, 2 * delta.denominator
    profile = CapacityProfile.weight_cap(gw.weights)
    demand, room = integer_units(profile, src.n, g.n)
    order = sorted(range(src.n), key=lambda v: (-gw.weights[v], v))
    pos_of = {v: i for i, v in enumerate(order)}
    cand = [allowed] * src.n
    image = [-1] * src.n

    for t, v in enumerate(order):
        d = demand[v]
        forward = [y for y in iter_bits(src.adj[v]) if pos_of[y] > t]
        for u in iter_bits(cand[v]):
            if d <= room[u] and all(
                (cand[y] & g.adj[u]).bit_count() * two_q >= p * cand[y].bit_count()
                for y in forward
            ):
                break
        else:
            return None
        image[v] = u
        room[u] -= d
        for y in forward:
            cand[y] &= g.adj[u]

    vmap = VertexMap(src.n, g.n, tuple(image))
    if not (
        verify_homomorphism(src, g, vmap).valid and verify_capacity(vmap, profile).valid
    ):
        raise VerificationError("dense greedy embedding failed verification")
    return vmap


def wheel_mono_embed(
    coloring: EdgeColoring, k: int, weights: Sequence[Fraction]
) -> tuple[str, VertexMap] | None:
    """Monochromatic weighted wheel embedding in a 2-colored host.

    The wheel W_k is a (k-1)-cycle plus a hub (vertex k-1).  For each choice
    of primary color: take the max-primary-degree hub v1 with primary
    neighborhood X; if some v2 in X has a rich secondary neighborhood Y
    inside X, greedily embed the rim in the secondary color inside Y with
    hub v2, else greedily embed the rim in the primary color inside X with
    hub v1.  The rim goes through dense_greedy_embed at delta 0, and the hub
    is the image's last vertex.  Every returned map is re-verified, and one
    that fails raises VerificationError.  None is a greedy failure.
    """
    if k < 4:
        raise ValueError("wheel needs at least 4 vertices")
    weights = tuple(Fraction(w) for w in weights)
    if len(weights) != k:
        raise ValueError("one weight per wheel vertex required")
    target = wheel(k)
    WeightedGraph(target, weights)  # ValueError on any weight outside [0, 1], the hub's too
    rim = WeightedGraph(cycle(k - 1), weights[: k - 1])
    host_n = coloring.host.n

    def finish(color: str, hub_host: int, rim_map: VertexMap) -> tuple[str, VertexMap]:
        vmap = VertexMap(k, host_n, rim_map.image + (hub_host,))
        if not (
            verify_homomorphism(target, coloring.subgraph(color), vmap).valid
            and verify_capacity(vmap, CapacityProfile.weight_cap(weights)).valid
        ):
            raise VerificationError(f"{color} wheel embedding failed verification")
        return color, vmap

    for primary in COLORS:
        pri = coloring.subgraph(primary)
        sec = coloring.subgraph(other_color(primary))
        if host_n == 0:
            continue
        v1 = max(range(host_n), key=lambda v: (pri.degree(v), -v))
        x_mask = pri.adj[v1]
        if x_mask:
            # secondary-hub branch: a vertex of X rich in secondary edges to X
            v2 = max(
                iter_bits(x_mask), key=lambda v: ((sec.adj[v] & x_mask).bit_count(), -v)
            )
            y_mask = sec.adj[v2] & x_mask & ~(1 << v2)
            placed = dense_greedy_embed(sec, rim, Fraction(0), y_mask)
            if placed is not None:
                return finish(other_color(primary), v2, placed)
            # primary branch: rim in the primary color inside X, hub v1
            placed = dense_greedy_embed(pri, rim, Fraction(0), x_mask)
            if placed is not None:
                return finish(primary, v1, placed)
    return None
