"""Degree-splitting partitions and the dense greedy and wheel embedders.

The degree split is a potential-function local search.  The greedy
embedders are one-sided: Some is always an independently verified embedding,
None is a greedy failure and never a nonexistence claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .generators import wheel
from .graphs import (
    COLORS,
    EdgeColoring,
    Graph,
    WeightedGraph,
    iter_bits,
    mask_of,
    other_color,
)
from .morphisms import (
    CapacityProfile,
    VerificationError,
    VertexMap,
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


@dataclass(frozen=True)
class DenseWitness:
    """Ordered disjoint parts U_1..U_s with per-part internal degree budgets."""

    parts: tuple[frozenset[int], ...]
    degrees: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.parts) != len(self.degrees):
            raise ValueError("one degree per part required")
        if not self.parts:
            raise ValueError("at least one part required")
        seen: set[int] = set()
        for part in self.parts:
            if seen & part:
                raise ValueError("parts must be disjoint")
            seen |= part

    @classmethod
    def trivial(cls, g: Graph, max_deg: int) -> "DenseWitness":
        return cls((frozenset(range(g.n)),), (max_deg,))


def dense_greedy_embed(
    g: Graph,
    witness: DenseWitness,
    gw: WeightedGraph,
    delta: Fraction,
) -> VertexMap | None:
    """Greedy weighted embedding of gw into g guided by the witness layers.

    Splits the source by lovasz_partition with the witness degree budgets,
    class c going into part U_c.  Within a class, vertices go in
    non-increasing weight order; each placement must keep every still-free
    same-class forward neighbor's candidate set at least (delta/2)-dense and
    respect the weight-1 load cap.  None means the greedy starved.  A part
    with a vertex outside range(g.n) raises ValueError.
    """
    src = gw.graph
    for i, part in enumerate(witness.parts):
        if any(not 0 <= v < g.n for v in part):
            raise ValueError(f"part {i} contains out-of-range vertices")
    if not 0 <= delta <= 1:
        raise ValueError("delta must lie in [0, 1]")
    s = len(witness.parts)
    classes = lovasz_partition(src, witness.degrees)
    part_masks = [mask_of(p) for p in witness.parts]

    order: list[int] = []
    class_of = [0] * src.n
    for c in range(s):
        members = sorted(classes[c], key=lambda v: (-gw.weights[v], v))
        order.extend(members)
        for v in classes[c]:
            class_of[v] = c
    pos_of = {v: i for i, v in enumerate(order)}

    cand = [part_masks[class_of[v]] for v in range(src.n)]
    load = [Fraction(0)] * g.n
    image = [-1] * src.n
    half_delta = Fraction(delta) / 2

    for t, v in enumerate(order):
        w = gw.weights[v]
        forward_same = [
            y
            for y in iter_bits(src.adj[v])
            if pos_of[y] > t and class_of[y] == class_of[v]
        ]
        chosen = -1
        for u in iter_bits(cand[v]):
            if load[u] + w > 1:
                continue
            ok = True
            for y in forward_same:
                kept = (cand[y] & g.adj[u]).bit_count()
                if kept < half_delta * cand[y].bit_count():
                    ok = False
                    break
            if ok:
                chosen = u
                break
        if chosen < 0:
            return None
        image[v] = chosen
        load[chosen] += w
        for y in iter_bits(src.adj[v]):
            if pos_of[y] > t:
                cand[y] &= g.adj[chosen]

    vmap = VertexMap(src.n, g.n, tuple(image))
    if not (
        verify_homomorphism(src, g, vmap).valid
        and verify_capacity(vmap, CapacityProfile.weight_cap(gw.weights)).valid
    ):
        raise VerificationError("dense greedy embedding failed verification")
    return vmap


def _greedy_cycle_embed(
    h: Graph, allowed: int, rim: list[int], weights: Sequence[Fraction]
) -> dict[int, int] | None:
    """Greedily place a cycle (rim order gives adjacency) inside the allowed
    mask of h, heaviest vertices first, loading no host vertex past 1."""
    k = len(rim)
    cand = {v: allowed for v in rim}
    placed: dict[int, int] = {}
    load: dict[int, Fraction] = {}
    idx = {v: i for i, v in enumerate(rim)}
    for v in sorted(rim, key=lambda v: (-weights[v], v)):
        w = weights[v]
        pick = next((u for u in iter_bits(cand[v]) if load.get(u, 0) + w <= 1), -1)
        if pick < 0:
            return None
        placed[v] = pick
        load[pick] = load.get(pick, 0) + w
        for nb in (rim[(idx[v] + 1) % k], rim[(idx[v] - 1) % k]):
            if nb not in placed:
                cand[nb] &= h.adj[pick]
    return placed


def wheel_mono_embed(
    coloring: EdgeColoring, k: int, weights: Sequence[Fraction]
) -> tuple[str, VertexMap] | None:
    """Monochromatic weighted wheel embedding in a 2-colored host.

    The wheel W_k is a (k-1)-cycle plus a hub (vertex k-1).  For each choice
    of primary color: take the max-primary-degree hub v1 with primary
    neighborhood X; if some v2 in X has a rich secondary neighborhood Y
    inside X, greedily embed the rim in the secondary color inside Y with
    hub v2, else greedily embed the rim in the primary color inside X with
    hub v1.  Every returned map is re-verified, and one that fails raises
    VerificationError.  None is a greedy failure.
    """
    if k < 4:
        raise ValueError("wheel needs at least 4 vertices")
    weights = tuple(Fraction(w) for w in weights)
    if len(weights) != k:
        raise ValueError("one weight per wheel vertex required")
    target = wheel(k)
    gw = WeightedGraph(target, weights)
    host_n = coloring.host.n
    rim = list(range(k - 1))
    hub = k - 1

    def finish(color: str, hub_host: int, placed: dict[int, int]) -> tuple[str, VertexMap]:
        image = [0] * k
        image[hub] = hub_host
        for v, u in placed.items():
            image[v] = u
        vmap = VertexMap(k, host_n, tuple(image))
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
            placed = _greedy_cycle_embed(sec, y_mask, rim, weights)
            if placed is not None:
                return finish(other_color(primary), v2, placed)
            # primary branch: rim in the primary color inside X, hub v1
            placed = _greedy_cycle_embed(pri, x_mask, rim, weights)
            if placed is not None:
                return finish(primary, v1, placed)
    return None
