"""Dependent random choice: common-neighborhood set selection and the
bandwidth-block embedding built on it.

A candidate set X is the common neighborhood of a Delta-tuple of vertices.
Tuples are scored by the exact rational functional

    |X0 cap X|^D |X|^D / E1  -  xi(X) |X0 cap X|^D / (2 E2)

with E1 = alpha^(2 D^2) |X0|^D n^D and E2 = beta^D n^D |X0|^D, where xi(X)
counts ordered Delta-tuples from X^D with fewer than beta*n common
neighbors.  The best-scoring X satisfies, for most hosts, the three
selection properties re-checked by drc_properties.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .graphs import Graph, iter_bits, mask_of
from .morphisms import VerificationError, VertexMap, verify_homomorphism

DEFAULT_TUPLE_BUDGET = 20_000


class DegenerateBudget(ValueError):
    """The bandwidth budget floor(beta * n) is zero: no block structure exists."""


def surjection_count(k: int, s: int) -> int:
    """Number of surjections from [k] onto [s] (inclusion-exclusion)."""
    return sum((-1) ** i * math.comb(s, i) * (s - i) ** k for i in range(s + 1))


def common_neighborhood(g: Graph, vertices: Iterable[int]) -> int:
    """Mask of the vertices of g adjacent to every given vertex."""
    common = (1 << g.n) - 1
    for v in vertices:
        common &= g.adj[v]
    return common


def bad_supports(
    g: Graph, x_mask: int, max_deg: int, threshold: Fraction, within: int | None = None
) -> list[tuple[int, ...]]:
    """Support sets S inside X, 1 <= |S| <= max_deg, whose common neighborhood
    (optionally restricted to the `within` mask) has size < threshold.

    Shortcut: if n' - max_deg * max_nondegree >= threshold, where n' is the
    size of the restriction, every support has codegree >= threshold and the
    list is empty without enumeration.
    """
    members = list(iter_bits(x_mask))
    if not members:
        return []
    scope = within if within is not None else (1 << g.n) - 1
    n_scope = scope.bit_count()
    max_nondeg = max(n_scope - (g.adj[v] & scope).bit_count() for v in members)
    if n_scope - max_deg * max_nondeg >= threshold:
        return []
    out: list[tuple[int, ...]] = []

    def grow(start: int, chosen: list[int], common: int) -> None:
        for idx in range(start, len(members)):
            v = members[idx]
            nxt = common & g.adj[v]
            chosen.append(v)
            if nxt.bit_count() < threshold:
                out.append(tuple(chosen))
            if len(chosen) < max_deg:
                grow(idx + 1, chosen, nxt)
            chosen.pop()

    grow(0, [], scope)
    return out


def bad_tuple_count(
    g: Graph, x_mask: int, max_deg: int, threshold: Fraction, within: int | None = None
) -> int:
    """xi(X): ordered max_deg-tuples from X^D whose support is bad."""
    total = 0
    for support in bad_supports(g, x_mask, max_deg, threshold, within):
        total += surjection_count(max_deg, len(support))
    return total


@dataclass(frozen=True)
class DrcSelection:
    x: frozenset[int]
    chosen_tuple: tuple[int, ...]
    size: int
    overlap: int  # |X cap X0|
    bad_tuples: int  # xi(X)
    bad_exact: bool
    mode: str  # exhaustive | sampled


def drc_select(
    g: Graph,
    x0: Iterable[int],
    max_deg: int,
    beta: Fraction,
    trials: int = 100,
    seed: int = 0,
    alpha: Fraction = Fraction(1, 2),
    tuple_budget: int = DEFAULT_TUPLE_BUDGET,
) -> DrcSelection:
    """Pick the best common-neighborhood set over candidate tuples.

    Candidate tuples are enumerated exhaustively when the number of
    multisets fits the budget, otherwise `trials` seeded samples are drawn.
    Stats are recomputed from scratch on the winner.
    """
    if max_deg < 1:
        raise ValueError("max_deg must be at least 1")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    beta = Fraction(beta)
    alpha = Fraction(alpha)
    n = g.n
    if n == 0:
        raise ValueError("empty host")
    x0_mask = mask_of(x0)
    x0_size = x0_mask.bit_count()
    threshold = beta * n

    exhaustive = math.comb(n + max_deg - 1, max_deg) <= tuple_budget
    if exhaustive:
        candidates: Iterable[tuple[int, ...]] = itertools.combinations_with_replacement(
            range(n), max_deg
        )
        mode = "exhaustive"
    else:
        rng = random.Random(seed)
        candidates = (
            tuple(sorted(rng.randrange(n) for _ in range(max_deg)))
            for _ in range(trials)
        )
        mode = "sampled"

    d = max_deg
    e1 = alpha ** (2 * d * d) * Fraction(x0_size) ** d * Fraction(n) ** d
    e2 = beta**d * Fraction(n) ** d * Fraction(x0_size) ** d

    best: tuple[Fraction, tuple[int, ...], int] | None = None
    for tup in candidates:
        common = common_neighborhood(g, tup)
        size = common.bit_count()
        overlap = (common & x0_mask).bit_count()
        if e1 > 0:
            score = Fraction(overlap**d * size**d) / e1
        else:
            score = Fraction(0)
        if e2 > 0 and overlap > 0 and size > 0:
            xi = bad_tuple_count(g, common, d, threshold)
            score -= Fraction(xi * overlap**d) / (2 * e2)
        if best is None or score > best[0] or (score == best[0] and tup < best[1]):
            best = (score, tup, common)
    assert best is not None
    _, tup, common = best

    # independent recomputation of the stats for the winner
    recheck = (1 << n) - 1
    for v in tup:
        recheck &= g.adj[v]
    if recheck != common:
        raise VerificationError(f"selected set is not the common neighborhood of {tup}")
    xi = bad_tuple_count(g, common, d, threshold)
    return DrcSelection(
        x=frozenset(iter_bits(common)),
        chosen_tuple=tup,
        size=common.bit_count(),
        overlap=(common & x0_mask).bit_count(),
        bad_tuples=xi,
        bad_exact=True,
        mode=mode,
    )


def drc_properties(
    g: Graph,
    x0_mask: int,
    x_mask: int,
    max_deg: int,
    alpha: Fraction,
    beta: Fraction,
) -> tuple[bool, bool, bool]:
    """The three selection guarantees, rechecked by exact enumeration:
    (i) |X| >= alpha^(2D) n / 2, (ii) |X cap X0| >= alpha^(2D) |X0| / 2,
    (iii) xi(X) <= (2 beta / alpha^(2D) * |X|)^D."""
    alpha = Fraction(alpha)
    beta = Fraction(beta)
    n = g.n
    d = max_deg
    size = x_mask.bit_count()
    overlap = (x_mask & x0_mask).bit_count()
    p1 = size >= alpha ** (2 * d) * n / 2
    p2 = overlap >= alpha ** (2 * d) * x0_mask.bit_count() / 2
    xi = bad_tuple_count(g, x_mask, d, beta * n)
    p3 = xi <= (2 * beta / alpha ** (2 * d) * size) ** d
    return p1, p2, p3


def bipartition_of(g: Graph) -> tuple[int, int]:
    """BFS 2-coloring; returns the two side masks or raises on an odd cycle."""
    side = [-1] * g.n
    for s in range(g.n):
        if side[s] >= 0:
            continue
        side[s] = 0
        stack = [s]
        while stack:
            v = stack.pop()
            for u in iter_bits(g.adj[v]):
                if side[u] < 0:
                    side[u] = 1 - side[v]
                    stack.append(u)
                elif side[u] == side[v]:
                    raise ValueError("graph contains an odd cycle; not bipartite")
    a = mask_of(v for v in range(g.n) if side[v] == 0)
    b = mask_of(v for v in range(g.n) if side[v] == 1)
    return a, b


def default_bandwidth_beta(alpha: Fraction, max_deg: int) -> Fraction:
    return Fraction(alpha) ** (6 * max_deg + 1) / (256 * max_deg)


def drc_bandwidth_embed(
    host: Graph,
    h: Graph,
    labels: Sequence[int],
    alpha: Fraction,
    seed: int = 0,
    max_deg: int | None = None,
    beta: Fraction | None = None,
    tuple_budget: int = DEFAULT_TUPLE_BUDGET,
    trials: int = 64,
) -> VertexMap | None:
    """Block-by-block embedding of a bipartite low-bandwidth graph.

    h's labels must have width <= floor(beta * n) with the default
    beta = alpha^(6D+1) / (256 D); a zero budget raises DegenerateBudget
    instead of silently looping.  One side (B) is embedded block by block
    into intersections of successive drc_select outputs; the other side (A)
    goes greedily into common neighborhoods.  Some is always verified (a
    failed recheck raises VerificationError); None reports greedy
    starvation, not nonexistence.
    """
    alpha = Fraction(alpha)
    n = host.n
    if max_deg is None:
        max_deg = max(h.max_degree(), 1)
    if beta is None:
        beta = default_bandwidth_beta(alpha, max_deg)
    beta = Fraction(beta)
    budget = int(beta * n)  # floor
    if budget <= 0:
        raise DegenerateBudget(
            f"bandwidth budget floor(beta*n) = 0 for beta={beta}, n={n}"
        )
    if sorted(labels) != list(range(h.n)):
        raise ValueError("labels must be a bijection onto 0..n-1")
    width = max((abs(labels[u] - labels[v]) for u, v in h.edges()), default=0)
    if width > budget:
        raise ValueError(f"labeling width {width} exceeds budget {budget}")
    a_mask, b_mask = bipartition_of(h)

    rng = random.Random(seed)
    gamma = 16 * beta * alpha ** (-2 * max_deg)
    threshold = 8 * beta * n
    full = (1 << n) - 1

    isolated = [v for v in range(h.n) if h.adj[v] == 0]
    by_label = sorted(
        (v for v in range(h.n) if h.adj[v] != 0), key=lambda v: labels[v]
    )
    b_side = [v for v in by_label if b_mask >> v & 1]
    a_side = [v for v in by_label if a_mask >> v & 1]

    image = [-1] * h.n
    used = 0

    def v_t_mask() -> int:
        return full & ~used

    def block_b(t: int) -> set[int]:
        cut = 2 * t * budget
        return {v for v in b_side if labels[v] < cut}

    def block_a(done_b: set[int]) -> set[int]:
        return {
            a
            for a in a_side
            if set(iter_bits(h.adj[a])) <= done_b
        }

    sel = drc_select(
        host, range(n), max_deg, 8 * beta, trials=trials,
        seed=rng.randrange(1 << 30), alpha=alpha, tuple_budget=tuple_budget,
    )
    x_prev = mask_of(sel.x)
    embedded_a: set[int] = set()
    embedded_b: set[int] = set()

    t = 0
    max_t = (max((labels[v] for v in by_label), default=0) // (2 * budget)) + 2
    while len(embedded_a) + len(embedded_b) < len(by_label):
        if t > max_t:
            return None
        v_t = v_t_mask()
        host_t = _induced_mask_graph(host, v_t)
        x0_next = x_prev & v_t
        sel_next = drc_select(
            host_t[0], [host_t[1][v] for v in iter_bits(x0_next)], max_deg, 8 * beta,
            trials=trials, seed=rng.randrange(1 << 30), alpha=alpha,
            tuple_budget=tuple_budget,
        )
        x_next = mask_of(host_t[2][v] for v in sel_next.x)

        new_b = sorted(block_b(t + 1) - embedded_b, key=lambda v: labels[v])
        band = x_prev & x_next
        bads = bad_supports(host, x_prev | x_next, max_deg, threshold, within=v_t)
        for b in new_b:
            placed_nbrs = [
                image[a_nb]
                for a_nb in iter_bits(h.adj[b])
                if image[a_nb] >= 0
            ]
            # avoid x that would push any partly-embedded neighbor's image
            # set into too many bad tuples
            avoid = 0
            for a_nb in iter_bits(h.adj[b]):
                ni = [image[u] for u in iter_bits(h.adj[a_nb]) if image[u] >= 0]
                cap = (gamma * max(x_prev.bit_count(), 1)) ** (
                    max_deg - len(ni) - 1
                )
                counts: dict[int, int] = {}
                ni_set = set(ni)
                for support in bads:
                    if ni_set <= set(support):
                        for x in support:
                            if x not in ni_set:
                                counts[x] = counts.get(x, 0) + 1
                for x, c in counts.items():
                    if c > cap:
                        avoid |= 1 << x
            cand = band & ~used & ~avoid & common_neighborhood(host, placed_nbrs)
            if cand == 0:
                return None
            pick = rng.choice(list(iter_bits(cand)))
            image[b] = pick
            used |= 1 << pick
            embedded_b.add(b)

        new_a = sorted(block_a(embedded_b) - embedded_a, key=lambda v: labels[v])
        for a in new_a:
            cand = v_t & ~used & common_neighborhood(
                host, (image[u] for u in iter_bits(h.adj[a]))
            )
            if cand == 0:
                return None
            pick = rng.choice(list(iter_bits(cand)))
            image[a] = pick
            used |= 1 << pick
            embedded_a.add(a)

        x_prev = x_next
        t += 1

    for v in isolated:
        cand = full & ~used
        if cand == 0:
            return None
        pick = min(iter_bits(cand))
        image[v] = pick
        used |= 1 << pick

    vmap = VertexMap(h.n, n, tuple(image))
    if not (vmap.is_injective() and verify_homomorphism(h, host, vmap).valid):
        raise VerificationError("bandwidth-block embedding failed verification")
    return vmap


def _induced_mask_graph(g: Graph, mask: int) -> tuple[Graph, dict[int, int], dict[int, int]]:
    """Induced subgraph on a mask plus both direction relabeling maps."""
    members = list(iter_bits(mask))
    to_local = {v: i for i, v in enumerate(members)}
    to_global = {i: v for i, v in enumerate(members)}
    adj = []
    for v in members:
        row = 0
        for u in iter_bits(g.adj[v] & mask):
            row |= 1 << to_local[u]
        adj.append(row)
    return Graph.from_adj(adj), to_local, to_global
