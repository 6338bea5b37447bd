"""Dependent random choice: common-neighborhood set selection and the
bandwidth-block embedding built on it.

A candidate set X is the common neighborhood of a Delta-tuple of vertices.
Tuples are scored by the exact rational functional

    |X0 cap X|^D |X|^D / E1  -  xi(X) |X0 cap X|^D / (2 E2)

with E1 = alpha^(2 D^2) |X0|^D n^D and E2 = beta^D n^D |X0|^D, where xi(X)
counts ordered Delta-tuples from X^D with fewer than beta*n common
neighbors.  The best-scoring X satisfies, for most hosts, the three
selection properties re-checked by drc_properties.

drc_select compares scores as integers: with E1 = p1/q1 and E2 = p2/q2 in
lowest terms, the score times the per-call constant 2 p1 p2 > 0 is
2 p2 q1 |X0 cap X|^D |X|^D - p1 q2 xi(X) |X0 cap X|^D; when E1 or E2 is 0
its term is dropped and the other is scaled by its own positive constant.
Integer codegrees are compared with ceil(beta*n), which is the same test as
comparing with beta*n.  xi(X) is 0 whenever n - D * (the largest nondegree
in X) >= beta*n; drc_select masks once per call the vertices whose nondegree
breaks that bound, and only a set meeting the mask reaches bad_supports'
enumeration.  The exhaustive scan walks the multisets depth-first, so each
level ANDs one host row into its prefix's intersection P, and it is a
branch and bound: every set below P lies inside P and xi >= 0, so no score
below P exceeds the xi-free term of P itself (2 p2 q1 |X0 cap P|^D |P|^D
when E1, E2 > 0).  A prefix whose bound does not beat the best score so far
is skipped with its subtree, and xi(X) is counted only at a leaf whose
xi-free score beats it.  A skipped multiset could at best tie, and a tie
never replaces the best (the least tuple wins), so the winner is the one the
full scan picks.

drc_bandwidth_embed checks its labels with bandwidth.labeling_width and fixes
its block schedule first: a B vertex goes in block label // (2 budget), a
non-isolated A vertex in the last block of its B neighbours (so no B vertex
meets a placed neighbour), B before A within a block, each in label order.
Each block makes one drc_select on the unused host vertices.  None means only
greedy starvation.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .bandwidth import labeling_width
from .graphs import Graph, induced, iter_bits, mask_of
from .morphisms import VerificationError, VertexMap, verify_homomorphism

DEFAULT_TUPLE_BUDGET = 20_000
BANDWIDTH_TRIALS = 64  # sampled tuples per drc_select call of drc_bandwidth_embed


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


def _high_nondegree(g: Graph, scope: int, max_deg: int, need: int) -> int:
    """Mask of the vertices v of g with n' - max_deg * k(v) < need, where n'
    counts the scope and k(v) the scope vertices v is not adjacent to.  A
    support of at most max_deg vertices of X keeps at least need common
    neighbors in the scope whenever X misses this mask."""
    n_scope = scope.bit_count()
    high = 0
    for v, row in enumerate(g.adj):
        if n_scope - max_deg * (n_scope - (row & scope).bit_count()) < need:
            high |= 1 << v
    return high


def bad_supports(
    g: Graph, x_mask: int, max_deg: int, threshold: Fraction, within: int | None = None
) -> list[tuple[int, ...]]:
    """Support sets S inside X, 1 <= |S| <= max_deg, whose common neighborhood
    (optionally restricted to the `within` mask) has size < threshold.

    Shortcut: if n' - max_deg * max_nondegree >= threshold, where n' is the
    size of the restriction, every support has codegree >= threshold and the
    list is empty without enumeration.
    """
    scope = within if within is not None else (1 << g.n) - 1
    need = math.ceil(threshold)  # an integer count is < threshold iff it is < need
    if not x_mask & _high_nondegree(g, scope, max_deg, need):
        return []
    members = list(iter_bits(x_mask))
    out: list[tuple[int, ...]] = []

    def grow(start: int, chosen: list[int], common: int) -> None:
        for idx in range(start, len(members)):
            v = members[idx]
            nxt = common & g.adj[v]
            chosen.append(v)
            if nxt.bit_count() < need:
                out.append(tuple(chosen))
            if len(chosen) < max_deg:
                grow(idx + 1, chosen, nxt)
            chosen.pop()

    grow(0, [], scope)
    return out


def bad_tuple_count(g: Graph, x_mask: int, max_deg: int, threshold: Fraction) -> int:
    """xi(X): ordered max_deg-tuples from X^D whose support is bad.  The
    tuples onto a support of size s number surjection_count(max_deg, s), so
    the supports are counted by size and that is taken once per size."""
    sizes = Counter(map(len, bad_supports(g, x_mask, max_deg, threshold)))
    return sum(k * surjection_count(max_deg, s) for s, k in sizes.items())


def _best_multiset(
    rows: Sequence[int],
    depth: int,
    x0_mask: int,
    d: int,
    w_size: int,
    open_mask: int,
    penalty: Callable[[int], int],
) -> tuple[tuple[int, ...], int]:
    """The multiset of `depth` row indices whose rows' intersection X scores
    highest, |X0 cap X|^d (w_size |X|^d - penalty(X)) with the penalty taken
    only when X meets open_mask, and that X.  Multisets are walked
    depth-first in combinations_with_replacement order, each level ANDing
    one row into its prefix's intersection P.  Every X below P lies inside
    P and the penalty is >= 0, so |X0 cap P|^d w_size |P|^d bounds each
    score below P: a prefix whose bound is <= the best score so far is
    skipped with its subtree, and a leaf pays for its penalty only when its
    penalty-free score beats the best.  A new best needs a strictly higher
    score, so the first of equal scores, the least tuple, still wins; a
    leaf builds its tuple only when it sets a new best."""
    n = len(rows)
    best_score = best = None

    def descend(start: int, prefix: int, chosen: tuple[int, ...]) -> None:
        nonlocal best_score, best
        leaf = len(chosen) == depth - 1
        for i in range(start, n):
            common = prefix & rows[i]
            lift = (common & x0_mask).bit_count() ** d
            bound = lift * w_size * common.bit_count() ** d
            if best is not None and bound <= best_score:
                continue  # no multiset below scores above best_score
            if not leaf:
                descend(i, common, chosen + (i,))
                continue
            score = bound - lift * penalty(common) if lift and common & open_mask else bound
            if best is None or score > best_score:
                best_score, best = score, (chosen + (i,), common)

    descend(0, -1, ())  # -1: the empty intersection holds every vertex
    return best


@dataclass(frozen=True)
class DrcSelection:
    x: frozenset[int]
    chosen_tuple: tuple[int, ...]
    size: int
    overlap: int  # |X cap X0|
    bad_tuples: int  # xi(X)
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

    d = max_deg
    e1 = alpha ** (2 * d * d) * Fraction(x0_size) ** d * Fraction(n) ** d
    e2 = beta**d * Fraction(n) ** d * Fraction(x0_size) ** d
    # integer weights of the two score terms over one positive scale
    if e1 > 0 and e2 > 0:
        w_size, w_bad = 2 * e2.numerator * e1.denominator, e1.numerator * e2.denominator
    else:
        w_size, w_bad = int(e1 > 0), int(e2 > 0)
    # only a set meeting this mask can have a bad support
    open_mask = _high_nondegree(g, (1 << n) - 1, d, math.ceil(threshold)) if w_bad else 0

    def penalty(common: int) -> int:
        return w_bad * bad_tuple_count(g, common, d, threshold)

    if math.comb(n + d - 1, d) <= tuple_budget:
        mode = "exhaustive"
        tup, common = _best_multiset(g.adj, d, x0_mask, d, w_size, open_mask, penalty)
    else:
        mode = "sampled"
        rng = random.Random(seed)
        draws = sorted(
            {tuple(sorted(rng.randrange(n) for _ in range(d))) for _ in range(trials)}
        )
        # each draw's set scored as a one-row multiset, least draw first
        (i,), common = _best_multiset(
            [common_neighborhood(g, t) for t in draws], 1, x0_mask, d, w_size, open_mask, penalty
        )
        tup = draws[i]

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
) -> VertexMap | None:
    """Block-by-block embedding of a bipartite low-bandwidth graph on the
    block schedule of the module docstring.  h's labels must have width <=
    floor(beta * n) with the default beta = alpha^(6D+1) / (256 D); a zero
    budget raises DegenerateBudget.  Some is always verified (a failed
    recheck raises VerificationError); None means that a B, A or isolated
    vertex found no free candidate (greedy starvation), not nonexistence.
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
    width = labeling_width(h, labels)
    if width > budget:
        raise ValueError(f"labeling width {width} exceeds budget {budget}")
    a_mask, b_mask = bipartition_of(h)

    isolated = [v for v in range(h.n) if h.adj[v] == 0]
    span = 2 * budget
    by_label = sorted((v for v in range(h.n) if h.adj[v]), key=lambda v: labels[v])
    b_side = [v for v in by_label if b_mask >> v & 1]
    last = max((labels[v] // span for v in b_side), default=-1)
    schedule: list[tuple[list[int], list[int]]] = [([], []) for _ in range(last + 1)]
    for b in b_side:
        schedule[labels[b] // span][0].append(b)
    for a in by_label:
        if a_mask >> a & 1:
            schedule[max(labels[u] for u in iter_bits(h.adj[a])) // span][1].append(a)

    rng = random.Random(seed)
    gamma = 16 * beta * alpha ** (-2 * max_deg)
    threshold = 8 * beta * n
    full = (1 << n) - 1
    image = [-1] * h.n
    used = 0

    sel = drc_select(
        host, range(n), max_deg, 8 * beta, trials=BANDWIDTH_TRIALS,
        seed=rng.randrange(1 << 30), alpha=alpha,
    )
    x_prev = mask_of(sel.x)
    for new_b, new_a in schedule:
        v_t = full & ~used
        members = list(iter_bits(v_t))
        index = {v: i for i, v in enumerate(members)}
        x0_next = x_prev & v_t
        sel_next = drc_select(
            induced(host, members), [index[v] for v in iter_bits(x0_next)], max_deg, 8 * beta,
            trials=BANDWIDTH_TRIALS, seed=rng.randrange(1 << 30), alpha=alpha,
        )
        x_next = mask_of(members[i] for i in sel_next.x)

        band = x_prev & x_next
        bads = bad_supports(host, x_prev | x_next, max_deg, threshold, within=v_t)
        for b in new_b:
            # avoid x that would push any partly-embedded neighbor's image
            # set into too many bad tuples
            avoid = 0
            for a_nb in iter_bits(h.adj[b]):
                ni = {image[u] for u in iter_bits(h.adj[a_nb]) if image[u] >= 0}
                cap = (gamma * max(x_prev.bit_count(), 1)) ** (
                    max_deg - len(ni) - 1
                )
                counts: dict[int, int] = {}
                for support in bads:
                    if ni <= set(support):
                        for x in support:
                            if x not in ni:
                                counts[x] = counts.get(x, 0) + 1
                for x, c in counts.items():
                    if c > cap:
                        avoid |= 1 << x
            cand = band & ~used & ~avoid
            if cand == 0:
                return None
            pick = rng.choice(list(iter_bits(cand)))
            image[b] = pick
            used |= 1 << pick

        for a in new_a:
            cand = v_t & ~used & common_neighborhood(
                host, (image[u] for u in iter_bits(h.adj[a]))
            )
            if cand == 0:
                return None
            pick = rng.choice(list(iter_bits(cand)))
            image[a] = pick
            used |= 1 << pick

        x_prev = x_next

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
