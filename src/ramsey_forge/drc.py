"""Dependent random choice: common-neighborhood set selection and the
bandwidth-block embedding built on it.

A candidate set X is the common neighborhood of a Delta-tuple of vertices.
Tuples are scored by the exact rational functional

    |X0 cap X|^D |X|^D / E1  -  xi(X) |X0 cap X|^D / (2 E2)

with E1 = alpha^(2 D^2) |X0|^D n^D and E2 = beta^D n^D |X0|^D, where xi(X)
counts ordered Delta-tuples from X^D with fewer than beta*n common
neighbors.  The best-scoring X satisfies, for most hosts, the three
selection properties re-checked by drc_properties.

Selection compares scores as integers.  With E1, E2 > 0 and alpha = a/b,
beta = p/q in lowest terms, the score times the positive constant
2 E1 E2 q^D b^(2 D^2) / (|X0|^D n^D) is |X0 cap X|^D (w_size |X|^D -
w_bad xi(X)) with w_size = 2 p^D b^(2 D^2) and w_bad = a^(2 D^2) q^D, so
comparisons are those of the rational scores.  When E1 or E2 is not
positive (alpha = 0, or beta^D <= 0) its term is dropped and the other gets
weight 1; with X0 empty every score is 0.  Integer codegrees are compared
with ceil(beta*n), which is the same test as comparing with beta*n.  xi(X)
is 0 whenever n - D * (the largest nondegree in X) >= beta*n; selection
masks once per call the vertices whose nondegree breaks that bound, and
only a set meeting the mask reaches bad_supports' enumeration.  The
exhaustive scan walks the multisets depth-first, so each level ANDs one
host row into its prefix's intersection P, and it is a branch and bound:
every set below P lies inside P and xi >= 0, so no score below P exceeds
the xi-free term of P itself (w_size |X0 cap P|^D |P|^D).  A prefix whose
bound does not beat the best score so far is skipped with its subtree, and
xi(X) is counted only at a leaf whose xi-free score beats it.  A skipped
multiset could at best tie, and a tie never replaces the best (the least
tuple wins), so the winner is the one the full scan picks.

Selection runs inside a scope mask of one host: the rows are g.adj[v] &
scope for the scope's vertices v in increasing order, n counts the scope,
and codegrees count scope vertices.  These are the rows of the induced
subgraph on the scope up to its increasing relabelling, which keeps the
multisets' order and every popcount, and so the least-tuple tie rule: the
winner is the one selection on the relabelled induced graph picks, mapped
back, with no graph built.  drc_select's scope is the whole host.

drc_bandwidth_embed checks its labels with bandwidth.labeling_width and fixes
its block schedule first: a B vertex goes in block label // (2 budget), a
non-isolated A vertex in the last block of its B neighbours (so no B vertex
meets a placed neighbour), B before A within a block, each in label order.
Each block selects inside the host's unused-vertex mask; a block that opens
with that mask empty returns None.  None means only greedy starvation.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .bandwidth import labeling_width
from .graphs import Graph, mask_of
from .morphisms import VerificationError, VertexMap, verify_homomorphism

DEFAULT_TUPLE_BUDGET = 20_000
BANDWIDTH_TRIALS = 64  # sampled tuples per block selection of drc_bandwidth_embed


class DegenerateBudget(ValueError):
    """The bandwidth budget floor(beta * n) is zero: no block structure exists."""


def _members(mask: int) -> list[int]:
    """The vertices of a mask in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


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
    members = _members(x_mask)
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


def bad_tuple_count(
    g: Graph, x_mask: int, max_deg: int, threshold: Fraction, within: int | None = None
) -> int:
    """xi(X): ordered max_deg-tuples from X^D whose support is bad, with
    codegrees counted in the `within` scope as bad_supports counts them.  The
    tuples onto a support of size s number surjection_count(max_deg, s), so
    the supports are counted by size.  Closed form: a support's codegree is
    at most n', the scope's size, and at most n' - 1 inside the scope (no
    vertex is its own neighbor), so when need = ceil(threshold) > n', or
    need = n' with X inside the scope, every support is bad: xi(X) = |X|^D."""
    scope = within if within is not None else (1 << g.n) - 1
    need, n_scope = math.ceil(threshold), scope.bit_count()
    if need > n_scope or need == n_scope and not x_mask & ~scope:
        return x_mask.bit_count() ** max_deg
    sizes = Counter(map(len, bad_supports(g, x_mask, max_deg, threshold, within)))
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


def _select(
    g: Graph, scope: int, x0_mask: int, max_deg: int, beta: Fraction, alpha: Fraction,
    trials: int, seed: int, tuple_budget: int = DEFAULT_TUPLE_BUDGET,
) -> tuple[tuple[int, ...], int, str]:
    """The selection inside the scope mask (module docstring): the winning
    tuple and its set, both in g's labels, and the mode.  The set is
    rechecked as the tuple's common neighborhood in the scope."""
    if max_deg < 1:
        raise ValueError("max_deg must be at least 1")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    members = _members(scope)
    n = len(members)
    if n == 0:
        raise ValueError("empty host")
    rows = [g.adj[v] & scope for v in members]
    threshold = beta * n

    d = max_deg
    # integer weights of the two score terms; e1 and e2 carry E1's and E2's signs
    e1, e2 = alpha.numerator ** (2 * d * d), beta.numerator**d
    if e1 > 0 and e2 > 0:
        w_size, w_bad = 2 * e2 * alpha.denominator ** (2 * d * d), e1 * beta.denominator**d
    else:
        w_size, w_bad = int(e1 > 0), int(e2 > 0)
    # only a set meeting this mask can have a bad support
    open_mask = _high_nondegree(g, scope, d, math.ceil(threshold)) if w_bad else 0

    def penalty(common: int) -> int:
        return w_bad * bad_tuple_count(g, common, d, threshold, scope)

    if math.comb(n + d - 1, d) <= tuple_budget:
        mode = "exhaustive"
        picked, common = _best_multiset(rows, d, x0_mask, d, w_size, open_mask, penalty)
    else:
        mode = "sampled"
        rng = random.Random(seed)
        draws = sorted(
            {tuple(sorted(rng.randrange(n) for _ in range(d))) for _ in range(trials)}
        )
        sets = [common_neighborhood(g, (members[i] for i in t)) & scope for t in draws]
        # each draw's set scored as a one-row multiset, least draw first
        (i,), common = _best_multiset(sets, 1, x0_mask, d, w_size, open_mask, penalty)
        picked = draws[i]
    tup = tuple(members[i] for i in picked)

    # independent recomputation of the winner's set
    recheck = scope
    for v in tup:
        recheck &= g.adj[v]
    if recheck != common:
        raise VerificationError(f"selected set is not the common neighborhood of {tup}")
    return tup, common, mode


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
    The winner's set is rechecked and xi(X) recounted from scratch.
    """
    beta = Fraction(beta)
    x0_mask = mask_of(x0)
    tup, common, mode = _select(
        g, (1 << g.n) - 1, x0_mask, max_deg, beta, Fraction(alpha), trials, seed, tuple_budget
    )
    return DrcSelection(
        x=frozenset(_members(common)),
        chosen_tuple=tup,
        size=common.bit_count(),
        overlap=(common & x0_mask).bit_count(),
        bad_tuples=bad_tuple_count(g, common, max_deg, beta * g.n),
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
            for u in _members(g.adj[v]):
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
    budget raises DegenerateBudget, and alpha outside (0, 1] or a negative
    beta raises ValueError before any work.  Some is always verified (a
    failed recheck raises VerificationError); None means that a B, A or
    isolated vertex found no free candidate (greedy starvation), not
    nonexistence.
    """
    alpha = Fraction(alpha)
    if not 0 < alpha <= 1:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    if beta is not None and Fraction(beta) < 0:
        raise ValueError(f"beta must be nonnegative, got {beta}")
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
            schedule[max(labels[u] for u in _members(h.adj[a])) // span][1].append(a)

    rng = random.Random(seed)
    gamma = 16 * beta * alpha ** (-2 * max_deg)
    threshold = 8 * beta * n
    full = (1 << n) - 1
    image = [-1] * h.n
    used = 0

    _, x_prev, _ = _select(
        host, full, full, max_deg, 8 * beta, alpha, BANDWIDTH_TRIALS, rng.randrange(1 << 30)
    )
    for new_b, new_a in schedule:
        v_t = full & ~used
        if v_t == 0:  # this or a later block still holds an unplaced B vertex
            return None
        _, x_next, _ = _select(
            host, v_t, x_prev & v_t, max_deg, 8 * beta, alpha, BANDWIDTH_TRIALS,
            rng.randrange(1 << 30),
        )

        band = x_prev & x_next
        bads = bad_supports(host, x_prev | x_next, max_deg, threshold, within=v_t)
        for b in new_b:
            # avoid x that would push any partly-embedded neighbor's image
            # set into too many bad tuples (none when no support is bad)
            avoid = 0
            for a_nb in _members(h.adj[b]) if bads else ():
                ni = {image[u] for u in _members(h.adj[a_nb]) if image[u] >= 0}
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
            pick = rng.choice(_members(cand))
            image[b] = pick
            used |= 1 << pick

        for a in new_a:
            cand = v_t & ~used & common_neighborhood(
                host, (image[u] for u in _members(h.adj[a]))
            )
            if cand == 0:
                return None
            pick = rng.choice(_members(cand))
            image[a] = pick
            used |= 1 << pick

        x_prev = x_next

    for v in isolated:
        cand = full & ~used
        if cand == 0:
            return None
        pick = (cand & -cand).bit_length() - 1
        image[v] = pick
        used |= 1 << pick

    vmap = VertexMap(h.n, n, tuple(image))
    if not (vmap.is_injective() and verify_homomorphism(h, host, vmap).valid):
        raise VerificationError("bandwidth-block embedding failed verification")
    return vmap
