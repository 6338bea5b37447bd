"""Exact desk-scale Ramsey, weighted Ramsey, and stable Ramsey oracles.

All three oracles run one loop.  A plain target is its unit-weighted graph,
and the Ramsey number is the stable number at eps = 0: there
min_degree_threshold(n, 0) = n - 1 admits only K_n.  For each n the loop
scans the admissible hosts on n vertices for a coloring with no
monochromatic copy.

The loop has one search path.  Colorings are enumerated edge by edge, and a
branch is cut as soon as the already-decided edges of one color contain a
monochromatic copy (every extension then contains it too); the first edge
is fixed red (color swap is a symmetry of the predicate).  The edges are
visited in colex order, by larger endpoint and then by smaller, so the
first C(k, 2) edges of K_n span K_k: every prefix of the search colors a
smaller clique, and a copy is seen as soon as its last vertex arrives.
(Graph.edges keeps lex order, which random_coloring draws its stream over.)
The tests keep a full 2^m scan of every host as the reference it must
agree with.

The search also breaks the host's vertex symmetry (lex-leader constraints,
Crawford-Ginsberg-Luks-Roy, KR 1996; Codish-Miller-Prosser-Stuckey,
Constraints 24, 2019).  Read a coloring as its word over the edges in
colex order, red before blue.  Host vertices i < j are twins when
N(i) - {j} = N(j) - {i}; swapping them is a host automorphism (any two
vertices of K_n, any two of one part of a complete multipartite host).  A
branch is cut as soon as its decided edges show that every completion is
above its image under the swap of some twin pair.  The output cannot move:
the search returns the least copy-free coloring W, an automorphism maps a
copy-free coloring to a copy-free one, so W is the least of its orbit and
passes every such test, as it passes the first-edge-red rule.  The first
witness, every status and every value are those of the unpruned search; it
visits a subset of the nodes, so a host it decided within COLORING_BUDGET
stays decided.  A host's colex edge list and twin tests are built once and
kept for the 32 hosts used last; each K_n is one shared host object.

Each oracle call may visit COLORING_BUDGET nodes of the coloring search,
summed over its hosts.  When that runs out, or a copy search exhausts
morphisms.DEFAULT_BUDGET, the call returns INCONCLUSIVE with no value: the
host being searched was never decided.  The witness kept is the one found
at the largest n below it, so it is still a verified lower bound.

Copies are sought by search plans compiled once per oracle call and run
straight on a color graph's adjacency rows: one unrooted plan, and one
rooted plan per arc orbit, whose first two images are pinned.  The rooted
check is the hot path, so it calls each rooted plan's kernel directly, with
a room list and open mask built once per host size, and skips run_plan's
per-call set-up.  The search checks only the edge it just colored.  Its
parent color graph is copy-free (the search starts from the empty coloring,
which it checks with the unrooted plan), so a new copy must map some arc
(a, b) of the target onto the new edge (u, v).  If an automorphism of the
target that keeps the weights maps (a, b) to (c, d), composing with it turns
a copy through (c, d) into one through (a, b).  So one search per orbit of
oriented arcs suffices, with a and b pinned to u and v.  The orbits come
from one small automorphism search per pair of arcs; if one runs out of
budget, every arc is its own orbit.  An edgeless target has no arc, so the
unrooted check of the empty coloring decides it alone.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from . import morphisms
from .generators import complete, complete_multipartite, min_degree_threshold
from .graphs import BLUE, RED, EdgeColoring, Graph, WeightedGraph, iter_bits
from .morphisms import (
    BudgetExhausted,
    CapacityProfile,
    SearchPlan,
    VerificationError,
    VertexMap,
    compile_plan,
    find_capacity_homomorphism,
    find_weighted_embedding,
    integer_units,
    run_plan,
    verify_capacity,
    verify_homomorphism,
)

RAMSEY_HARD_CAP = 10
STABLE_HARD_CAP = 6
# coloring-search nodes per oracle call; r(K_{1,5}) = 10 takes about 10,000
COLORING_BUDGET = 10_000_000

VALUE = "value"
EXCEEDS = "exceeds"
INFINITE_SUSPECTED = "infinite_suspected"
INCONCLUSIVE = "inconclusive"


@dataclass(slots=True)
class OracleResult:
    status: str  # VALUE | EXCEEDS | INFINITE_SUSPECTED | INCONCLUSIVE
    value: int | None
    n_max: int
    witness_n: int | None = None
    witness_coloring: EdgeColoring | None = None  # its host is the witness host


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
    return find_capacity_homomorphism(g, host, profile).vmap is not None


class _Copies:
    """Monochromatic-copy tests of one weighted target, built once per oracle
    call, with the call's remaining coloring budget in nodes_left.

    anywhere(rows) runs the unrooted plan on the color graph with adjacency
    rows `rows`; its order is non-increasing demand, then decreasing degree,
    then lowest id, which for unit weights is plain_embeds' order.
    through(rows, u, v) asks only for copies that map an arc of the target
    onto the edge (u, v); it answers whether rows holds a copy only when rows
    without that edge holds none.  It calls the kernel of each rooted plan,
    one per arc orbit, with the arc pinned to (u, v), on a room list and
    open mask built once per host size.
    """

    def __init__(self, gw: WeightedGraph) -> None:
        g = gw.graph
        demand, (self.unit,) = integer_units(CapacityProfile.weight_cap(gw.weights), g.n, 1)
        order = sorted(range(g.n), key=lambda v: (-demand[v], -g.adj[v].bit_count(), v))
        self.plan = compile_plan(g, demand, order)
        self.plans = [
            compile_plan(g, demand, _rooted_order(g, a, b), 2) for a, b in _arc_roots(gw)
        ]
        self.nodes_left = COLORING_BUDGET
        self._size(0)

    def _size(self, n: int) -> None:
        """Set up through() for hosts on n vertices.  Uniform room is at
        least every demand, so every target starts open; when the target's
        demand exceeds the host's room, no kernel runs."""
        self.n = n
        self.room = [self.unit] * n
        self.open = (1 << n) - 1
        fits = self.plan.total <= n * self.unit
        self.kernels = [plan.kernel for plan in self.plans] if fits else []

    def anywhere(self, rows: Sequence[int]) -> bool:
        room = [self.unit] * len(rows)
        return run_plan(self.plan, rows, room, morphisms.DEFAULT_BUDGET)[0] is not None

    def through(self, rows: list[int], u: int, v: int) -> bool:
        if len(rows) != self.n:
            self._size(len(rows))
        room, open_, budget = self.room, self.open, morphisms.DEFAULT_BUDGET
        for kernel in self.kernels:
            if kernel(rows, room, open_, budget, u, v)[0] is not None:
                return True
        return False


def _rooted_order(g: Graph, a: int, b: int) -> list[int]:
    """a, b, then at each step the vertex with the most neighbours already
    placed (ties: higher degree, then lower id)."""
    order = [a, b]
    placed = 1 << a | 1 << b
    rest = [v for v in range(g.n) if v not in (a, b)]
    while rest:
        v = max(rest, key=lambda x: ((g.adj[x] & placed).bit_count(), g.adj[x].bit_count(), -x))
        rest.remove(v)
        order.append(v)
        placed |= 1 << v
    return order


def _arc_roots(gw: WeightedGraph) -> list[tuple[int, int]]:
    """One arc (a, b) per orbit of the oriented edges of gw.graph under its
    weight-preserving automorphisms, or every arc when a search gave up.

    Each arc is tested against the roots found so far by a search for an
    automorphism that maps the root onto it; the group is never listed.
    """
    g = gw.graph
    arcs = [(a, b) for a in range(g.n) for b in iter_bits(g.adj[a])]
    # Vertices are classed by (weight, degree) and class k gets load K + k
    # for K classes, so no vertex takes two sources.  An injective map of g
    # into itself is an automorphism; one that never lowers a load keeps
    # every load, since the loads sum to the same total.  So the core finds
    # exactly the class-preserving automorphisms.
    keys = [(gw.weights[v], g.adj[v].bit_count()) for v in range(g.n)]
    classes = sorted(set(keys))
    load = [len(classes) + classes.index(k) for k in keys]
    roots: list[tuple[int, int, SearchPlan]] = []
    budget = morphisms.DEFAULT_BUDGET
    try:
        for c, d in arcs:
            if not any(
                load[a] == load[c]
                and load[b] == load[d]
                and run_plan(plan, g.adj, load, budget, (c, d))[0] is not None
                for a, b, plan in roots
            ):
                roots.append((c, d, compile_plan(g, load, _rooted_order(g, c, d), 2)))
    except BudgetExhausted:
        return arcs
    return [(a, b) for a, b, _ in roots]


@functools.lru_cache(maxsize=32)
def _twin_tests(
    host: Graph,
) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[tuple[int, int, int], ...], ...]]:
    """The host's edges (u, v), u < v, in colex order, and for each the
    (i, j, mask) of every twin pair i < j whose lex-leader test coloring
    that edge decides.  Built once per host: a Graph is never mutated.

    Under the swap of i and j the word first changes at the least k outside
    {i, j} where the edges ik and jk differ, and ik comes first, so the
    coloring is the lesser of the two iff ik is red there.  A colex prefix
    holds ik and jk for a down-set of k; coloring (u, v) adds k = u to the
    pairs (i, v), with i != u (mask: bits 0..u), and k = v to the pairs
    (i, u) (mask: bits 0..v); mask leaves out i and j.
    """
    adj = host.adj
    edges = tuple(sorted(host.edges(), key=lambda e: (e[1], e[0])))
    twins = [
        [i for i in range(j) if adj[i] & ~(1 << j) == adj[j] & ~(1 << i)] for j in range(host.n)
    ]
    return edges, tuple(
        tuple(
            [(i, v, ((2 << u) - 1) & ~(1 << i)) for i in twins[v] if i != u]
            + [(i, u, ((2 << v) - 1) & ~(1 << i | 1 << u)) for i in twins[u]]
        )
        for u, v in edges
    )


def _witness_coloring(host: Graph, copies: _Copies) -> EdgeColoring | None:
    """A coloring of the host with no monochromatic copy, or None if all have one.

    DFS over the edges in colex order (by larger endpoint, then smaller); a
    branch dies once one color's decided edges already contain a copy.  Each
    color graph was copy-free before its newest edge, so only copies through
    that edge are sought.  The first edge is fixed red: the predicate is
    invariant under swapping colors.  A branch also dies, before its copy
    check, once some twin pair (i, j) of the host has its first differing
    k (see _twin_tests) with ik blue: its colorings are all above their
    images under the swap.  The least copy-free coloring is the least of its
    orbit, so it is never cut and is still the one returned.  Each node
    visited spends one unit of copies.nodes_left; a cut child spends none.
    BudgetExhausted is raised when none is left.
    """
    if copies.anywhere([0] * host.n):  # only an edgeless target fits
        return None
    edges, tests = _twin_tests(host)
    red = [0] * host.n
    blue = [0] * host.n

    def decide(i: int, fixed_red: bool) -> EdgeColoring | None:
        if i == len(edges):
            return EdgeColoring.from_red_adj(host, red)
        if not copies.nodes_left:
            raise BudgetExhausted(f"coloring search gave up after {COLORING_BUDGET} nodes")
        copies.nodes_left -= 1
        u, v = edges[i]
        choices = (RED,) if fixed_red else (RED, BLUE)
        for color in choices:
            rows = red if color == RED else blue
            rows[u] |= 1 << v
            rows[v] |= 1 << u
            # cut when some pair's first differing k has its ak blue
            if not any(
                blue[a] & (d := (blue[a] ^ blue[b]) & mask) & -d for a, b, mask in tests[i]
            ) and not copies.through(rows, u, v):
                found = decide(i + 1, False)
                if found is not None:
                    return found
            rows[u] &= ~(1 << v)
            rows[v] &= ~(1 << u)
        return None

    return decide(0, len(edges) > 0)


def ramsey_number(g: Graph, n_max: int) -> OracleResult:
    """Smallest n <= n_max such that every 2-coloring of K_n contains a
    monochromatic copy of g (injective embedding): the unit-weighted case."""
    return weighted_ramsey(WeightedGraph.unit(g), n_max)


def weighted_ramsey(gw: WeightedGraph, n_max: int) -> OracleResult:
    """Smallest n <= n_max such that every 2-coloring of K_n admits a
    monochromatic weighted embedding of gw: the stable number at eps 0."""
    if n_max > RAMSEY_HARD_CAP:
        raise ValueError(f"n_max {n_max} exceeds hard cap {RAMSEY_HARD_CAP}")
    return _first_forced_n(_Copies(gw), Fraction(0), n_max)


def _first_forced_n(copies: _Copies, eps: Fraction, n_max: int) -> OracleResult:
    """Smallest n <= n_max at which no admissible host on n vertices has a
    copy-free coloring, with the copy-free coloring found at the largest n
    below it.  INCONCLUSIVE when a search ran out of budget first."""
    status, value = EXCEEDS, None
    witness: tuple[int, EdgeColoring] | None = None
    try:
        for n in range(1, n_max + 1):
            for host in hosts_with_min_degree(n, min_degree_threshold(n, eps)):
                coloring = _witness_coloring(host, copies)
                if coloring is not None:
                    witness = (n, coloring)
                    break
            else:
                status, value = VALUE, n
                break
    except BudgetExhausted:
        status = INCONCLUSIVE
    result = OracleResult(status, value, n_max)
    if witness is not None:
        result.witness_n, result.witness_coloring = witness
    return result


@functools.cache
def _complete(n: int) -> Graph:
    return complete(n)


def hosts_with_min_degree(n: int, threshold: int) -> Iterator[Graph]:
    """All graphs on [n] with minimum degree >= threshold.

    Enumerated in the complement (max degree <= n-1-threshold), which prunes
    hard when the threshold is close to n-1.  At threshold n-1 the one host
    is K_n, built once per n and shared by every query that reaches it, so
    the witnesses of the Ramsey oracles hold no host of their own.
    """
    cap = n - 1 - threshold
    if cap < 0:
        return
    if cap == 0:
        yield _complete(n)
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


def stable_ramsey(gw: WeightedGraph, eps: Fraction, n_max: int) -> OracleResult:
    """Smallest n <= n_max such that every admissible host on n vertices is
    monochromatically weighted-Ramsey for gw under every 2-coloring."""
    if n_max > STABLE_HARD_CAP:
        raise ValueError(f"n_max {n_max} exceeds hard cap {STABLE_HARD_CAP}")
    eps = Fraction(eps)
    copies = _Copies(gw)
    result = _first_forced_n(copies, eps, n_max)
    if result.status != EXCEEDS:
        return result

    # Not reached by n_max.  If a complete multipartite host with p parts and
    # eps >= 1/p admits a copy-free coloring, balanced blow-ups of it stay
    # admissible at every scale, so the number is suspected infinite.
    threshold = min_degree_threshold(n_max, eps)
    for sizes in _integer_partitions(n_max):
        p = len(sizes)
        if p < 2 or eps < Fraction(1, p):
            continue
        host = complete_multipartite(sizes)
        if host.min_degree() < threshold:
            continue
        try:
            coloring = _witness_coloring(host, copies)
        except BudgetExhausted:  # the witness at n_max stands; the suspicion is undecided
            result.status = INCONCLUSIVE
            break
        if coloring is not None:
            result.status = INFINITE_SUSPECTED
            result.witness_n, result.witness_coloring = n_max, coloring
            break
    return result
