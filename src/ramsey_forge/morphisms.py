"""Homomorphism verification and backtracking search.

One backtracking core, run_plan, does every exact embedding search:
injective embeddings are count cap 1, weighted embeddings are a weight
profile.  A SearchPlan (integer demand per source vertex, search order and
back-neighbour lists; no Fraction in the loop) is compiled once and can be
run on many hosts, given as raw adjacency rows, with optional pre-fixed
images for the first vertices of the order.  find_capacity_homomorphism
compiles a plan per call and is deterministic: source vertices by decreasing
degree under count caps and by non-increasing weight under weights (ties by
lowest id), candidate targets by lowest id.  Every search result is plain
data that the verifiers re-check independently of the search bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from .graphs import Graph, WeightedGraph, iter_bits

DEFAULT_BUDGET = 10_000_000

FOUND = "found"
NONE = "none"
BUDGET_EXHAUSTED = "budget_exhausted"


class VerificationError(RuntimeError):
    """A positive result failed independent verification."""


@dataclass(frozen=True)
class VertexMap:
    """Total map from [source_n] to [target_n]."""

    source_n: int
    target_n: int
    image: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.image) != self.source_n:
            raise ValueError("image must be total on the source")
        for v in self.image:
            if not 0 <= v < self.target_n:
                raise ValueError(f"image vertex {v} out of range")

    @classmethod
    def identity(cls, n: int) -> "VertexMap":
        return cls(n, n, tuple(range(n)))

    def __call__(self, v: int) -> int:
        return self.image[v]

    def preimage(self, v: int) -> tuple[int, ...]:
        return tuple(u for u, t in enumerate(self.image) if t == v)

    def is_injective(self) -> bool:
        return len(set(self.image)) == self.source_n


def compose(f: VertexMap, g: VertexMap) -> VertexMap:
    """g after f: the map x -> g(f(x))."""
    if f.target_n != g.source_n:
        raise ValueError("composition dimension mismatch")
    return VertexMap(f.source_n, g.target_n, tuple(g.image[v] for v in f.image))


@dataclass(frozen=True)
class HomVerdict:
    valid: bool
    violations: tuple[tuple[int, int], ...] = ()


def verify_homomorphism(g: Graph, h: Graph, f: VertexMap) -> HomVerdict:
    """Valid iff every edge of g maps to an edge of h."""
    if f.source_n != g.n or f.target_n != h.n:
        raise ValueError("map dimensions do not match the graphs")
    bad = tuple(
        (u, v) for u, v in g.edges() if not (h.adj[f.image[u]] >> f.image[v] & 1)
    )
    return HomVerdict(valid=not bad, violations=bad)


@dataclass(frozen=True)
class CapacityProfile:
    """Per-target count caps, or per-source weights with preimage limit 1."""

    count_caps: tuple[int, ...] | None = None
    weights: tuple[Fraction, ...] | None = None

    def __post_init__(self) -> None:
        if (self.count_caps is None) == (self.weights is None):
            raise ValueError("exactly one of count_caps / weights must be given")
        if self.count_caps is not None and any(c < 0 for c in self.count_caps):
            raise ValueError("count caps must be nonnegative")
        if self.weights is not None and any(not 0 <= w <= 1 for w in self.weights):
            raise ValueError("weights must lie in [0, 1]")

    @classmethod
    def count_cap(cls, caps: Sequence[int]) -> "CapacityProfile":
        return cls(count_caps=tuple(caps))

    @classmethod
    def uniform_count_cap(cls, target_n: int, cap: int) -> "CapacityProfile":
        return cls(count_caps=(cap,) * target_n)

    @classmethod
    def weight_cap(cls, weights: Sequence[Fraction]) -> "CapacityProfile":
        return cls(weights=tuple(Fraction(w) for w in weights))


@dataclass(frozen=True)
class CapVerdict:
    valid: bool
    violations: tuple[int, ...] = ()  # offending target vertices


def verify_capacity(f: VertexMap, profile: CapacityProfile) -> CapVerdict:
    weights = profile.weights
    if weights is None:
        if len(profile.count_caps) != f.target_n:
            raise ValueError("one count cap per target vertex required")
        loads = [0] * f.target_n
        for t in f.image:
            loads[t] += 1
        bad = tuple(v for v in range(f.target_n) if loads[v] > profile.count_caps[v])
        return CapVerdict(valid=not bad, violations=bad)
    if len(weights) != f.source_n:
        raise ValueError("one weight per source vertex required")
    loads_w = [Fraction(0)] * f.target_n
    for u, t in enumerate(f.image):
        loads_w[t] += weights[u]
    bad = tuple(v for v in range(f.target_n) if loads_w[v] > 1)
    return CapVerdict(valid=not bad, violations=bad)


@dataclass
class SearchOutcome:
    status: str  # FOUND | NONE | BUDGET_EXHAUSTED
    vmap: VertexMap | None = None
    nodes: int = 0


class BudgetExhausted(RuntimeError):
    """An exact search ran out of budget before it could decide."""


def integer_units(
    profile: CapacityProfile, source_n: int, target_n: int
) -> tuple[list[int], list[int]]:
    """Integer demand per source vertex and room per target vertex.

    Count caps: demand 1, room the cap.  Weights: with unit the lcm of the
    weight denominators, demand w * unit and room unit.
    """
    weights = profile.weights
    if weights is None:
        if len(profile.count_caps) != target_n:
            raise ValueError("one count cap per target vertex required")
        return [1] * source_n, list(profile.count_caps)
    if len(weights) != source_n:
        raise ValueError("one weight per source vertex required")
    unit = lcm(*(w.denominator for w in weights))
    return [w.numerator * (unit // w.denominator) for w in weights], [unit] * target_n


@dataclass(frozen=True)
class SearchPlan:
    """Source vertices in search order, with the integer demand of each and,
    for each position, the earlier neighbours whose images constrain it."""

    order: tuple[int, ...]
    back: tuple[tuple[int, ...], ...]
    demand: tuple[int, ...]
    least: int
    total: int


def compile_plan(g: Graph, demand: Sequence[int], order: Sequence[int]) -> SearchPlan:
    back = []
    seen = 0
    for v in order:
        back.append(tuple(iter_bits(g.adj[v] & seen)))
        seen |= 1 << v
    return SearchPlan(tuple(order), tuple(back), tuple(demand), min(demand, default=0), sum(demand))


def run_plan(
    plan: SearchPlan,
    hadj: Sequence[int],
    room: Sequence[int],
    budget: int,
    fixed: Sequence[int] = (),
) -> tuple[list[int] | None, int]:
    """Backtrack for a homomorphism into the host with adjacency rows hadj
    whose loads stay within room; fixed[i] is the pre-fixed image of
    plan.order[i].

    Returns the image (None is a nonexistence certificate) and the node
    count; the rows are trusted, not validated.  Raises BudgetExhausted past
    budget nodes.
    """
    if plan.total > sum(room):
        return None, 0
    order, back, demand, least = plan.order, plan.back, plan.demand, plan.least
    room = list(room)
    image = [0] * len(order)
    open_ = (1 << len(room)) - 1
    if room and min(room) < least:
        open_ = sum(1 << t for t, r in enumerate(room) if r >= least)
    for i, t in enumerate(fixed):
        v = order[i]
        cand = open_
        for u in back[i]:
            cand &= hadj[image[u]]
        left = room[t] - demand[v]
        if left < 0 or not cand >> t & 1:
            return None, 0
        image[v] = t
        if left < least:
            open_ ^= 1 << t
        else:
            room[t] = left
    n = len(order)
    nodes = 0

    # open_ holds the targets with room for the least demand; a placement
    # that leaves less clears the target's bit, so larger demands still
    # check the room
    def extend(i: int, open_: int) -> bool:
        nonlocal nodes
        if i == n:
            return True
        nodes += 1
        if nodes > budget:
            raise BudgetExhausted
        v = order[i]
        d = demand[v]
        cand = open_
        for u in back[i]:
            cand &= hadj[image[u]]
        while cand:
            low = cand & -cand
            cand ^= low
            t = low.bit_length() - 1
            left = room[t] - d
            if left < 0:
                continue
            image[v] = t
            if left < least:
                # closed below: its room is not read again until we return
                if extend(i + 1, open_ ^ low):
                    return True
            else:
                room[t] = left
                if extend(i + 1, open_):
                    return True
                room[t] += d
        return False

    return (image if extend(len(fixed), open_) else None), nodes


def find_capacity_homomorphism(
    g: Graph,
    h: Graph,
    profile: CapacityProfile,
    budget: int = DEFAULT_BUDGET,
) -> SearchOutcome:
    """Exhaustive backtracking for a homomorphism g -> h obeying the profile.

    NONE is a nonexistence certificate; BUDGET_EXHAUSTED is inconclusive.
    """
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    demand, room = integer_units(profile, g.n, h.n)
    if profile.count_caps is not None:
        order = sorted(range(g.n), key=lambda v: (-g.adj[v].bit_count(), v))
    else:
        order = sorted(range(g.n), key=lambda v: (-demand[v], v))
    try:
        image, nodes = run_plan(compile_plan(g, demand, order), h.adj, room, budget)
    except BudgetExhausted:
        return SearchOutcome(BUDGET_EXHAUSTED, nodes=budget + 1)
    if image is None:
        return SearchOutcome(NONE, nodes=nodes)
    return SearchOutcome(FOUND, VertexMap(g.n, h.n, tuple(image)), nodes)


def decided(outcome: SearchOutcome) -> VertexMap | None:
    """The map, or None on a nonexistence certificate; raises when inconclusive.

    An exact oracle that read an exhausted budget as "no copy" would report
    an unsound value.
    """
    if outcome.status == BUDGET_EXHAUSTED:
        raise BudgetExhausted(f"search gave up after {outcome.nodes} nodes")
    return outcome.vmap


def find_weighted_embedding(gw: WeightedGraph, host: Graph) -> VertexMap | None:
    """Exhaustive search for an embedding of the weighted graph into host.

    A weighted embedding is a homomorphism with total preimage weight at most
    1 at every host vertex.  Source vertices are tried in non-increasing
    weight order (ties by lowest id), targets by lowest id.  Raises
    BudgetExhausted past DEFAULT_BUDGET nodes.
    """
    profile = CapacityProfile.weight_cap(gw.weights)
    return decided(find_capacity_homomorphism(gw.graph, host, profile, DEFAULT_BUDGET))


def enumerate_all_maps_has_capacity_hom(
    g: Graph, h: Graph, profile: CapacityProfile
) -> bool:
    """Naive |V(h)|^|V(g)| enumeration; independent oracle for small cases."""
    import itertools

    for image in itertools.product(range(h.n), repeat=g.n):
        f = VertexMap(g.n, h.n, image)
        if verify_homomorphism(g, h, f).valid and verify_capacity(f, profile).valid:
            return True
    return False
