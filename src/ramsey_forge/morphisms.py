"""Homomorphism verification and backtracking search.

One backtracking core does every exact embedding search: injective
embeddings are count cap 1, weighted embeddings are a weight profile.  A
SearchPlan (integer demand per source vertex, search order and back-neighbour
lists; no Fraction in the loop) is compiled once and can be run on many
hosts, given as raw adjacency rows, with the images of its first `pinned`
vertices given by the caller.  Compiling a plan generates its search kernel:
Python source formatted from the plan's integers alone, with one nested
`while` per search position and the images, demands and open-target masks
in locals.  Plans deeper than one function can nest are cut into a chain of
generated functions.  A kernel is a function of the plan's positional shape
alone (each position's earlier neighbours by position, the demands in
position order, the least demand and the pinned prefix) and returns the
images in position order, so relabelled plans of one shape share it; the
kernels of the 128 shapes used last are kept, so a repeated shape is not
compiled again.  run_plan is the general entry (pigeonhole reject and open
mask, then the kernel, then the images back in source order); the
interpreted search the kernels replaced is kept in the tests as their
reference.
find_capacity_homomorphism compiles a plan per call and is deterministic:
source vertices by decreasing degree under count caps and by non-increasing
weight under weights (ties by lowest id), candidate targets by lowest id.
Every search result is plain data that the verifiers re-check independently
of the search bookkeeping.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Callable, Sequence

from .graphs import Graph, WeightedGraph, iter_bits

DEFAULT_BUDGET = 10_000_000


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


@dataclass(frozen=True)
class SearchOutcome:
    vmap: VertexMap | None  # None is a nonexistence certificate
    nodes: int


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
    for each position, the earlier neighbours whose images constrain it.

    The first `pinned` positions take their images from the caller.  kernel
    is the search of the plan's positional shape as generated Python, shared
    by every plan of that shape and called as
    kernel(hadj, room, open_, budget, *pinned_images) -> (image, nodes), with
    the image in position order (run_plan puts it back in source order).
    open_ must hold exactly the targets whose room is at least `least`.  The
    kernel writes to room but restores it before it returns; after
    BudgetExhausted room is left as it was at that node.
    """

    order: tuple[int, ...]
    back: tuple[tuple[int, ...], ...]
    demand: tuple[int, ...]
    least: int
    total: int
    pinned: int
    kernel: Callable[..., tuple[list[int] | None, int]] = field(compare=False, repr=False)


def compile_plan(
    g: Graph, demand: Sequence[int], order: Sequence[int], pinned: int = 0
) -> SearchPlan:
    order = tuple(map(operator.index, order))
    demand = tuple(map(operator.index, demand))
    if sorted(order) != list(range(g.n)) or len(demand) != g.n:
        raise ValueError("order must list each source vertex once, with one demand each")
    if not 0 <= pinned <= g.n:
        raise ValueError("pinned prefix out of range")
    rows = []
    seen = 0
    for v in order:
        rows.append(tuple(iter_bits(g.adj[v] & seen)))
        seen |= 1 << v
    back = tuple(rows)
    least = min(demand, default=0)
    # the positional shape: what the search does depends on nothing else
    at = {v: p for p, v in enumerate(order)}
    shape = tuple(tuple(sorted(at[u] for u in row)) for row in back)
    kernel = _kernel(shape, tuple(demand[v] for v in order), least, pinned)
    return SearchPlan(order, back, demand, least, sum(demand), pinned, kernel)


@lru_cache(maxsize=128)
def _kernel(
    back: tuple[tuple[int, ...], ...],
    need: tuple[int, ...],
    least: int,
    pinned: int,
) -> Callable[..., tuple[list[int] | None, int]]:
    """The search kernel of a positional shape: for each position, the
    earlier positions adjacent to it (back) and its demand (need), with the
    least demand and the pinned prefix.  Relabelled plans of one shape share
    a kernel.  Compiling takes ~0.5 ms even for a 3-vertex plan, far more
    than a small search, so the kernels of the 128 shapes used last are
    kept; a kernel holds no state between calls."""
    namespace = {"BudgetExhausted": BudgetExhausted}
    source = _kernel_source(back, need, least, pinned)
    exec(compile(source, "<search kernel>", "exec"), namespace)
    return namespace["_k0"]


# A kernel nests one `while` per search position, and CPython rejects more
# than 20 statically nested blocks in one function, so longer plans are cut
# into segments of this many positions, each a function calling the next.
_SEGMENT = 16


def _kernel_source(
    back: Sequence[tuple[int, ...]], need: Sequence[int], least: int, pinned: int
) -> str:
    """Source of a shape's search, formatted from its ints alone.

    Locals: t{p} is the image at position p, o{p} the open targets before p
    is placed, c{p} its remaining candidates and r{p} the room its target
    had.  Open targets have room for the least demand; a placement that
    leaves less closes its target, whose room is then not read again until
    the placement is undone, so only larger demands check the room.  Segment
    j is _k{j}; _k0 checks the pinned images and counts from 0 nodes.  A
    segment stores its images in the list img before it calls the next one,
    which takes the node count and reads from img the earlier images it
    needs.  Every return restores the room its own positions wrote, latest
    first.  The image found is returned in position order.
    """
    n = len(need)
    cuts = [0, *range(pinned + _SEGMENT, n, _SEGMENT), n]
    wrote: dict[int, int] = {}  # position whose placement may write room -> its depth
    lines: list[str] = []

    def emit(depth: int, line: str) -> None:
        lines.append("    " * depth + line)

    def restore(depth: int, positions: range) -> None:
        for q in reversed(positions):
            if q in wrote:
                emit(depth, f"room[t{q:d}] = r{q:d}")

    for j, (a, b) in enumerate(zip(cuts, cuts[1:])):
        if j == 0:
            pins = "".join(f", t{q:d}" for q in range(pinned))
            emit(0, f"def _k0(hadj, room, o0, budget{pins}):")
            emit(1, "nodes = 0")
            if b < n:
                emit(1, f"img = [0] * {n:d}")
        else:
            emit(0, f"def _k{j:d}(hadj, room, budget, nodes, o{a:d}, img):")
            for q in sorted({q for p in range(a, b) for q in back[p]} - set(range(a, b))):
                emit(1, f"t{q:d} = img[{q:d}]")
        depth = 1
        mask = f"o{a:d}"
        for p in range(a, b):
            cand = mask + "".join(f" & hadj[t{q:d}]" for q in back[p])
            if p < pinned:
                bit = f"(1 << t{p:d})"
                emit(depth, f"if not ({cand}) >> t{p:d} & 1:")
                restore(depth + 1, range(p))
                emit(depth + 1, "return None, 0")
            else:
                bit = "low"
                emit(depth, "nodes += 1")
                emit(depth, "if nodes > budget:")
                emit(depth + 1, "raise BudgetExhausted")
                emit(depth, f"c{p:d} = {cand}")
                emit(depth, f"while c{p:d}:")
                depth += 1
                emit(depth, f"low = c{p:d} & -c{p:d}")
                emit(depth, f"c{p:d} ^= low")
                emit(depth, f"t{p:d} = low.bit_length() - 1")
            # a zero demand changes nothing, and the last placement only
            # checks the room
            if not need[p] or p == n - 1 and need[p] == least:
                continue
            emit(depth, f"r{p:d} = room[t{p:d}]")
            if need[p] > least:
                emit(depth, f"if r{p:d} < {need[p]:d}:")
                if p < pinned:
                    restore(depth + 1, range(p))
                    emit(depth + 1, "return None, 0")
                else:
                    emit(depth + 1, "continue")
            if p == n - 1:
                continue
            emit(depth, f"if r{p:d} < {need[p] + least:d}:")
            emit(depth + 1, f"o{p + 1:d} = {mask} ^ {bit}")
            emit(depth, "else:")
            emit(depth + 1, f"o{p + 1:d} = {mask}")
            emit(depth + 1, f"room[t{p:d}] = r{p:d} - {need[p]:d}")
            mask = f"o{p + 1:d}"
            wrote[p] = depth
        if b == n:
            restore(depth, range(a, b))
            image = (f"t{p:d}" if p >= a else f"img[{p:d}]" for p in range(n))
            emit(depth, f"return [{', '.join(image)}], nodes")
        else:
            for q in range(a, b):
                emit(depth, f"img[{q:d}] = t{q:d}")
            emit(depth, f"found, nodes = _k{j + 1:d}(hadj, room, budget, nodes, {mask}, img)")
            emit(depth, "if found is not None:")
            restore(depth + 1, range(a, b))
            emit(depth + 1, "return found, nodes")
        if depth == 1:  # no search position: the return above is the only one
            continue
        for p in reversed(range(max(a, pinned), b)):
            if p in wrote:
                emit(wrote[p], f"room[t{p:d}] = r{p:d}")
        restore(1, range(a, min(b, pinned)))
        emit(1, "return None, nodes")
    return "\n".join(lines) + "\n"


def run_plan(
    plan: SearchPlan,
    hadj: Sequence[int],
    room: Sequence[int],
    budget: int,
    fixed: Sequence[int] = (),
) -> tuple[list[int] | None, int]:
    """Search for a homomorphism into the host with adjacency rows hadj
    whose loads stay within room; fixed[i] is the pinned image of
    plan.order[i], one per pinned position.

    Returns the image in source order (None is a nonexistence certificate)
    and the node count; the rows are trusted, not validated.  Raises
    BudgetExhausted past budget nodes.
    """
    if len(fixed) != plan.pinned:
        raise ValueError(f"the plan pins {plan.pinned} images, not {len(fixed)}")
    if plan.total > sum(room):
        return None, 0
    open_ = (1 << len(room)) - 1
    if room and min(room) < plan.least:
        open_ = sum(1 << t for t, r in enumerate(room) if r >= plan.least)
    found, nodes = plan.kernel(hadj, list(room), open_, budget, *fixed)
    if found is None:
        return None, nodes
    image = [0] * len(found)
    for v, t in zip(plan.order, found):
        image[v] = t
    return image, nodes


def find_capacity_homomorphism(
    g: Graph,
    h: Graph,
    profile: CapacityProfile,
    budget: int | None = None,
) -> SearchOutcome:
    """Exhaustive backtracking for a homomorphism g -> h obeying the profile.

    Raises BudgetExhausted past budget nodes, DEFAULT_BUDGET (read at call
    time) when none is given.
    """
    if budget is None:
        budget = DEFAULT_BUDGET
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    demand, room = integer_units(profile, g.n, h.n)
    if profile.count_caps is not None:
        order = sorted(range(g.n), key=lambda v: (-g.adj[v].bit_count(), v))
    else:
        order = sorted(range(g.n), key=lambda v: (-demand[v], v))
    image, nodes = run_plan(compile_plan(g, demand, order), h.adj, room, budget)
    return SearchOutcome(None if image is None else VertexMap(g.n, h.n, tuple(image)), nodes)


def find_weighted_embedding(gw: WeightedGraph, host: Graph) -> VertexMap | None:
    """Exhaustive search for an embedding of the weighted graph into host.

    A weighted embedding is a homomorphism with total preimage weight at most
    1 at every host vertex.  Source vertices are tried in non-increasing
    weight order (ties by lowest id), targets by lowest id.  Raises
    BudgetExhausted past DEFAULT_BUDGET nodes.
    """
    profile = CapacityProfile.weight_cap(gw.weights)
    return find_capacity_homomorphism(gw.graph, host, profile).vmap
