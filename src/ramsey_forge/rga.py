"""Randomized greedy blow-up embedding with queue-prioritized starvation
handling.

The embedder walks the reduced-graph parts in order and places each source
vertex uniformly at random among host vertices that do not starve any
still-free neighbor.  Vertices whose free candidates run low jump a FIFO
queue.  Candidate-set and queue-size invariants are checked at every step;
any violation aborts the attempt and a fresh seed retries.  The retention
chain EPS << EPS2 << EPS1 is fixed below; a caller sets only the density
floor delta and the part slack xi.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from . import generators
from .graphs import Graph, iter_bits, mask_of
from .morphisms import VerificationError, VertexMap, verify_homomorphism
from .regularity import Partition

# candidate-retention chain EPS << EPS2 << EPS1: tuned, not derived
EPS1 = Fraction(1, 8)  # queue cap, as a share of the largest preimage
EPS2 = EPS1**3  # share of a part's size below which a vertex jumps the queue
EPS = EPS2**3  # retention slack under delta


@dataclass(frozen=True)
class RgaParams:
    """The density floor delta and the part slack xi."""

    delta: Fraction
    xi: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "delta", Fraction(self.delta))
        object.__setattr__(self, "xi", Fraction(self.xi))
        if not 0 <= self.delta <= 1:
            raise ValueError("delta must lie in [0, 1]")
        if self.xi < 0:
            raise ValueError("xi must be nonnegative")


def blowup_instance(base: Graph, part_size: int) -> tuple[Graph, Partition]:
    """The blow-up of base with part_size vertices per part, and its parts as
    a partition with an empty exceptional class."""
    host, proj = generators.blowup(base, (part_size,) * base.n)
    parts = tuple(frozenset(proj.preimage(i)) for i in range(base.n))
    return host, Partition(host.n, frozenset(), parts)


@dataclass
class RgaStats:
    attempts: int = 0
    steps: int = 0
    aborts: tuple[str, ...] = ()


class InsufficientSlack(ValueError):
    """A part holds fewer than (1 + xi) times its preimage's vertices."""


class _Abort(Exception):
    def __init__(self, stage: str) -> None:
        self.stage = stage


def rga_blowup_embed(
    host: Graph,
    partition: Partition,
    reduced: Graph,
    g: Graph,
    f: VertexMap,
    params: RgaParams,
    seed: int = 0,
    retries: int = 0,
    stats: RgaStats | None = None,
) -> VertexMap | None:
    """Embed g into host so that vertex y lands in part f(y).

    f must be a homomorphism from g to the reduced graph on the partition
    classes; each part must hold its preimage with (1 + xi) slack.  Some is
    always a verified injective embedding; None means every attempt aborted.
    """
    if partition.k != reduced.n:
        raise ValueError("partition classes must match the reduced graph")
    if f.source_n != g.n or f.target_n != reduced.n:
        raise ValueError("map dimensions do not match")
    if not verify_homomorphism(g, reduced, f).valid:
        raise ValueError("f is not a homomorphism into the reduced graph")
    part_masks = [mask_of(c) for c in partition.classes]
    part_sizes = [m.bit_count() for m in part_masks]
    preimages = [sorted(f.preimage(i)) for i in range(reduced.n)]
    m = max((len(p) for p in preimages), default=0)
    for i in range(reduced.n):
        if part_sizes[i] < (1 + params.xi) * len(preimages[i]):
            raise InsufficientSlack(f"part {i} lacks (1 + xi) slack for its preimage")

    aborts: list[str] = []
    for attempt in range(retries + 1):
        rng = random.Random(seed * 1_000_003 + attempt)
        try:
            vmap = _attempt(
                host, part_masks, part_sizes, preimages, g, f, params, m, rng, stats
            )
        except _Abort as a:
            aborts.append(a.stage)
            continue
        if not (
            vmap.is_injective()
            and verify_homomorphism(g, host, vmap).valid
            and all(part_masks[f(y)] >> vmap(y) & 1 for y in range(g.n))
        ):
            raise VerificationError("blow-up embedding failed verification")
        if stats is not None:
            stats.attempts = attempt + 1
            stats.aborts = tuple(aborts)
        return vmap
    if stats is not None:
        stats.attempts = retries + 1
        stats.aborts = tuple(aborts)
    return None


def _attempt(
    host: Graph,
    part_masks: list[int],
    part_sizes: list[int],
    preimages: list[list[int]],
    g: Graph,
    f: VertexMap,
    params: RgaParams,
    m: int,
    rng: random.Random,
    stats: RgaStats | None,
) -> VertexMap:
    n_src = g.n
    cand = [part_masks[f(y)] for y in range(n_src)]
    embedded_deg = [0] * n_src
    image = [-1] * n_src
    used = 0
    retention = params.delta - EPS
    queue_cap = EPS1 * m

    def check_candidate_invariant(y: int) -> None:
        # invariant (i): |U(y)| >= (delta - EPS)^{d(y)} |V_{f(y)}|
        bound = retention ** embedded_deg[y] * part_sizes[f(y)]
        if cand[y].bit_count() < bound:
            raise _Abort("candidate_invariant")

    for part in range(len(part_masks)):
        queue: deque[int] = deque()
        in_queue = [False] * n_src
        pending = list(preimages[part])
        pending_pos = 0
        remaining = len(pending)
        while remaining > 0:
            if queue:
                x = queue.popleft()
                in_queue[x] = False
            else:
                while image[pending[pending_pos]] >= 0:
                    pending_pos += 1
                x = pending[pending_pos]
                pending_pos += 1
            if stats is not None:
                stats.steps += 1
            free = cand[x] & ~used
            free_neighbors = [
                y for y in iter_bits(g.adj[x]) if image[y] < 0 and y != x
            ]
            choices = []
            for u in iter_bits(free):
                ok = True
                for y in free_neighbors:
                    kept = (cand[y] & host.adj[u]).bit_count()
                    if kept < retention * cand[y].bit_count():
                        ok = False
                        break
                if ok:
                    choices.append(u)
            if not choices:
                raise _Abort("starved")
            u = choices[rng.randrange(len(choices))]
            image[x] = u
            used |= 1 << u
            remaining -= 1
            for y in free_neighbors:
                cand[y] &= host.adj[u]
                embedded_deg[y] += 1
                check_candidate_invariant(y)
            # queue trigger (same-part vertices with few free candidates)
            for y in preimages[part]:
                if image[y] >= 0 or in_queue[y]:
                    continue
                if (cand[y] & ~used).bit_count() < EPS2 * part_sizes[part]:
                    queue.append(y)
                    in_queue[y] = True
            if len(queue) > queue_cap:
                raise _Abort("queue_overflow")
    return VertexMap(n_src, host.n, tuple(image))
