"""Bitset-backed graphs, vertex weights, and red/blue edge colorings.

Adjacency is one Python int per vertex (bit v of adj[u] is set iff {u,v} is
an edge), so the neighborhood intersections that dominate every embedding
search are single bitwise ands.  Graph.validate checks symmetry the same
way: it packs the rows into one int, transposes that bit matrix by
log2(width) delta swaps, and compares.  Densities and weights are exact
`fractions.Fraction`s (hot paths compare integer counts scaled to a common
denominator instead): the regularity and capacity predicates are sharp
threshold checks and must never round.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

RED = "red"
BLUE = "blue"
COLORS = (RED, BLUE)


def other_color(color: str) -> str:
    if color not in COLORS:
        raise ValueError(f"unknown color {color!r}")
    return BLUE if color == RED else RED


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@lru_cache(maxsize=8)
def _swap_masks(width: int) -> tuple[tuple[int, int], ...]:
    """(shift, mask) of each delta swap that transposes a width x width bit
    matrix packed row-major, width a power of two: at block size s the mask
    holds the entries (r, c) with bit s of r clear and bit s of c set, and
    the swap exchanges each with (r + s, c - s).  Built by shift-doubling;
    the log2(width) masks of one width take about log2(width) width^2 / 8
    bytes."""
    swaps = []
    s = width // 2
    while s:
        mask, span = ((1 << s) - 1) << s, 2 * s  # row 0: the columns with bit s set
        while span < width:
            mask, span = mask | mask << span, 2 * span
        bit = 1  # then every row with bit s clear
        while bit < width:
            if bit != s:
                mask |= mask << bit * width
            bit *= 2
        swaps.append((s * (width - 1), mask))
        s //= 2
    return tuple(swaps)


def _transpose(packed: int, width: int) -> int:
    """Transpose of a width x width bit matrix packed row-major (row r at
    bits r * width ..), by log2(width) delta swaps of off-diagonal blocks."""
    for shift, mask in _swap_masks(width):
        t = (packed ^ packed >> shift) & mask
        packed ^= t ^ t << shift
    return packed


class Graph:
    """Simple undirected loop-free graph on vertices 0..n-1."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        self.n = n
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.adj = adj

    @classmethod
    def from_adj(cls, adj: Sequence[int]) -> "Graph":
        g = cls.__new__(cls)
        g.n = len(adj)
        g.adj = list(adj)
        g.validate()
        return g

    def validate(self) -> None:
        n = self.n
        for v, row in enumerate(self.adj):
            if row >> n:  # a bit at n or above, or a negative row
                raise ValueError(f"adjacency row {v} out of range")
            if row >> v & 1:
                raise ValueError(f"loop at vertex {v}")
        width = max(8, 1 << (n - 1).bit_length())  # a power of two, whole bytes
        packed = int.from_bytes(
            b"".join([row.to_bytes(width // 8, "little") for row in self.adj]), "little"
        )
        flipped = _transpose(packed, width)
        if packed != flipped:
            # the lowest bit of A & ~A^T is the first asymmetric (u, v), row-major
            asym = packed & ~flipped
            u, v = divmod((asym & -asym).bit_length() - 1, width)
            raise ValueError(f"asymmetric adjacency at ({u}, {v})")

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return self.adj[v].bit_count()

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u in range(self.n):
            rest = self.adj[u] >> (u + 1) << (u + 1)
            for v in iter_bits(rest):
                out.append((u, v))
        return out

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def max_degree(self) -> int:
        return max((row.bit_count() for row in self.adj), default=0)

    def min_degree(self) -> int:
        return min((row.bit_count() for row in self.adj), default=0)

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range for n={self.n}")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, tuple(self.adj)))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count()})"


def codegree(g: Graph, xs: Iterable[int]) -> int:
    """Number of common neighbors of the (nonempty) vertex set xs."""
    xs = list(xs)
    if not xs:
        raise ValueError("codegree of the empty set is undefined")
    common = (1 << g.n) - 1
    for x in xs:
        g._check_vertex(x)
        common &= g.adj[x]
    return common.bit_count()


def edges_between(g: Graph, xmask: int, ymask: int) -> int:
    """Count pairs (x, y) in X x Y that form an edge (X, Y given as masks)."""
    return sum((g.adj[x] & ymask).bit_count() for x in iter_bits(xmask))


def pair_density(g: Graph, xs: Iterable[int], ys: Iterable[int]) -> Fraction:
    """Exact rational edge density e(X, Y) / (|X| |Y|) for disjoint X, Y."""
    xmask = mask_of(xs)
    ymask = mask_of(ys)
    if xmask == 0 or ymask == 0:
        raise ValueError("X and Y must be nonempty")
    if xmask & ymask:
        raise ValueError("X and Y must be disjoint")
    if (xmask | ymask) >> g.n:
        raise ValueError(f"a vertex of X or Y is out of range for n={g.n}")
    e = edges_between(g, xmask, ymask)
    return Fraction(e, xmask.bit_count() * ymask.bit_count())


def threshold_size(eps: Fraction, size: int) -> int:
    """Least admissible subset size of a set of `size`: ceil(eps * size), at least 1."""
    return max(1, -(-eps.numerator * size // eps.denominator))


def induced(g: Graph, xs: Iterable[int]) -> Graph:
    """Induced subgraph on X, relabeled order-preservingly from sorted X."""
    order = sorted(set(xs))
    for x in order[:1] + order[-1:]:  # the ends bound every vertex
        g._check_vertex(x)
    # each run of consecutive vertices of X moves down by the gaps below it
    runs = []
    rest = mask_of(order)
    kept = 0
    while rest:
        low = rest & -rest
        run = rest & ~(rest + low)
        runs.append((run, low.bit_length() - 1 - kept))
        kept += run.bit_count()
        rest ^= run
    adj = []
    for x in order:
        row = g.adj[x]
        relabeled = 0
        for run, drop in runs:
            relabeled |= (row & run) >> drop
        adj.append(relabeled)
    return Graph.from_adj(adj)


@dataclass(frozen=True)
class WeightedGraph:
    """Graph with an exact rational weight in [0, 1] per vertex."""

    graph: Graph
    weights: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.weights) != self.graph.n:
            raise ValueError("one weight per vertex required")
        for w in self.weights:
            if not 0 <= w <= 1:
                raise ValueError(f"weight {w} outside [0, 1]")

    @classmethod
    def unit(cls, graph: Graph) -> "WeightedGraph":
        return cls(graph, tuple(Fraction(1) for _ in range(graph.n)))

    @classmethod
    def uniform(cls, graph: Graph, w: Fraction) -> "WeightedGraph":
        return cls(graph, tuple(Fraction(w) for _ in range(graph.n)))


class EdgeColoring:
    """Red/blue assignment on exactly the edge set of a host graph.

    Each colour graph is built and validated on first use and kept in its
    slot: later calls of `subgraph` return the same object, which callers
    must not mutate.  Two threads asking first at once may each build an
    equal copy.  `from_red_adj` builds the red graph at once, and `red_adj`
    is that graph's own row list.
    """

    __slots__ = ("host", "red_adj", "_red", "_blue")

    def __init__(self, host: Graph, red_edges: Iterable[tuple[int, int]]) -> None:
        self.host = host
        red_adj = [0] * host.n
        for u, v in red_edges:
            if not host.has_edge(u, v):
                raise ValueError(f"({u}, {v}) is not an edge of the host")
            red_adj[u] |= 1 << v
            red_adj[v] |= 1 << u
        self.red_adj = red_adj
        self._red: Graph | None = None
        self._blue: Graph | None = None

    @classmethod
    def from_red_adj(cls, host: Graph, red_adj: Sequence[int]) -> "EdgeColoring":
        if len(red_adj) != host.n:
            raise ValueError("red adjacency size mismatch")
        for v in range(host.n):
            if red_adj[v] & ~host.adj[v]:
                raise ValueError(f"red edges at {v} not contained in host edges")
        red = Graph.from_adj(red_adj)  # symmetry / loop check, and the one copy of the rows
        c = cls.__new__(cls)
        c.host = host
        c.red_adj = red.adj
        c._red, c._blue = red, None
        return c

    def color_of(self, u: int, v: int) -> str:
        if not self.host.has_edge(u, v):
            raise ValueError(f"({u}, {v}) is not an edge of the host")
        return RED if self.red_adj[u] >> v & 1 else BLUE

    def subgraph(self, color: str) -> Graph:
        if color == RED:
            if self._red is None:
                self._red = Graph.from_adj(self.red_adj)
            return self._red
        if color == BLUE:
            if self._blue is None:
                self._blue = Graph.from_adj(
                    [self.host.adj[v] & ~self.red_adj[v] for v in range(self.host.n)]
                )
            return self._blue
        raise ValueError(f"unknown color {color!r}")

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, EdgeColoring)
            and self.host == other.host
            and self.red_adj == other.red_adj
        )

    def __hash__(self) -> int:
        return hash((self.host, tuple(self.red_adj)))

    def __repr__(self) -> str:
        red = sum(r.bit_count() for r in self.red_adj) // 2
        return f"EdgeColoring(n={self.host.n}, red={red}, blue={self.host.edge_count() - red})"
