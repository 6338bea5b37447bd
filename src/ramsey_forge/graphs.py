"""Bitset-backed graphs, vertex weights, and red/blue edge colorings.

Adjacency is one Python int per vertex (bit v of adj[u] is set iff {u,v} is
an edge), so the neighborhood intersections that dominate every embedding
search are single bitwise ands.  Densities and weights are
`fractions.Fraction` throughout: the regularity and capacity predicates are
sharp threshold checks and must never round.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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
        full = (1 << self.n) - 1
        for v, row in enumerate(self.adj):
            if row & ~full:
                raise ValueError(f"adjacency row {v} out of range")
            if row >> v & 1:
                raise ValueError(f"loop at vertex {v}")
        for u in range(self.n):
            for v in iter_bits(self.adj[u]):
                if not self.adj[v] >> u & 1:
                    raise ValueError(f"asymmetric adjacency at ({u}, {v})")

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return self.adj[v].bit_count()

    def neighbors_mask(self, v: int) -> int:
        self._check_vertex(v)
        return self.adj[v]

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

    def complement(self) -> "Graph":
        full = (1 << self.n) - 1
        return Graph.from_adj([full & ~row & ~(1 << v) for v, row in enumerate(self.adj)])

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
        raise ValueError("pair_density requires nonempty sets")
    if xmask & ymask:
        raise ValueError("pair_density requires disjoint sets")
    if (xmask | ymask) >> g.n:
        raise ValueError("vertex out of range")
    e = edges_between(g, xmask, ymask)
    return Fraction(e, xmask.bit_count() * ymask.bit_count())


def threshold_size(eps: Fraction, size: int) -> int:
    """Least admissible subset size of a set of `size`: ceil(eps * size), at least 1."""
    return max(1, -((-eps * size) // 1))


def induced(g: Graph, xs: Iterable[int]) -> Graph:
    """Induced subgraph on X, relabeled order-preservingly from sorted X."""
    order = sorted(set(xs))
    for x in order:
        g._check_vertex(x)
    index = {x: i for i, x in enumerate(order)}
    edges = []
    for i, x in enumerate(order):
        for y in order[i + 1 :]:
            if g.adj[x] >> y & 1:
                edges.append((index[x], index[y]))
    return Graph(len(order), edges)


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

    def total_weight(self) -> Fraction:
        return sum(self.weights, Fraction(0))

    def weight_of(self, xs: Iterable[int]) -> Fraction:
        return sum((self.weights[x] for x in xs), Fraction(0))


class EdgeColoring:
    """Red/blue assignment on exactly the edge set of a host graph."""

    __slots__ = ("host", "red_adj")

    def __init__(self, host: Graph, red_edges: Iterable[tuple[int, int]]) -> None:
        self.host = host
        red_adj = [0] * host.n
        for u, v in red_edges:
            if not host.has_edge(u, v):
                raise ValueError(f"({u}, {v}) is not an edge of the host")
            red_adj[u] |= 1 << v
            red_adj[v] |= 1 << u
        self.red_adj = red_adj

    @classmethod
    def from_red_adj(cls, host: Graph, red_adj: Sequence[int]) -> "EdgeColoring":
        c = cls.__new__(cls)
        c.host = host
        c.red_adj = list(red_adj)
        if len(c.red_adj) != host.n:
            raise ValueError("red adjacency size mismatch")
        for v in range(host.n):
            if c.red_adj[v] & ~host.adj[v]:
                raise ValueError(f"red edges at {v} not contained in host edges")
        Graph.from_adj(c.red_adj)  # symmetry / loop check
        return c

    def color_of(self, u: int, v: int) -> str:
        if not self.host.has_edge(u, v):
            raise ValueError(f"({u}, {v}) is not an edge of the host")
        return RED if self.red_adj[u] >> v & 1 else BLUE

    def subgraph(self, color: str) -> Graph:
        if color == RED:
            return Graph.from_adj(list(self.red_adj))
        if color == BLUE:
            return Graph.from_adj(
                [self.host.adj[v] & ~self.red_adj[v] for v in range(self.host.n)]
            )
        raise ValueError(f"unknown color {color!r}")

    @property
    def red_graph(self) -> Graph:
        return self.subgraph(RED)

    @property
    def blue_graph(self) -> Graph:
        return self.subgraph(BLUE)

    def swapped(self) -> "EdgeColoring":
        return EdgeColoring.from_red_adj(
            self.host, [self.host.adj[v] & ~self.red_adj[v] for v in range(self.host.n)]
        )

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
