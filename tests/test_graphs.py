from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramsey_forge.graphs import (
    BLUE,
    RED,
    EdgeColoring,
    Graph,
    WeightedGraph,
    codegree,
    edges_between,
    induced,
    iter_bits,
    mask_of,
    other_color,
    pair_density,
)
from ramsey_forge.graphs import _transpose


def small_graphs(max_n: int = 8):
    @st.composite
    def build(draw):
        n = draw(st.integers(0, max_n))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        return Graph(n, chosen)

    return build()


def test_basic_construction():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert g.n == 4
    assert g.edge_count() == 3
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert not g.has_edge(0, 2)
    assert g.degree(1) == 2
    assert g.edges() == [(0, 1), (1, 2), (2, 3)]


def test_rejects_loops_and_out_of_range():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(-1)


def test_from_adj_validates():
    with pytest.raises(ValueError):
        Graph.from_adj([0b10, 0b00])  # asymmetric
    with pytest.raises(ValueError):
        Graph.from_adj([0b01])  # loop
    g = Graph.from_adj([0b10, 0b01])
    assert g.has_edge(0, 1)


def test_codegree():
    g = Graph(5, [(0, 2), (1, 2), (0, 3), (1, 3), (0, 4)])
    assert codegree(g, [0, 1]) == 2
    assert codegree(g, [0]) == 3
    with pytest.raises(ValueError):
        codegree(g, [])


def test_pair_density_exact():
    g = Graph(4, [(0, 2), (0, 3), (1, 2)])
    assert pair_density(g, [0, 1], [2, 3]) == Fraction(3, 4)
    with pytest.raises(ValueError):
        pair_density(g, [0], [0, 1])
    with pytest.raises(ValueError):
        pair_density(g, [], [1])


def test_edges_between():
    g = Graph(4, [(0, 2), (0, 3), (1, 2)])
    assert edges_between(g, mask_of([0, 1]), mask_of([2, 3])) == 3


def test_induced_relabels_in_order():
    g = Graph(5, [(1, 3), (3, 4), (1, 4)])
    sub = induced(g, [1, 3, 4])
    assert sub.n == 3
    assert sorted(sub.edges()) == [(0, 1), (0, 2), (1, 2)]
    for xs in ([1, 5], [-1, 2]):
        with pytest.raises(ValueError):
            induced(g, xs)


def _width(n):
    return max(8, 1 << (n - 1).bit_length())


def _pack(rows, width):
    return sum(row << (u * width) for u, row in enumerate(rows))


def _naive_transpose(rows, n):
    cols = [0] * n
    for u, row in enumerate(rows):
        for v in iter_bits(row):
            cols[v] |= 1 << u
    return cols


def _symmetric_rows(n, rng):
    rows = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.3:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return rows


def _first_asymmetry(rows):
    # the per-edge scan, row-major: the first (u, v) whose mirror is missing
    for u, row in enumerate(rows):
        for v in iter_bits(row):
            if not rows[v] >> u & 1:
                return u, v
    return None


@pytest.mark.parametrize("n", [0, 1, 2, 7, 8, 9, 63, 64, 65, 1000])
def test_transpose_and_validate_match_naive(n):
    rng = random.Random(n)
    width = _width(n)
    for rows in ([rng.getrandbits(n) for _ in range(n)], _symmetric_rows(n, rng)):
        assert _transpose(_pack(rows, width), width) == _pack(_naive_transpose(rows, n), width)
        loopless = [row & ~(1 << u) for u, row in enumerate(rows)]
        hit = _first_asymmetry(loopless)
        if hit is None:
            assert Graph.from_adj(loopless).adj == loopless
        else:
            with pytest.raises(ValueError, match=rf"^asymmetric adjacency at \({hit[0]}, {hit[1]}\)$"):
                Graph.from_adj(loopless)


@pytest.mark.parametrize(
    "rows, message",
    [
        ([0b10, 0b00], "asymmetric adjacency at (0, 1)"),
        ([0b100, 0b100, 0b000], "asymmetric adjacency at (0, 2)"),
        ([0b010, 0b101, 0b000], "asymmetric adjacency at (1, 2)"),
        ([0b01], "loop at vertex 0"),
        ([0b10, 0b11], "loop at vertex 1"),
        ([0b10, 0b101], "adjacency row 1 out of range"),
        ([-1, 0], "adjacency row 0 out of range"),
        ([1 << 9] + [0] * 8, "adjacency row 0 out of range"),
        # rows are checked in order, range and loop before any symmetry
        ([0b10, 0b110, 0b001], "loop at vertex 1"),
        ([0b100, 0b000, 0b1000], "adjacency row 2 out of range"),
    ],
)
def test_validate_messages(rows, message):
    with pytest.raises(ValueError) as exc:
        Graph.from_adj(rows)
    assert str(exc.value) == message


def _induced_naive(g, xs):
    order = sorted(set(xs))
    index = {x: i for i, x in enumerate(order)}
    return [
        sum(1 << index[y] for y in iter_bits(g.adj[x]) if y in index) for x in order
    ]


@pytest.mark.parametrize("n", [1, 2, 9, 30, 64, 65, 130])
def test_induced_matches_per_bit_relabelling(n):
    rng = random.Random(n)
    g = Graph.from_adj(_symmetric_rows(n, rng))
    masks = [rng.getrandbits(n) for _ in range(20)]  # many runs
    # co-sparse: all but a few vertices, so a few runs
    masks += [((1 << n) - 1) & ~mask_of(rng.sample(range(n), min(n, k))) for k in (1, 2, 3, 7)]
    masks += [(1 << n) - 1, 1 << (n - 1), 1]
    for mask in masks:
        xs = list(iter_bits(mask))
        rng.shuffle(xs)
        assert induced(g, xs + xs[:2]).adj == _induced_naive(g, xs)


@settings(max_examples=50, deadline=None)
@given(small_graphs())
def test_edges_round_trip(g):
    assert Graph(g.n, g.edges()) == g


def test_iter_bits_and_mask():
    assert list(iter_bits(0b10110)) == [1, 2, 4]
    assert mask_of([1, 2, 4]) == 0b10110


def test_weighted_graph_validation():
    g = Graph(2, [(0, 1)])
    assert WeightedGraph.unit(g).weights == (1, 1)
    with pytest.raises(ValueError):
        WeightedGraph(g, (Fraction(2), Fraction(1)))
    with pytest.raises(ValueError):
        WeightedGraph(g, (Fraction(1),))


def test_other_color():
    assert other_color(RED) == BLUE
    assert other_color(BLUE) == RED
    with pytest.raises(ValueError):
        other_color("green")


def test_coloring_partitions_edges():
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    c = EdgeColoring(g, [(0, 1)])
    assert c.color_of(0, 1) == RED
    assert c.color_of(1, 2) == BLUE
    red = c.subgraph(RED)
    blue = c.subgraph(BLUE)
    assert red.edge_count() + blue.edge_count() == g.edge_count()
    swapped = EdgeColoring.from_red_adj(g, blue.adj)
    assert swapped.color_of(0, 1) == BLUE
    with pytest.raises(ValueError):
        EdgeColoring(Graph(3, [(0, 1)]), [(1, 2)])
    with pytest.raises(ValueError):
        c.subgraph("green")


def count_from_adj(monkeypatch) -> list[list[int]]:
    built: list[list[int]] = []
    real = Graph.from_adj

    def counting(adj):
        built.append(list(adj))
        return real(adj)

    monkeypatch.setattr(Graph, "from_adj", staticmethod(counting))
    return built


def test_coloring_builds_each_color_graph_once(monkeypatch):
    built = count_from_adj(monkeypatch)
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    c = EdgeColoring(g, [(0, 1), (2, 3)])
    assert built == []  # nothing is built before it is asked for
    red, blue = c.subgraph(RED), c.subgraph(BLUE)
    assert c.subgraph(RED) is red and c.subgraph(BLUE) is blue
    assert built == [red.adj, blue.adj]
    assert red == Graph(4, [(0, 1), (2, 3)]) and blue == Graph(4, [(1, 2), (0, 3)])
    # from_red_adj keeps the red graph its symmetry check built, and its
    # red rows are that graph's own list: one copy of the caller's rows
    built.clear()
    d = EdgeColoring.from_red_adj(g, c.red_adj)
    assert d.subgraph(RED) is d.subgraph(RED) == red
    assert built == [red.adj]
    assert d.red_adj is d.subgraph(RED).adj and d.red_adj is not c.red_adj


def test_coloring_from_red_adj_validates():
    g = Graph(3, [(0, 1)])
    with pytest.raises(ValueError):
        EdgeColoring.from_red_adj(g, [0b100, 0, 0b001])  # not host edges
