from __future__ import annotations

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


@settings(max_examples=50, deadline=None)
@given(small_graphs())
def test_complement_involution(g):
    assert g.complement().complement() == g
    assert g.edge_count() + g.complement().edge_count() == g.n * (g.n - 1) // 2


@settings(max_examples=50, deadline=None)
@given(small_graphs())
def test_edges_round_trip(g):
    assert Graph(g.n, g.edges()) == g


def test_iter_bits_and_mask():
    assert list(iter_bits(0b10110)) == [1, 2, 4]
    assert mask_of([1, 2, 4]) == 0b10110


def test_weighted_graph_validation():
    g = Graph(2, [(0, 1)])
    gw = WeightedGraph.unit(g)
    assert gw.total_weight() == 2
    assert gw.weight_of([0]) == 1
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
    # from_red_adj keeps the red graph its symmetry check built
    built.clear()
    d = EdgeColoring.from_red_adj(g, c.red_adj)
    assert d.subgraph(RED) is d.subgraph(RED) == red
    assert built == [red.adj]


def test_coloring_from_red_adj_validates():
    g = Graph(3, [(0, 1)])
    with pytest.raises(ValueError):
        EdgeColoring.from_red_adj(g, [0b100, 0, 0b001])  # not host edges
