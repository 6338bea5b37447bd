from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramsey_forge import fileio
from ramsey_forge import generators as gen
from ramsey_forge.graphs import EdgeColoring, Graph


@st.composite
def random_graph(draw):
    n = draw(st.integers(0, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph(n, edges)


@settings(max_examples=60, deadline=None)
@given(random_graph())
def test_edgelist_round_trip(g):
    assert fileio.decode_edgelist(fileio.encode_edgelist(g)) == g


@settings(max_examples=60, deadline=None)
@given(random_graph())
def test_graph6_round_trip(g):
    assert fileio.decode_graph6(fileio.encode_graph6(g)) == g


@settings(max_examples=40, deadline=None)
@given(random_graph())
def test_graph6_matches_networkx(g):
    ng = nx.Graph()
    ng.add_nodes_from(range(g.n))
    ng.add_edges_from(g.edges())
    theirs = nx.to_graph6_bytes(ng, header=False).decode().strip()
    ours = fileio.encode_graph6(g).strip()
    assert ours == theirs


def test_graph6_size_limit():
    with pytest.raises(ValueError):
        fileio.encode_graph6(Graph(63))


def test_coloring_round_trip():
    host = gen.complete(5)
    c = EdgeColoring(host, [(0, 1), (2, 3), (1, 4)])
    back = fileio.decode_coloring(fileio.encode_coloring(c))
    assert back == c
    for u, v in host.edges():
        assert back.color_of(u, v) == c.color_of(u, v)


def test_parse_errors_carry_position():
    with pytest.raises(fileio.ParseError) as exc:
        fileio.decode_edgelist("2 1\n1 x\n")
    assert exc.value.line == 2
    with pytest.raises(fileio.ParseError):
        fileio.decode_edgelist("")
    with pytest.raises(fileio.ParseError):
        fileio.decode_edgelist("3 5\n0 1\n")  # edge count mismatch
    with pytest.raises(fileio.ParseError):
        fileio.decode_coloring("2 1\n0 1 G\n")
    with pytest.raises(fileio.ParseError):
        fileio.decode_graph6("")


def test_format_registry():
    g = gen.cycle(4)
    for fmt in (fileio.FORMAT_EDGELIST, fileio.FORMAT_GRAPH6):
        assert fileio.decode(fileio.encode(g, fmt), fmt) == g
    with pytest.raises(ValueError):
        fileio.encode(g, "dot")


def test_path_round_trip(tmp_path):
    g = gen.complete(4)
    path = str(tmp_path / "g.el")
    fileio.write_path(path, g, fileio.FORMAT_EDGELIST)
    assert fileio.read_path(path, fileio.FORMAT_EDGELIST) == g
