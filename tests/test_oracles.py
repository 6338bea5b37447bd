from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramsey_forge import generators as gen
from ramsey_forge.graphs import EdgeColoring, Graph, WeightedGraph
from ramsey_forge.oracles import (
    EXCEEDS,
    INFINITE_SUSPECTED,
    MODE_EXHAUSTIVE,
    MODE_PRUNED,
    VALUE,
    hosts_with_min_degree,
    min_degree_threshold,
    mono_copy_search,
    plain_embeds,
    ramsey_number,
    stable_ramsey,
    weighted_ramsey,
)


def test_plain_embeds_basics():
    assert plain_embeds(gen.path(3), gen.complete(3))
    assert plain_embeds(gen.cycle(4), gen.complete(4))
    assert not plain_embeds(gen.cycle(3), gen.cycle(4))
    assert not plain_embeds(gen.complete(4), gen.complete(3))
    assert plain_embeds(Graph(0), Graph(0))


def test_known_ramsey_values():
    assert ramsey_number(gen.complete(3), 6).value == 6
    assert ramsey_number(gen.path(3), 4).value == 3
    assert ramsey_number(gen.path(4), 6).value == 5
    assert ramsey_number(gen.complete(2), 3).value == 2


def test_ramsey_exceeds_and_cap():
    r = ramsey_number(gen.cycle(5), 8)  # r(C_5) = 9
    assert r.status == EXCEEDS
    assert r.witness_n == 8
    with pytest.raises(ValueError):
        ramsey_number(gen.complete(3), 9)


def test_witness_is_copy_free():
    r = ramsey_number(gen.complete(3), 6)
    assert r.witness_n == 5
    coloring = r.witness_coloring
    gw = WeightedGraph.unit(gen.complete(3))
    assert mono_copy_search(coloring, gw) is None


def test_pruned_matches_exhaustive():
    for target in (gen.complete(3), gen.path(4), gen.cycle(4)):
        a = ramsey_number(target, 6, MODE_PRUNED)
        b = ramsey_number(target, 6, MODE_EXHAUSTIVE)
        assert (a.status, a.value) == (b.status, b.value)


def test_weighted_unit_equals_plain_small():
    for target in (gen.complete(3), gen.path(3), gen.cycle(4)):
        plain = ramsey_number(target, 6)
        weighted = weighted_ramsey(WeightedGraph.unit(target), 6)
        assert (plain.status, plain.value) == (weighted.status, weighted.value)


def test_weighted_fractional_collapse():
    # half-weight C_4 folds onto a single red or blue edge
    gw = WeightedGraph.uniform(gen.cycle(4), Fraction(1, 2))
    assert weighted_ramsey(gw, 4).value == 2


def test_mono_copy_search_returns_verified_map():
    host = gen.complete(6)
    coloring = EdgeColoring(host, host.edges())  # all red
    gw = WeightedGraph.unit(gen.complete(3))
    hit = mono_copy_search(coloring, gw)
    assert hit is not None
    color, vmap = hit
    assert color == "red"
    assert vmap.is_injective()


def test_min_degree_threshold_cap():
    eps = Fraction(1, 4)
    assert min_degree_threshold(2, eps) == 1  # capped at n-1
    assert min_degree_threshold(8, eps) == 6
    assert min_degree_threshold(0, eps) == 0


def test_hosts_with_min_degree_counts():
    # threshold n-1: only K_n
    hosts = list(hosts_with_min_degree(4, 3))
    assert hosts == [gen.complete(4)]
    # threshold n-2: complements are matchings
    hosts = list(hosts_with_min_degree(4, 2))
    matchings = 1 + 6 + 3  # empty, single edges, perfect matchings on 4 vertices
    assert len(hosts) == matchings
    assert all(h.min_degree() >= 2 for h in hosts)
    # distinct labeled graphs
    assert len({h for h in hosts}) == len(hosts)


def test_stable_identities():
    k2 = WeightedGraph.unit(gen.complete(2))
    for eps in (Fraction(1, 8), Fraction(1, 4), Fraction(2, 5)):
        assert stable_ramsey(k2, eps, 3).value == 2
    p3 = WeightedGraph.unit(gen.path(3))
    assert stable_ramsey(p3, Fraction(1, 4), 4).value == 3


def test_stable_infinite_suspected():
    # triangle with eps = 1/2: complete bipartite hosts never contain K_3
    gw = WeightedGraph.unit(gen.complete(3))
    r = stable_ramsey(gw, Fraction(1, 2), 6)
    assert r.status == INFINITE_SUSPECTED
    assert r.witness_host is not None
    assert r.witness_coloring is not None
    assert mono_copy_search(r.witness_coloring, gw) is None


def test_stable_hard_cap():
    with pytest.raises(ValueError):
        stable_ramsey(WeightedGraph.unit(gen.complete(2)), Fraction(1, 4), 7)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 255))
def test_pruned_and_naive_agree_on_random_targets(bits):
    # random graph on 4 vertices from the bits
    pairs = list(itertools.combinations(range(4), 2))
    edges = [p for i, p in enumerate(pairs) if bits >> i & 1]
    g = Graph(4, edges)
    a = ramsey_number(g, 5, MODE_PRUNED)
    b = ramsey_number(g, 5, MODE_EXHAUSTIVE)
    assert (a.status, a.value) == (b.status, b.value)
