from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramsey_forge import bandwidth, generators as gen
from ramsey_forge.bandwidth import (
    BudgetExhausted,
    exact_bandwidth,
    heuristic_labeling,
    labeling_width,
)
from ramsey_forge.graphs import Graph


def test_labeling_width():
    g = gen.path(4)
    assert labeling_width(g, (0, 1, 2, 3)) == 1
    assert labeling_width(g, (0, 2, 1, 3)) == 2
    with pytest.raises(ValueError):
        labeling_width(g, (0, 1, 2, 2))
    assert labeling_width(Graph(3), (2, 0, 1)) == 0


def test_known_exact_values():
    assert exact_bandwidth(gen.path(6)) == 1
    assert exact_bandwidth(gen.cycle(6)) == 2
    assert exact_bandwidth(gen.complete(5)) == 4
    assert exact_bandwidth(gen.hypercube(3)) == 4
    assert exact_bandwidth(Graph(4)) == 0
    # star K_{1,4}: bandwidth 2 (= ceil(deg/2))
    star = Graph(5, [(0, i) for i in range(1, 5)])
    assert exact_bandwidth(star) == 2


def test_budget_exhaustion(monkeypatch):
    g = gen.hypercube(4)
    monkeypatch.setattr(bandwidth, "DEFAULT_BUDGET", 10)
    with pytest.raises(BudgetExhausted):
        exact_bandwidth(g)


def test_heuristic_is_valid_and_bounded():
    for make in (lambda: gen.path(9), lambda: gen.cycle(8), lambda: gen.hypercube(3)):
        g = make()
        labels, width = heuristic_labeling(g)
        assert sorted(labels) == list(range(g.n))
        assert labeling_width(g, labels) == width
        assert width >= exact_bandwidth(g)


def test_heuristic_path_is_optimal():
    labels, width = heuristic_labeling(gen.path(12))
    assert width == 1


@st.composite
def random_graph(draw):
    n = draw(st.integers(1, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph(n, edges)


@settings(max_examples=40, deadline=None)
@given(random_graph())
def test_exact_vs_heuristic_property(g):
    labels, width = heuristic_labeling(g)
    exact = exact_bandwidth(g)
    assert exact <= width
    # exact value is witnessed by some labeling and no labeling beats it:
    # cross-check by brute force for tiny graphs
    if g.n <= 6:
        import itertools

        best = min(
            labeling_width(g, perm) for perm in itertools.permutations(range(g.n))
        )
        assert best == exact


def test_disconnected_heuristic_covers_all():
    g = Graph(6, [(0, 1), (2, 3)])
    labels, width = heuristic_labeling(g)
    assert sorted(labels) == list(range(6))
