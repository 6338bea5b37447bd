from __future__ import annotations

import hashlib
import math
from fractions import Fraction

import pytest

from ramsey_forge import generators as gen
from ramsey_forge.graphs import RED
from ramsey_forge.morphisms import verify_homomorphism


def test_path_cycle_complete():
    assert gen.path(1).edge_count() == 0
    assert gen.path(5).edge_count() == 4
    assert gen.cycle(5).edge_count() == 5
    assert all(gen.cycle(5).degree(v) == 2 for v in range(5))
    assert gen.complete(6).edge_count() == 15
    with pytest.raises(ValueError):
        gen.cycle(2)


def test_complete_multipartite():
    g = gen.complete_multipartite([2, 2, 2])
    assert g.n == 6
    assert g.edge_count() == 12
    assert all(g.degree(v) == 4 for v in range(6))
    with pytest.raises(ValueError):
        gen.complete_multipartite([2, 0])


def test_wheel():
    g = gen.wheel(6)
    hub = 5
    assert g.degree(hub) == 5
    assert all(g.degree(v) == 3 for v in range(5))
    with pytest.raises(ValueError):
        gen.wheel(3)


def test_path_power():
    g = gen.path_power(6, 2)
    assert g.has_edge(0, 2) and not g.has_edge(0, 3)
    assert gen.path_power(6, 1) == gen.path(6)


def test_hypercube():
    g = gen.hypercube(3)
    assert g.n == 8
    assert all(g.degree(v) == 3 for v in range(8))
    assert g.edge_count() == 12


def test_make_named():
    assert gen.make_named("cycle", [4]) == gen.cycle(4)
    with pytest.raises(ValueError):
        gen.make_named("moebius", [5])


@pytest.mark.parametrize(
    "kind, params", [("complete", []), ("cycle", [4, 5]), ("path_power", [6]), ("hypercube", [])]
)
def test_make_named_checks_parameter_count(kind, params):
    # a ValueError (an `error:` line in the CLI), not an IndexError
    with pytest.raises(ValueError, match="parameter"):
        gen.make_named(kind, params)


def test_make_named_multipartite_takes_any_count():
    assert gen.make_named("complete_multipartite", [2, 3]) == gen.complete_multipartite([2, 3])
    assert gen.make_named("path_power", [5, 2]) == gen.path_power(5, 2)


def test_blowup_projection_is_homomorphism():
    base = gen.cycle(3)
    g, proj = gen.blowup(base, (2, 3, 1))
    assert g.n == 6
    assert verify_homomorphism(g, base, proj).valid
    parts = [proj.preimage(i) for i in range(base.n)]
    assert [len(p) for p in parts] == [2, 3, 1]
    # parts are independent sets
    for p in parts:
        for u in p:
            for v in p:
                assert u == v or not g.has_edge(u, v)


def test_blowup_spec_validation():
    with pytest.raises(ValueError):
        gen.blowup(gen.cycle(3), (2, 2))
    with pytest.raises(ValueError):
        gen.blowup(gen.cycle(3), (2, 0, 1))


def test_random_coloring_extremes_and_determinism():
    host = gen.complete(6)
    all_red = gen.random_coloring(host, Fraction(1), seed=0)
    assert all_red.subgraph(RED).edge_count() == 15
    all_blue = gen.random_coloring(host, Fraction(0), seed=0)
    assert all_blue.subgraph(RED).edge_count() == 0
    a = gen.random_coloring(host, Fraction(1, 2), seed=3)
    b = gen.random_coloring(host, Fraction(1, 2), seed=3)
    assert a == b


def test_random_coloring_rows_pinned():
    # the draw runs over Graph.edges in lex order; reordering the edge list
    # (colex, say) moves these rows and every seeded coloring downstream
    coloring = gen.random_coloring(gen.complete(8), Fraction(1, 2), seed=3)
    assert coloring.red_adj == [202, 89, 40, 135, 130, 68, 163, 89]


def test_random_min_degree_host_certificate():
    for seed in range(5):
        g = gen.random_min_degree_host(16, Fraction(1, 4), seed)
        assert g.min_degree() >= math.ceil((1 - Fraction(1, 4)) * 16)
    assert gen.random_min_degree_host(16, Fraction(1, 4), 1) == gen.random_min_degree_host(
        16, Fraction(1, 4), 1
    )
    # below eps = 1/n the floor is capped at n - 1, so only K_n qualifies
    for eps in (Fraction(0), Fraction(1, 13)):
        assert gen.random_min_degree_host(12, eps, 2) == gen.complete(12)


# sha256 of repr(host.adj), captured while the deletable list was still rebuilt
# from all n(n-1)/2 pairs after every deletion
PINNED_HOST_ROWS = {
    (64, Fraction(1, 4), 0): "8a75872d439fcfa582e20cb8684c409e072ffd365478939e0d7785f70a5abe34",
    (64, Fraction(1, 4), 1): "29aad08c5cb88caba921f5c902313b15b925b181e98adde232852f1caf10555d",
    (64, Fraction(1, 4), 17): "3a0d8606786519c90431102fb40fb4aa5c912a38d5f7d9749374133a4a71b77f",
    (48, Fraction(1, 3), 5): "023e019e5154ecf5e9981fe817750e425c855f84e82689c03314b7726f6afdc6",
    (33, Fraction(1, 10), 4): "187099304eaf9574f13116f4b73e19ed25184c9f936887aa9573dc9c03ae7949",
    (24, Fraction(1, 4), 3): "38fd9ac3d30ac7d53c8588375d6f1dc79e6b2e799c6919d40b189c7bff2907ec",
    (20, Fraction(1, 2), 9): "59eedc7dbd451991964153039d0ad9915a0f7751ee6cd14bafcbdd2f7e204c4f",
    (12, Fraction(1, 12), 2): "b906abe10df8ed40e9855a2ca383c25937bc29ba138f9d128b906e0364ac2ebd",
}


@pytest.mark.parametrize("n, eps, seed", sorted(PINNED_HOST_ROWS))
def test_random_min_degree_host_rows_pinned(n, eps, seed):
    host = gen.random_min_degree_host(n, eps, seed)
    digest = hashlib.sha256(repr(host.adj).encode()).hexdigest()
    assert digest == PINNED_HOST_ROWS[n, eps, seed]


def test_random_bounded_degree_graph():
    g = gen.random_bounded_degree_graph(20, 4, seed=2)
    assert g.max_degree() <= 4
    assert g == gen.random_bounded_degree_graph(20, 4, seed=2)
