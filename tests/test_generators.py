from __future__ import annotations

import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest

import generators_reference as ref
from drc_reference import random_coloring_fraction, random_min_degree_host_refiltering
from ramsey_forge import generators as gen
from ramsey_forge.graphs import RED, Graph
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
    # the draw walks the rows' upper triangle, the lex order of Graph.edges;
    # another order (colex, say) moves these rows and every seeded coloring
    # downstream
    coloring = gen.random_coloring(gen.complete(8), Fraction(1, 2), seed=3)
    assert coloring.red_adj == [202, 89, 40, 135, 130, 68, 163, 89]


@pytest.mark.parametrize("n", [5, 12, 40])
def test_random_coloring_matches_fraction_form(n):
    host = gen.complete(n)
    for p in (0, 1, Fraction(1, 2), Fraction(1, 3), Fraction(2, 7), Fraction(1, 8),
              Fraction(999, 1000)):
        for seed in range(50):
            want = random_coloring_fraction(host, p, seed)
            assert gen.random_coloring(host, p, seed) == want, (p, seed)


def _coloring_hosts():
    yield from (gen.random_min_degree_host(n, Fraction(1, 4), n) for n in (24, 48, 64))
    yield gen.blowup(gen.cycle(5), (3, 1, 4, 1, 5))[0]
    yield gen.cycle(9)
    yield from (Graph(0), Graph(1), Graph(5))


@pytest.mark.parametrize("host", list(_coloring_hosts()), ids=repr)
def test_random_coloring_skips_non_edges(host):
    # the row walk must draw only on host edges, in Graph.edges' order
    for p in (0, 1, Fraction(1, 2), Fraction(1, 3), Fraction(999, 1000)):
        for seed in range(10):
            got = gen.random_coloring(host, p, seed)
            assert got == random_coloring_fraction(host, p, seed), (p, seed)
            assert got == ref.random_coloring_edges(host, p, seed), (p, seed)


def test_complete_matches_combinations():
    for n in range(41):
        assert gen.complete(n) == ref.complete_edges(n), n


def test_named_families_match_edge_lists():
    for n in range(12):
        assert gen.path(n) == ref.path_edges(n), n
        for r in range(n + 2):
            assert gen.path_power(n, r) == ref.path_power_edges(n, r), (n, r)
    for n in range(3, 12):
        assert gen.cycle(n) == ref.cycle_edges(n), n
    for k in range(4, 12):
        assert gen.wheel(k) == ref.wheel_edges(k), k
    for d in range(7):
        assert gen.hypercube(d) == ref.hypercube_edges(d), d
    for n, max_degree in itertools.product(range(9), range(5)):
        want = ref.random_bounded_degree_graph_edges(n, max_degree, n)
        assert gen.random_bounded_degree_graph(n, max_degree, n) == want


def test_blowup_matches_edge_list_reference():
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(0, 7)
        base = Graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.6])
        sizes = [rng.randint(1, 5) for _ in range(n)]
        got, proj = gen.blowup(base, sizes)
        want, want_proj = ref.blowup_edges(base, sizes)
        assert got.adj == want.adj, (base.adj, sizes)
        assert proj == want_proj, (base.adj, sizes)


def test_random_min_degree_host_pair_codes_are_never_mutated():
    eps = Fraction(1, 4)
    before = [gen.random_min_degree_host(64, eps, seed) for seed in range(5)]
    for n in (0, 1, 2, 3, 7, 24, 48, 96, 64, 12):
        for seed in range(3):
            gen.random_min_degree_host(n, eps, seed)
    assert [gen.random_min_degree_host(64, eps, seed) for seed in range(5)] == before
    assert gen._lex_pair_codes(64) == tuple(
        a * 64 + b for a, b in itertools.combinations(range(64), 2)
    )


def test_host_builder_draw_is_randrange_draw_for_draw():
    # random_min_degree_host draws each position by randrange's own rejection
    # loop over getrandbits, written out; on every Python the two must take
    # the same values from the same stream
    for seed in (0, 1, 7, 2024):
        ours, theirs = random.Random(seed), random.Random(seed)
        getrandbits = ours.getrandbits
        for size in range(1, 4097):
            k = size.bit_length()
            r = getrandbits(k)
            while r >= size:
                r = getrandbits(k)
            assert r == theirs.randrange(size), (seed, size)
        assert ours.getstate() == theirs.getstate()


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


HOST_GRID = (
    (7, Fraction(1, 2)),
    (12, Fraction(1, 3)),
    (16, Fraction(1, 10)),
    (24, Fraction(1, 4)),
    (33, Fraction(1, 5)),
    (48, Fraction(1, 3)),
    (64, Fraction(1, 4)),
    (96, Fraction(1, 10)),
)


@pytest.mark.parametrize("n, eps", HOST_GRID)
def test_random_min_degree_host_matches_refiltering(n, eps):
    for seed in range(200):
        want = random_min_degree_host_refiltering(n, eps, seed)
        assert gen.random_min_degree_host(n, eps, seed) == want, seed


def test_random_bounded_degree_graph():
    g = gen.random_bounded_degree_graph(20, 4, seed=2)
    assert g.max_degree() <= 4
    assert g == gen.random_bounded_degree_graph(20, 4, seed=2)
