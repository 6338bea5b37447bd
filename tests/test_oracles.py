from __future__ import annotations

import hashlib
import itertools
import random
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramsey_forge import generators as gen
from ramsey_forge import morphisms, oracles
from ramsey_forge.graphs import EdgeColoring, Graph, WeightedGraph
from ramsey_forge.morphisms import BudgetExhausted
from ramsey_forge.oracles import (
    EXCEEDS,
    INCONCLUSIVE,
    INFINITE_SUSPECTED,
    VALUE,
    hosts_with_min_degree,
    min_degree_threshold,
    mono_copy_search,
    plain_embeds,
    ramsey_number,
    stable_ramsey,
    weighted_ramsey,
    witness_verified,
)
from oracle_reference import reference, witness_coloring_unpruned


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
        ramsey_number(gen.complete(3), 11)


def test_cycle5_ramsey_value():
    # r(C_n) = 2n - 1 for odd n >= 5 (Bondy-Erdos, Rosta, Faudree-Schelp)
    r = ramsey_number(gen.cycle(5), 9)
    assert (r.status, r.value, r.witness_n) == (VALUE, 9, 8)
    assert witness_verified(r, WeightedGraph.unit(gen.cycle(5)))


def test_path7_ramsey_value():
    # r(P_n) = n + floor(n/2) - 1 (Gerencser-Gyarfas)
    r = ramsey_number(gen.path(7), 9)
    assert (r.status, r.value, r.witness_n) == (VALUE, 9, 8)
    assert witness_verified(r, WeightedGraph.unit(gen.path(7)))


def test_witness_is_copy_free():
    r = ramsey_number(gen.complete(3), 6)
    assert r.witness_n == 5
    coloring = r.witness_coloring
    gw = WeightedGraph.unit(gen.complete(3))
    assert mono_copy_search(coloring, gw) is None


def test_pruned_matches_exhaustive():
    for target in (gen.complete(3), gen.path(4), gen.cycle(4)):
        a = ramsey_number(target, 6)
        b = reference(ramsey_number, target, 6)
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
    assert r.witness_coloring is not None
    assert r.witness_coloring.host != gen.complete(r.witness_n)  # a multipartite host
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
    a = ramsey_number(g, 5)
    b = reference(ramsey_number, g, 5)
    assert (a.status, a.value) == (b.status, b.value)


def test_cycle6_ramsey_value():
    # r(C_n) = 3n/2 - 1 for even n >= 6 (Rosta 1973; Faudree-Schelp 1974)
    r = ramsey_number(gen.cycle(6), 8)
    assert (r.status, r.value, r.witness_n) == (VALUE, 8, 7)
    assert witness_verified(r, WeightedGraph.unit(gen.cycle(6)))


def test_star_k15_ramsey_value():
    # r(K_{1,n}) = 2n for odd n (Burr-Roberts 1973)
    star = gen.complete_multipartite([1, 5])
    r = ramsey_number(star, 10)
    assert (r.status, r.value, r.witness_n) == (VALUE, 10, 9)
    assert witness_verified(r, WeightedGraph.unit(star))


def test_k23_ramsey_value_in_5000_nodes(monkeypatch):
    # r(K_{2,3}) = 10 (Radziszowski, "Small Ramsey Numbers", DS1); the
    # search without twin cuts spends about 2.7M nodes on it
    monkeypatch.setattr(oracles, "COLORING_BUDGET", 5_000)
    k23 = gen.complete_multipartite([2, 3])
    r = ramsey_number(k23, 10)
    assert (r.status, r.value, r.witness_n) == (VALUE, 10, 9)
    assert witness_verified(r, WeightedGraph.unit(k23))


def test_ramsey_witnesses_share_one_complete_host():
    # K_n is built once per n, so a witness holds no host of its own
    a, b = ramsey_number(gen.cycle(4), 7), ramsey_number(gen.complete(3), 6)
    assert a.witness_n == b.witness_n == 5
    assert a.witness_coloring.host is b.witness_coloring.host == gen.complete(5)


def _twin_cut_cases():
    unit = WeightedGraph.unit
    targets = {
        "P4": unit(gen.path(4)),
        "P5": unit(gen.path(5)),
        "P6": unit(gen.path(6)),
        "C4": unit(gen.cycle(4)),
        "C5": unit(gen.cycle(5)),
        "K1,3": unit(gen.complete_multipartite([1, 3])),
        "K1,4": unit(gen.complete_multipartite([1, 4])),
        "C5half": WeightedGraph.uniform(gen.cycle(5), Fraction(1, 2)),
    }
    # every pair of K_n is a twin pair; the multipartite hosts' twins are
    # non-adjacent; the min-degree hosts have whatever twins they have
    hosts = {f"K{n}": [gen.complete(n)] for n in range(8)}
    hosts["K2,2,2"] = [gen.complete_multipartite([2, 2, 2])]
    hosts["K3,3"] = [gen.complete_multipartite([3, 3])]
    cases = [
        pytest.param(hs, gw, id=f"{h}-{t}") for h, hs in hosts.items() for t, gw in targets.items()
    ]
    for th in (3, 4):
        hs = list(hosts_with_min_degree(6, th))
        cases += [pytest.param(hs, targets[t], id=f"delta{th}-{t}") for t in ("P4", "C4")]
    return cases


def test_twin_tests_are_built_once_per_host():
    hosts = [gen.complete(n) for n in range(1, 11)]
    hosts += [gen.complete_multipartite([1, 2, 3]), *hosts_with_min_degree(6, 3)]
    for host in hosts:
        built = oracles._twin_tests(host)
        assert oracles._twin_tests(host) is built
        assert built == oracles._twin_tests.__wrapped__(host)
        edges, tests = built
        assert list(edges) == sorted(host.edges(), key=lambda e: (e[1], e[0]))
        assert len(tests) == len(edges)


@pytest.mark.parametrize("hosts,gw", _twin_cut_cases())
def test_twin_cuts_keep_the_first_witness(hosts, gw):
    copies = oracles._Copies(gw)
    for host in hosts:
        assert oracles._witness_coloring(host, copies) == witness_coloring_unpruned(host, copies)


# Small graphs on at most four vertices, one per isomorphism class: the
# empty graph, edgeless graphs and graphs with isolated vertices included.
ATLAS = [Graph(a.number_of_nodes(), list(a.edges())) for a in nx.graph_atlas_g()[:19]]
WEIGHTS = (Fraction(0), Fraction(1, 2), Fraction(1))


@pytest.mark.parametrize("index", range(len(ATLAS)))
def test_rooted_pruned_matches_exhaustive_on_atlas(index):
    g = ATLAS[index]
    rng = random.Random(index)
    a = ramsey_number(g, 5)
    b = reference(ramsey_number, g, 5)
    assert (a.status, a.value) == (b.status, b.value)
    for _ in range(2):
        gw = WeightedGraph(g, tuple(rng.choice(WEIGHTS) for _ in range(g.n)))
        a = weighted_ramsey(gw, 5)
        b = reference(weighted_ramsey, gw, 5)
        assert (a.status, a.value) == (b.status, b.value), gw.weights
        assert witness_verified(a, gw)


@pytest.mark.parametrize("eps", [Fraction(1, 4), Fraction(1, 3), Fraction(1, 2)])
def test_stable_matches_reference_on_atlas(eps):
    for g in ATLAS:
        unit = WeightedGraph.unit(g)
        a = stable_ramsey(unit, eps, 5)
        b = reference(stable_ramsey, unit, eps, 5)
        assert (a.status, a.value, a.witness_n) == (b.status, b.value, b.witness_n), g.edges()
        assert witness_verified(a, unit)


def test_reference_runs_no_rooted_search(monkeypatch):
    # the reference must not fall back on the search it checks
    def rooted(*args):
        raise AssertionError("rooted search called")

    monkeypatch.setattr(oracles._Copies, "through", rooted)
    assert reference(ramsey_number, gen.complete(3), 6).value == 6


def _pruned(oracle, *args):
    return oracle(*args)


# the ids keep the names these tests have always been reported under
@pytest.mark.parametrize("search", [_pruned, reference], ids=["symmetry_pruned", "exhaustive"])
@pytest.mark.parametrize("index", range(len(ATLAS)))
def test_ramsey_is_unit_weighted_and_stable_at_eps_zero(index, search):
    g = ATLAS[index]
    unit = WeightedGraph.unit(g)
    results = [
        search(ramsey_number, g, 5),
        search(weighted_ramsey, unit, 5),
        search(stable_ramsey, unit, Fraction(0), 5),
    ]
    keys = set()
    for r in results:
        red = tuple(r.witness_coloring.red_adj) if r.witness_coloring else None
        keys.add((r.status, r.value, r.witness_n, red))
    assert len(keys) == 1, keys


def _benchmark_queries():
    unit = WeightedGraph.unit
    half_c5 = WeightedGraph.uniform(gen.cycle(5), Fraction(1, 2))
    return [
        ("r(K3)", lambda: ramsey_number(gen.complete(3), 6)),
        ("r(C4)", lambda: ramsey_number(gen.cycle(4), 7)),
        ("wr(C5,1/2)", lambda: weighted_ramsey(half_c5, 8)),
        ("r(P6)", lambda: ramsey_number(gen.path(6), 8)),
        ("r(K1,4)", lambda: ramsey_number(gen.complete_multipartite([1, 4]), 8)),
        ("r(C5)", lambda: ramsey_number(gen.cycle(5), 8)),
        ("r(K2,3)", lambda: ramsey_number(gen.complete_multipartite([2, 3]), 8)),
        ("sr_1/3(C4)", lambda: stable_ramsey(unit(gen.cycle(4)), Fraction(1, 3), 6)),
        ("sr_1/4(C4)", lambda: stable_ramsey(unit(gen.cycle(4)), Fraction(1, 4), 6)),
    ]


def test_pinned_witness_colorings():
    # status, value and witness coloring of the benchmark's oracle queries,
    # as the coloring search finds them visiting edges in colex order
    lines = []
    for label, query in _benchmark_queries():
        r = query()
        c = r.witness_coloring
        lines.append(
            f"{label} {r.status} {r.value} {r.witness_n} "
            f"{c.host.adj if c else None} {c.red_adj if c else None}"
        )
    assert lines[0] == "r(K3) value 6 5 [30, 29, 27, 23, 15] [6, 9, 17, 18, 12]"
    assert lines[3].startswith("r(P6) value 8 7 ")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "a2ca227818071c0e6d1ecde984177a78664d7ef5badb1ca967370236cc533ce9"


@pytest.mark.parametrize(
    "gw,plans",
    [
        (WeightedGraph.unit(gen.cycle(6)), 1),
        (WeightedGraph.unit(gen.complete_multipartite([2, 3])), 2),
        (WeightedGraph.unit(gen.complete_multipartite([1, 7])), 2),
        (WeightedGraph.unit(gen.path(6)), 5),
        (WeightedGraph.unit(gen.path(3)), 2),
        # the weights break the reflection of P3
        (WeightedGraph(gen.path(3), (Fraction(1), Fraction(1, 2), Fraction(1, 3))), 4),
        (WeightedGraph.unit(Graph(3)), 0),
    ],
)
def test_one_rooted_plan_per_arc_orbit(gw, plans):
    assert len(oracles._arc_roots(gw)) == plans
    assert len(oracles._Copies(gw).plans) == plans


def test_arc_orbits_fall_back_to_every_arc(monkeypatch):
    monkeypatch.setattr(morphisms, "DEFAULT_BUDGET", 1)
    assert len(oracles._arc_roots(WeightedGraph.unit(gen.cycle(6)))) == 12


def test_oracles_are_inconclusive_when_a_copy_search_runs_out(monkeypatch):
    unit_c4 = WeightedGraph.unit(gen.cycle(4))
    half_c5 = WeightedGraph.uniform(gen.cycle(5), Fraction(1, 2))
    copies = oracles._Copies(unit_c4)
    monkeypatch.setattr(morphisms, "DEFAULT_BUDGET", 1)
    with pytest.raises(BudgetExhausted):
        copies.through(list(gen.complete(6).adj), 0, 1)
    for r, gw in [
        (ramsey_number(gen.cycle(4), 6), unit_c4),
        (weighted_ramsey(half_c5, 6), half_c5),
        (stable_ramsey(unit_c4, Fraction(1, 4), 5), unit_c4),
    ]:
        assert (r.status, r.value) == (INCONCLUSIVE, None)
        assert witness_verified(r, gw)


def test_coloring_budget_gives_inconclusive_never_a_value(monkeypatch):
    # every budget either reaches the full answer or stops with no value and
    # the witness of the largest n decided; the stable query is also cut
    # inside its multipartite scan, after its witness on 6 vertices
    unit_c4 = WeightedGraph.unit(gen.cycle(4))
    queries = [
        (lambda: ramsey_number(gen.cycle(4), 7), (VALUE, 6, 5)),
        (lambda: stable_ramsey(unit_c4, Fraction(1, 3), 6), (INFINITE_SUSPECTED, None, 6)),
    ]
    for query, full in queries:
        outcomes = []
        for budget in range(0, 1000, 3):
            monkeypatch.setattr(oracles, "COLORING_BUDGET", budget)
            r = query()
            assert witness_verified(r, unit_c4)
            outcomes.append((r.status, r.value, r.witness_n))
        cut = [o for o in outcomes if o[0] == INCONCLUSIVE]
        assert outcomes == cut + [full] * (len(outcomes) - len(cut))
        assert cut[0] == (INCONCLUSIVE, None, 1)
        assert {n for _, _, n in cut} == set(range(1, full[2] + 1))
