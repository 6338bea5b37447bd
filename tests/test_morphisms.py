from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction
from typing import Sequence

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramsey_forge import generators as gen
from ramsey_forge import morphisms
from ramsey_forge.graphs import Graph, WeightedGraph
from ramsey_forge.morphisms import (
    BudgetExhausted,
    CapacityProfile,
    SearchPlan,
    VertexMap,
    compile_plan,
    compose,
    find_capacity_homomorphism,
    find_weighted_embedding,
    integer_units,
    run_plan,
    verify_capacity,
    verify_homomorphism,
)
from ramsey_forge.oracles import plain_embeds


def enumerate_all_maps_has_capacity_hom(
    g: Graph, h: Graph, profile: CapacityProfile
) -> bool:
    """Naive |V(h)|^|V(g)| enumeration; independent oracle for small cases."""
    for image in itertools.product(range(h.n), repeat=g.n):
        f = VertexMap(g.n, h.n, image)
        if verify_homomorphism(g, h, f).valid and verify_capacity(f, profile).valid:
            return True
    return False


def to_nx(g: Graph) -> nx.Graph:
    ng = nx.Graph()
    ng.add_nodes_from(range(g.n))
    ng.add_edges_from(g.edges())
    return ng


def test_vertex_map_validation():
    f = VertexMap(3, 2, (0, 1, 1))
    assert f(2) == 1
    assert f.preimage(1) == (1, 2)
    assert not f.is_injective()
    assert VertexMap(3, 3, (0, 1, 2)).is_injective()
    with pytest.raises(ValueError):
        VertexMap(3, 2, (0, 1))
    with pytest.raises(ValueError):
        VertexMap(2, 2, (0, 2))


def test_compose():
    f = VertexMap(2, 3, (1, 2))
    g = VertexMap(3, 2, (0, 0, 1))
    assert compose(f, g).image == (0, 1)
    with pytest.raises(ValueError):
        compose(VertexMap(2, 2, (0, 1)), VertexMap(3, 3, (0, 1, 2)))


def test_verify_homomorphism():
    c4 = gen.cycle(4)
    k2 = gen.complete(2)
    good = VertexMap(4, 2, (0, 1, 0, 1))
    bad = VertexMap(4, 2, (0, 0, 1, 1))
    assert verify_homomorphism(c4, k2, good).valid
    verdict = verify_homomorphism(c4, k2, bad)
    assert not verdict.valid
    assert (0, 1) in verdict.violations


def test_capacity_profiles():
    with pytest.raises(ValueError):
        CapacityProfile()
    with pytest.raises(ValueError):
        CapacityProfile(count_caps=(1,), weights=(Fraction(1),))
    f = VertexMap(3, 2, (0, 0, 1))
    assert not verify_capacity(f, CapacityProfile.uniform_count_cap(2, 1)).valid
    assert verify_capacity(f, CapacityProfile.uniform_count_cap(2, 2)).valid
    w = CapacityProfile.weight_cap([Fraction(1, 2)] * 3)
    assert verify_capacity(f, w).valid


def test_find_capacity_homomorphism_simple():
    c4 = gen.cycle(4)
    k2 = gen.complete(2)
    out = find_capacity_homomorphism(c4, k2, CapacityProfile.uniform_count_cap(2, 2))
    assert out.vmap is not None
    assert verify_homomorphism(c4, k2, out.vmap).valid
    # cap 1 cannot host 4 vertices on 2 targets
    out = find_capacity_homomorphism(c4, k2, CapacityProfile.uniform_count_cap(2, 1))
    assert out.vmap is None
    # odd cycle into K_2 impossible regardless of caps
    out = find_capacity_homomorphism(gen.cycle(5), k2, CapacityProfile.uniform_count_cap(2, 5))
    assert out.vmap is None


def test_budget_exhaustion():
    # an exhausted search raises; it never reads as a nonexistence certificate
    g = gen.complete(5)
    with pytest.raises(BudgetExhausted):
        find_capacity_homomorphism(
            g, gen.complete(4), CapacityProfile.uniform_count_cap(4, 5), budget=2
        )


@st.composite
def hom_instance(draw):
    gn = draw(st.integers(1, 4))
    hn = draw(st.integers(1, 3))
    gpairs = [(u, v) for u in range(gn) for v in range(u + 1, gn)]
    hpairs = [(u, v) for u in range(hn) for v in range(u + 1, hn)]
    g = Graph(gn, draw(st.lists(st.sampled_from(gpairs), unique=True)) if gpairs else [])
    h = Graph(hn, draw(st.lists(st.sampled_from(hpairs), unique=True)) if hpairs else [])
    cap = draw(st.integers(1, 4))
    return g, h, cap


@settings(max_examples=60, deadline=None)
@given(hom_instance())
def test_search_matches_naive_enumeration(inst):
    g, h, cap = inst
    profile = CapacityProfile.uniform_count_cap(h.n, cap)
    out = find_capacity_homomorphism(g, h, profile)
    naive = enumerate_all_maps_has_capacity_hom(g, h, profile)
    assert (out.vmap is not None) == naive
    if out.vmap is not None:
        assert verify_homomorphism(g, h, out.vmap).valid
        assert verify_capacity(out.vmap, profile).valid


@settings(max_examples=40, deadline=None)
@given(hom_instance())
def test_unit_weight_embedding_matches_networkx(inst):
    g, h, _ = inst
    gw = WeightedGraph.unit(g)
    matcher = nx.algorithms.isomorphism.GraphMatcher(to_nx(h), to_nx(g))
    theirs = (
        next(matcher.subgraph_monomorphisms_iter(), None) is not None
        if g.n <= h.n
        else False
    )
    assert (find_weighted_embedding(gw, h) is not None) == theirs
    assert plain_embeds(g, h) == theirs


@settings(max_examples=60, deadline=None)
@given(hom_instance(), st.data())
def test_weighted_embedding_matches_naive_enumeration(inst, data):
    g, h, _ = inst
    choices = [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1)]
    weights = tuple(data.draw(st.lists(st.sampled_from(choices), min_size=g.n, max_size=g.n)))
    gw = WeightedGraph(g, weights)
    profile = CapacityProfile.weight_cap(weights)
    vmap = find_weighted_embedding(gw, h)
    assert (vmap is not None) == enumerate_all_maps_has_capacity_hom(g, h, profile)
    if vmap is not None:
        assert verify_homomorphism(g, h, vmap).valid
        assert verify_capacity(vmap, profile).valid


def test_found_images_are_pinned():
    # images the search returned before the searches shared one core; the
    # pipeline lifts and the CLI prints them, so they must not move
    cube = gen.hypercube(3)
    out = find_capacity_homomorphism(gen.cycle(6), cube, CapacityProfile.uniform_count_cap(8, 1))
    assert out.vmap.image == (0, 1, 3, 2, 6, 4)
    out = find_capacity_homomorphism(
        gen.cycle(6), gen.complete(3), CapacityProfile.uniform_count_cap(3, 2)
    )
    assert out.vmap.image == (0, 1, 0, 2, 1, 2)
    out = find_capacity_homomorphism(
        gen.path_power(6, 2), gen.complete(4), CapacityProfile.uniform_count_cap(4, 2)
    )
    assert out.vmap.image == (1, 2, 0, 1, 2, 0)
    gw = WeightedGraph.uniform(gen.cycle(4), Fraction(1, 2))
    assert find_weighted_embedding(gw, gen.complete(2)).image == (0, 1, 0, 1)
    # plans longer than one generated kernel function
    out = find_capacity_homomorphism(
        gen.cycle(24), gen.hypercube(5), CapacityProfile.uniform_count_cap(32, 1)
    )
    assert out.vmap.image == (
        0, 1, 3, 2, 6, 4, 5, 7, 15, 11, 9, 8, 10, 14, 12, 13, 29, 21, 17, 19, 18, 22, 20, 16
    )
    out = find_capacity_homomorphism(
        gen.path(30), gen.complete(3), CapacityProfile.uniform_count_cap(3, 10)
    )
    assert out.vmap.image == (
        2, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 2, 0, 2, 0, 2, 0, 2, 0, 2, 1, 2, 1, 2, 1, 2, 1, 2
    )


def test_pigeonhole_reject_searches_nothing():
    out = find_capacity_homomorphism(
        gen.path(5), gen.complete(4), CapacityProfile.uniform_count_cap(4, 1)
    )
    assert (out.vmap, out.nodes) == (None, 0)
    gw = WeightedGraph.uniform(gen.path(5), Fraction(1, 2))
    profile = CapacityProfile.weight_cap(gw.weights)
    out = find_capacity_homomorphism(gw.graph, gen.complete(2), profile)
    assert (out.vmap, out.nodes) == (None, 0)


def test_exhausted_budget_raises_not_none(monkeypatch):
    from ramsey_forge import morphisms

    monkeypatch.setattr(morphisms, "DEFAULT_BUDGET", 2)
    with pytest.raises(BudgetExhausted):
        plain_embeds(gen.complete(4), gen.complete(5))
    with pytest.raises(BudgetExhausted):
        find_weighted_embedding(WeightedGraph.unit(gen.complete(4)), gen.complete(5))


def test_cli_hom_prints_core_status(capsys):
    from ramsey_forge.cli import main

    def hom(*args):
        assert main(["hom", *args]) == 0
        return json.loads(capsys.readouterr().out)

    assert hom("complete:5", "complete:4", "--weights", "1/2", "--budget", "1") == {
        "status": "budget_exhausted",
    }
    assert hom("complete:5", "complete:4", "--weights", "1/2") == {"status": "none", "image": None}
    assert hom("cycle:4", "complete:2", "--weights", "1/2") == {
        "status": "found",
        "image": [0, 1, 0, 1],
    }
    assert hom("cycle:6", "complete:3", "--count-cap", "2")["image"] == [0, 1, 0, 2, 1, 2]


def test_weighted_embedding_respects_loads():
    # two adjacent unit-weight vertices cannot share one host vertex
    g = gen.complete(2)
    assert find_weighted_embedding(WeightedGraph.unit(g), gen.complete(1)) is None
    # half weights let four C_4 vertices sit on one edge
    gw = WeightedGraph.uniform(gen.cycle(4), Fraction(1, 2))
    vmap = find_weighted_embedding(gw, gen.complete(2))
    assert vmap is not None
    assert verify_capacity(vmap, CapacityProfile.weight_cap(gw.weights)).valid


def reference_run_plan(
    plan: SearchPlan,
    hadj: Sequence[int],
    room: Sequence[int],
    budget: int,
    fixed: Sequence[int] = (),
) -> tuple[list[int] | None, int]:
    """The interpreted search the generated kernels replaced: one recursive
    call per node, with the same node count, images and budget rule."""
    if plan.total > sum(room):
        return None, 0
    order, back, demand, least = plan.order, plan.back, plan.demand, plan.least
    room = list(room)
    image = [0] * len(order)
    open_ = (1 << len(room)) - 1
    if room and min(room) < least:
        open_ = sum(1 << t for t, r in enumerate(room) if r >= least)
    for i, t in enumerate(fixed):
        v = order[i]
        cand = open_
        for u in back[i]:
            cand &= hadj[image[u]]
        left = room[t] - demand[v]
        if left < 0 or not cand >> t & 1:
            return None, 0
        image[v] = t
        if left < least:
            open_ ^= 1 << t
        else:
            room[t] = left
    n = len(order)
    nodes = 0

    def extend(i: int, open_: int) -> bool:
        nonlocal nodes
        if i == n:
            return True
        nodes += 1
        if nodes > budget:
            raise BudgetExhausted
        v = order[i]
        d = demand[v]
        cand = open_
        for u in back[i]:
            cand &= hadj[image[u]]
        while cand:
            low = cand & -cand
            cand ^= low
            t = low.bit_length() - 1
            left = room[t] - d
            if left < 0:
                continue
            image[v] = t
            if left < least:
                if extend(i + 1, open_ ^ low):
                    return True
            else:
                room[t] = left
                if extend(i + 1, open_):
                    return True
                room[t] += d
        return False

    return (image if extend(len(fixed), open_) else None), nodes


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


def test_kernels_match_the_reference_search():
    # same image and node count as the reference, and out of budget exactly
    # one node short; plans of up to 40 vertices run chained kernels
    rng = random.Random(20260)
    weights = [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1)]
    cap = 3000
    for _ in range(300):
        n = rng.randint(1, 40)
        g = random_graph(rng, n, min(1.0, rng.choice([1.5, 2.5, 4.0]) / n))
        # hosts about large enough for the source, so the pigeonhole check
        # rejects only some plans and searches pass through chained kernels
        hn = rng.randint(max(1, n // 3), n // 2 + 6)
        h = random_graph(rng, hn, rng.choice([0.3, 0.6, 0.9]))
        if rng.random() < 0.5:
            profile = CapacityProfile(count_caps=tuple(rng.randint(1, 3) for _ in range(h.n)))
        else:
            profile = CapacityProfile.weight_cap([rng.choice(weights) for _ in range(n)])
        demand, room = integer_units(profile, n, h.n)
        pinned = rng.randint(0, min(2, n))
        plan = compile_plan(g, demand, rng.sample(range(n), n), pinned)
        fixed = [rng.randrange(h.n) for _ in range(pinned)]
        if rng.random() < 0.3:  # one target for both pins: often invalid
            fixed[-1:] = fixed[:1]
        try:
            image, nodes = reference_run_plan(plan, h.adj, room, cap, fixed)
        except BudgetExhausted:
            with pytest.raises(BudgetExhausted):
                run_plan(plan, h.adj, room, cap, fixed)
            continue
        assert run_plan(plan, h.adj, room, nodes, fixed) == (image, nodes)
        if nodes:
            with pytest.raises(BudgetExhausted):
                run_plan(plan, h.adj, room, nodes - 1, fixed)
        if plan.total <= sum(room):
            # called directly, a kernel returns the image in position order
            # and leaves the room list as it found it
            open_ = sum(1 << t for t, r in enumerate(room) if r >= plan.least)
            work = list(room)
            ordered = None if image is None else [image[v] for v in plan.order]
            assert plan.kernel(h.adj, work, open_, nodes, *fixed) == (ordered, nodes)
            assert work == room


def test_relabelled_plans_share_one_kernel():
    # a path 0-1-2-3-4 with a chord, and its image under a relabelling pi:
    # searched in corresponding orders, both plans have one positional shape
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 2)])
    pi = [3, 0, 4, 1, 2]
    h = Graph(5, [(pi[u], pi[v]) for u, v in g.edges()])
    demand = [7, 5, 11, 6, 9]  # demands no other test uses, so the shape is new
    order = [2, 0, 1, 3, 4]
    before = morphisms._kernel.cache_info().misses
    a = compile_plan(g, demand, order, 1)
    b = compile_plan(h, [demand[pi.index(v)] for v in range(5)], [pi[v] for v in order], 1)
    assert morphisms._kernel.cache_info().misses == before + 1
    assert a.order != b.order and a.back != b.back and a.kernel is b.kernel
    # run_plan still answers in each plan's own source order
    host = gen.complete(5)
    room = [11] * 5
    image_a, nodes_a = run_plan(a, host.adj, room, 1000, (0,))
    image_b, nodes_b = run_plan(b, host.adj, room, 1000, (0,))
    assert nodes_a == nodes_b
    assert image_b == [image_a[pi.index(v)] for v in range(5)]
    for src, plan, image in ((g, a, image_a), (h, b, image_b)):
        vmap = VertexMap(5, 5, tuple(image))
        assert verify_homomorphism(src, host, vmap).valid
        assert reference_run_plan(plan, host.adj, room, 1000, (0,)) == (image, nodes_a)
