"""Acceptance gate: ten pinned criteria, one test and one report line each.

Every test prints a single "criterion N: PASS" line on success; a failure
shows up as the usual pytest assertion with the offending instance.  Time
limits are asserted with wall-clock measurements on one core.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
import time
from fractions import Fraction

import networkx as nx
import pytest

from ramsey_forge import generators as gen
from ramsey_forge.bandwidth import heuristic_labeling
from ramsey_forge.dense import lovasz_partition
from ramsey_forge.drc import (
    DegenerateBudget,
    default_bandwidth_beta,
    drc_bandwidth_embed,
    drc_properties,
    drc_select,
)
from ramsey_forge.graphs import (
    EdgeColoring,
    Graph,
    WeightedGraph,
    induced,
    mask_of,
)
from ramsey_forge.harness import ExperimentConfig, render_csv, run_experiment
from ramsey_forge.morphisms import VertexMap, verify_homomorphism
from ramsey_forge.oracles import (
    VALUE,
    mono_copy_search,
    ramsey_number,
    stable_ramsey,
    weighted_ramsey,
)
from ramsey_forge.regularity import (
    CERTIFIED,
    VIOLATED,
    Partition,
    RegularityParams,
    regularity_check,
)
from ramsey_forge.rga import RgaParams, rga_blowup_embed
from oracle_reference import reference
from regularity_reference import regularity_check_all_subsets


def report(num: int, detail: str) -> None:
    print(f"criterion {num}: PASS ({detail})")


def atlas_graphs(max_order: int) -> list[Graph]:
    out = []
    for ag in nx.graph_atlas_g():
        n = ag.number_of_nodes()
        if 1 <= n <= max_order:
            relabel = {v: i for i, v in enumerate(sorted(ag.nodes()))}
            out.append(Graph(n, [(relabel[u], relabel[v]) for u, v in ag.edges()]))
    return out


def test_criterion_01_oracle_exactness():
    start = time.monotonic()
    cases = [
        (gen.complete(3), 6, 6),
        (gen.path(3), 4, 3),
        (gen.cycle(4), 7, 6),
    ]
    for target, n_max, expect in cases:
        t0 = time.monotonic()
        pruned = ramsey_number(target, n_max)
        naive = reference(ramsey_number, target, n_max)
        assert pruned.status == naive.status == VALUE
        assert pruned.value == naive.value == expect
        assert time.monotonic() - t0 < 60
    # the K_3 run must carry the pentagon as its n=5 witness
    k3 = ramsey_number(gen.complete(3), 6)
    assert k3.witness_n == 5
    wc = k3.witness_coloring
    assert wc is not None
    red, blue = wc.red_graph, wc.blue_graph
    for side in (red, blue):
        assert all(side.degree(v) == 2 for v in range(5))
        assert nx.is_connected(nx.Graph(side.edges()))
    assert mono_copy_search(wc, WeightedGraph.unit(gen.complete(3))) is None
    report(1, f"r(K3)=6 pentagon witness, r(P3)=3, r(C4)=6 in {time.monotonic() - start:.1f}s")


def test_criterion_02_weighted_degeneration():
    start = time.monotonic()
    targets = atlas_graphs(5)
    assert len(targets) == 52
    checked = 0
    for g in targets:
        plain = ramsey_number(g, 6)
        if plain.status != VALUE:
            continue
        weighted = weighted_ramsey(WeightedGraph.unit(g), 6)
        assert weighted.status == VALUE
        assert weighted.value == plain.value, g
        checked += 1
    elapsed = time.monotonic() - start
    assert checked >= 20  # most small graphs have r <= 6
    assert elapsed < 600
    report(2, f"{checked} targets with r<=6 agree, {elapsed:.1f}s")


def test_criterion_03_stable_identities():
    k2 = WeightedGraph.unit(gen.complete(2))
    for eps in (Fraction(1, 10), Fraction(1, 4), Fraction(1, 3), Fraction(49, 100)):
        res = stable_ramsey(k2, eps, 4)
        assert res.status == VALUE and res.value == 2, eps
    matched = 0
    for g in atlas_graphs(5):
        weighted = weighted_ramsey(WeightedGraph.unit(g), 6)
        if weighted.status != VALUE or weighted.value < 2:
            continue
        eps = Fraction(1, 2 * (weighted.value - 1))  # strictly below 1/(r-1)
        stable = stable_ramsey(WeightedGraph.unit(g), eps, 6)
        assert stable.status == VALUE
        assert stable.value == weighted.value, g
        matched += 1
    assert matched >= 20
    report(3, f"sr(K2)=2 for 4 eps values; sr=wr on {matched} small targets")


def test_criterion_04_mono_copy_completeness():
    start = time.monotonic()
    host = gen.complete(6)
    k3 = WeightedGraph.unit(gen.complete(3))
    edges = host.edges()
    assert len(edges) == 15
    for mask in range(1 << 15):
        red_adj = [0] * 6
        m = mask
        for u, v in edges:
            if m & 1:
                red_adj[u] |= 1 << v
                red_adj[v] |= 1 << u
            m >>= 1
        coloring = EdgeColoring.from_red_adj(host, red_adj)
        assert mono_copy_search(coloring, k3) is not None, mask
    elapsed = time.monotonic() - start
    assert elapsed < 300
    report(4, f"all 32768 colorings of K6 contain mono K3, {elapsed:.1f}s")


def compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in compositions(total - head, parts - 1):
            yield (head,) + rest


def test_criterion_05_lovasz_partition():
    rng = random.Random(2024)
    runs = 0
    for trial in range(500):
        n = rng.randint(1, 40)
        g = gen.random_bounded_degree_graph(n, rng.randint(0, 6), seed=trial)
        delta = g.max_degree()
        for s in (1, 2, 3):
            total = delta - s + 1
            if total < 0:
                continue
            for degrees in compositions(total, s):
                classes = lovasz_partition(g, degrees)
                for cls, d in zip(classes, degrees):
                    assert induced(g, cls).max_degree() <= d, (trial, degrees)
                runs += 1
    report(5, f"{runs} splits over 500 graphs, zero degree-bound violations")


def random_bipartite_pair(rng: random.Random, nx_size: int, ny_size: int):
    n = nx_size + ny_size
    xs = list(range(nx_size))
    ys = list(range(nx_size, n))
    edges = [
        (u, v) for u in xs for v in ys if rng.random() < rng.choice((0.2, 0.5, 0.8))
    ]
    return Graph(n, edges), xs, ys


def test_criterion_06_regularity_cross_check():
    rng = random.Random(7)
    agreements = 0
    for trial in range(200):
        hi = 12 if trial < 4 else 9
        g, xs, ys = random_bipartite_pair(rng, rng.randint(3, hi), rng.randint(3, hi))
        for eps in (Fraction(1, 4), Fraction(1, 2)):
            params = RegularityParams(eps)
            fast = regularity_check(g, xs, ys, params)
            slow = regularity_check_all_subsets(g, xs, ys, params)
            assert fast.status == slow.status, (trial, eps)
            agreements += 1
    # planted irregular block: complete pair with an emptied quarter
    g = gen.complete_multipartite([8, 8])
    adj = list(g.adj)
    for u in range(4):
        for v in range(8, 12):
            adj[u] &= ~(1 << v)
            adj[v] &= ~(1 << u)
    planted = Graph.from_adj(adj)
    for eps in (Fraction(1, 4), Fraction(1, 2)):
        params = RegularityParams(eps)
        verdict = regularity_check(planted, range(8), range(8, 16), params)
        assert verdict.status == VIOLATED, eps
    # complete and empty pairs certify at any eps
    for pair_graph in (gen.complete_multipartite([6, 6]), Graph(12)):
        for eps in (Fraction(1, 4), Fraction(1, 2)):
            params = RegularityParams(eps)
            assert regularity_check(pair_graph, range(6), range(6, 12), params).status == CERTIFIED
    report(6, f"{agreements} fast/reference agreements; planted refuted; trivial certified")


def disjoint_cycles(count: int, length: int) -> Graph:
    edges = []
    for c in range(count):
        base = c * length
        for i in range(length):
            edges.append((base + i, base + (i + 1) % length))
    return Graph(count * length, edges)


def dense_blowup(base: Graph, part_size: int, density: Fraction, seed: int):
    rng = random.Random(seed)
    n = base.n * part_size
    edges = []
    for bu, bv in base.edges():
        for i in range(part_size):
            for j in range(part_size):
                if Fraction(rng.random()) < density:
                    edges.append((bu * part_size + i, bv * part_size + j))
    parts = tuple(
        frozenset(range(c * part_size, (c + 1) * part_size)) for c in range(base.n)
    )
    return Graph(n, edges), Partition(n, frozenset(), parts)


def rga_instance(base: Graph, part_size: int, density: Fraction, seed: int, fill: Fraction):
    host, partition = dense_blowup(base, part_size, density, seed)
    length = base.n if base.n >= 3 else 4
    budget = int(fill * base.n * part_size)
    cycles = max(1, budget // length)
    g = disjoint_cycles(cycles, length)
    if base.n == 2:
        f = VertexMap(g.n, 2, tuple(v % 2 for v in range(g.n)))
    else:
        f = VertexMap(g.n, base.n, tuple(v % base.n for v in range(g.n)))
    return host, partition, g, f


def test_criterion_07_rga_soundness_and_liveness():
    bases = [gen.complete(2), gen.cycle(3), gen.cycle(4)]
    params = RgaParams(delta=Fraction(1, 2), xi=Fraction(1, 4))
    # soundness: 1000 fuzzed instances, every Some re-verified
    rng = random.Random(41)
    positives = 0
    for trial in range(1000):
        base = rng.choice(bases)
        host, partition, g, f = rga_instance(
            base,
            rng.randint(5, 8),
            Fraction(rng.randint(4, 10), 10),
            trial,
            Fraction(rng.randint(1, 6), 10),
        )
        try:
            vmap = rga_blowup_embed(host, partition, base, g, f, params, seed=trial, retries=2)
        except ValueError:
            continue
        if vmap is not None:
            positives += 1
            assert vmap.is_injective()
            assert verify_homomorphism(g, host, vmap).valid
            for y in range(g.n):
                assert vmap(y) in partition.classes[f(y)]
    assert positives >= 200
    # liveness: dense blow-ups, |G| <= (2/3) sum |V_i|, 20 retries, >= 95% of 200
    successes = 0
    for trial in range(200):
        base = bases[trial % 3]
        host, partition, g, f = rga_instance(
            base,
            12 + trial % 4,
            Fraction(3, 4) + Fraction(trial % 3, 12),
            10_000 + trial,
            Fraction(2, 3),
        )
        assert g.n <= Fraction(2, 3) * host.n
        vmap = rga_blowup_embed(host, partition, base, g, f, params, seed=trial, retries=20)
        if vmap is not None:
            successes += 1
            assert verify_homomorphism(g, host, vmap).valid
    assert successes >= 190, successes
    report(7, f"{positives} sound positives of 1000 fuzzed; liveness {successes}/200")


def test_criterion_08_drc_selection():
    alpha, beta = Fraction(3, 4), Fraction(1, 64)
    ok = 0
    for seed in range(100):
        host = gen.random_min_degree_host(64, Fraction(1, 4), seed)
        sel = drc_select(host, range(64), 2, beta, seed=seed, alpha=alpha)
        assert sel.mode == "exhaustive"
        props = drc_properties(host, (1 << 64) - 1, mask_of(sel.x), 2, alpha, beta)
        ok += all(props)
    assert ok >= 95, ok
    # exactness on complete hosts: X is the full neighborhood of the chosen tuple
    for seed in range(10):
        g = gen.complete(16)
        sel = drc_select(g, range(16), 2, Fraction(1, 8), seed=seed, alpha=Fraction(1, 2))
        assert sel.size == 15 and sel.bad_tuples == 0
        common = (1 << 16) - 1
        for v in sel.chosen_tuple:
            common &= g.adj[v]
        assert mask_of(sel.x) == common
    report(8, f"{ok}/100 min-degree hosts satisfy all three properties; K_n exact")


def ladder(rungs: int) -> Graph:
    edges = []
    for i in range(rungs - 1):
        edges.append((2 * i, 2 * i + 2))
        edges.append((2 * i + 1, 2 * i + 3))
    for i in range(rungs):
        edges.append((2 * i, 2 * i + 1))
    return Graph(2 * rungs, edges)


def test_criterion_09_bandwidth_regime():
    alpha, max_deg, n = Fraction(1, 2), 3, 128
    beta = default_bandwidth_beta(alpha, max_deg)
    assert beta == Fraction(1, 402653184)  # alpha^(6*Delta+1) / (256*Delta)
    assert int(beta * n) == 0  # degenerate bandwidth budget at this scale
    h = ladder(16)
    assert h.n <= n // 4
    labels, width = heuristic_labeling(h)
    host = gen.complete(n)
    with pytest.raises(DegenerateBudget):
        drc_bandwidth_embed(host, h, labels, alpha, max_deg=max_deg)
    # override run: beta = 1/16 gives budget 8 >= labeling width
    assert width <= 8
    verified = 0
    for seed in range(50):
        vmap = drc_bandwidth_embed(
            host, h, labels, alpha, seed=seed, max_deg=max_deg, beta=Fraction(1, 16)
        )
        if vmap is not None and vmap.is_injective():
            if verify_homomorphism(h, host, vmap).valid:
                verified += 1
    assert verified >= 45, verified
    report(9, f"degenerate budget detected; override verified {verified}/50")


def test_criterion_10_determinism():
    cfg = ExperimentConfig(
        task="wheel",
        instances=(
            {"host": {"kind": "complete", "params": [10]}, "k": 4},
            {"host": {"kind": "complete", "params": [12]}, "k": 5},
        ),
        seeds=(0, 1, 2, 3, 4),
    )
    one = render_csv(cfg, run_experiment(cfg)[0])
    cfg4 = dataclasses.replace(cfg, workers=4)
    four = render_csv(cfg4, run_experiment(cfg4)[0])
    rerun = render_csv(cfg4, run_experiment(cfg4)[0])
    assert one == four == rerun
    report(10, "CSV byte-identical for 1 vs 4 workers and across reruns")
