from __future__ import annotations

import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from ramsey_forge import generators as gen
from ramsey_forge.graphs import Graph, pair_density
from ramsey_forge.regularity import (
    CERTIFIED,
    MODE_EXHAUSTIVE,
    MODE_SAMPLED,
    UNREFUTED,
    VIOLATED,
    Partition,
    RegularityParams,
    fixed_k_partition,
    regularity_check,
    split_by_density,
)
from regularity_reference import regularity_check_all_subsets


def regular_pairs(g: Graph, partition: Partition, params: RegularityParams):
    """The class pairs (i < j) of the given partition that regularity_check
    certifies: the edges of its reduced graph."""
    classes = [sorted(c) for c in partition.classes]
    return [
        (i, j)
        for i, j in itertools.combinations(range(partition.k), 2)
        if regularity_check(g, classes[i], classes[j], params).treated_regular
    ]


def bipartite_pair(nx_, ny, edges):
    g = Graph(nx_ + ny, [(u, nx_ + v) for u, v in edges])
    return g, list(range(nx_)), list(range(nx_, nx_ + ny))


def test_params_validation():
    with pytest.raises(ValueError):
        RegularityParams(Fraction(0))
    RegularityParams(Fraction(1, 4))


def test_partition_validation():
    Partition(5, frozenset([4]), (frozenset([0, 1]), frozenset([2, 3])))
    with pytest.raises(ValueError):
        Partition(4, frozenset(), (frozenset([0, 1]), frozenset([2])))  # unequal
    with pytest.raises(ValueError):
        Partition(4, frozenset([0]), (frozenset([0, 1]), frozenset([2, 3])))  # overlap
    with pytest.raises(ValueError):
        Partition(5, frozenset(), (frozenset([0, 1]), frozenset([2, 3])))  # not covering
    with pytest.raises(ValueError):  # k = 1 checks no pair, so the mode is checked up front
        fixed_k_partition(gen.complete(6), 1, RegularityParams(Fraction(1, 4)), mode="bogus")


def test_complete_and_empty_pairs_certified():
    g, xs, ys = bipartite_pair(5, 5, [(u, v) for u in range(5) for v in range(5)])
    for eps in (Fraction(1, 4), Fraction(1, 2), Fraction(9, 10)):
        assert regularity_check(g, xs, ys, RegularityParams(eps)).status == CERTIFIED
    empty, xs, ys = bipartite_pair(5, 5, [])
    assert regularity_check(empty, xs, ys, RegularityParams(Fraction(1, 4))).status == CERTIFIED


def test_planted_block_refuted():
    # 8x8 empty pair with a complete 4x4 block planted: d = 1 vs d0 = 1/4
    edges = [(u, v) for u in range(4) for v in range(4)]
    g, xs, ys = bipartite_pair(8, 8, edges)
    params = RegularityParams(Fraction(1, 4))
    verdict = regularity_check(g, xs, ys, params)
    assert verdict.status == VIOLATED
    # the witness re-checks by density arithmetic
    d0 = pair_density(g, xs, ys)
    d = pair_density(g, sorted(verdict.witness_x), sorted(verdict.witness_y))
    assert abs(d - d0) > Fraction(1, 4)
    assert len(verdict.witness_x) >= Fraction(1, 4) * 8
    assert len(verdict.witness_y) >= Fraction(1, 4) * 8


def test_symmetry():
    rng = random.Random(0)
    edges = [(u, v) for u in range(6) for v in range(6) if rng.random() < 0.4]
    g, xs, ys = bipartite_pair(6, 6, edges)
    params = RegularityParams(Fraction(1, 4))
    a = regularity_check(g, xs, ys, params)
    b = regularity_check(g, ys, xs, params)
    assert a.status == b.status


def test_exhaustive_matches_all_subsets_reference():
    rng = random.Random(42)
    for trial in range(30):
        nx_, ny = rng.randint(3, 8), rng.randint(3, 8)
        edges = [
            (u, v) for u in range(nx_) for v in range(ny) if rng.random() < rng.random()
        ]
        g, xs, ys = bipartite_pair(nx_, ny, edges)
        for eps in (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)):
            p = RegularityParams(eps)
            fast = regularity_check(g, xs, ys, p)
            ref = regularity_check_all_subsets(g, xs, ys, p)
            assert fast.status == ref.status, (trial, eps)


def _verdict_batch(mode: str, count: int = 300, seed: int = 2024) -> list[tuple]:
    """Seeded random pairs (sides 1-12, interleaved labels, edges inside the
    sides too) under every eps in {1/4, 1/3, 1/2, 2/3, 3/4} and budgets 0-30."""
    rng = random.Random(seed)
    epses = [Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(3, 4)]
    out = []
    for _ in range(count):
        nx_, ny = rng.randint(1, 12), rng.randint(1, 12)
        n = nx_ + ny + rng.randint(0, 3)
        p = rng.random()
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        order = list(range(n))
        rng.shuffle(order)
        xs, ys = order[:nx_], order[nx_ : nx_ + ny]
        eps = rng.choice(epses)
        budget = rng.randint(0, 30)
        vseed = rng.randrange(1000)
        v = regularity_check(Graph(n, edges), xs, ys, RegularityParams(eps), mode, budget, vseed)
        out.append((v.status, sorted(v.witness_x or ()), sorted(v.witness_y or ()), v.samples_tried))
    return out


# the exhaustive half was captured from the Fraction-per-subpair checkers,
# before the integer gap rule; the sampled half was re-captured once its swap
# search kept improving swaps (17 of its 300 witnesses moved, and 3 verdicts
# went from unrefuted to violated)
PINNED_BATCH = {
    MODE_EXHAUSTIVE: (
        "cbc88a7b4b2a601f5d56f4f4d2b4092a4159ac9fef93062d139ca13f5aa9a0ca",
        {1: (VIOLATED, [1, 11], [0, 8, 9], 0), 2: (CERTIFIED, [], [], 0)},
    ),
    MODE_SAMPLED: (
        "8f0f9542a63e6794ebe62d634b12b979500e7bf2093f633e2ffc0e021c5634b9",
        {
            0: (UNREFUTED, [], [], 6),
            1: (VIOLATED, [3, 10], [0, 4, 9], 19),
            3: (UNREFUTED, [], [], 26),
        },
    ),
}


@pytest.mark.parametrize("mode", [MODE_EXHAUSTIVE, MODE_SAMPLED])
def test_pinned_verdict_batch(mode):
    batch = _verdict_batch(mode)
    digest, cases = PINNED_BATCH[mode]
    for i, expected in cases.items():
        assert batch[i] == expected, i
    assert hashlib.sha256(repr(batch).encode()).hexdigest() == digest


def test_violated_witnesses_really_violate():
    # every witness, from either checker, is rechecked here by Fraction densities
    rng = random.Random(7)
    for trial in range(300):
        nx_, ny = rng.randint(2, 12), rng.randint(2, 12)
        p = rng.random()
        edges = [(u, v) for u in range(nx_) for v in range(ny) if rng.random() < p]
        g, xs, ys = bipartite_pair(nx_, ny, edges)
        eps = rng.choice([Fraction(1, 4), Fraction(1, 3), Fraction(1, 2)])
        d0 = pair_density(g, xs, ys)
        for mode in (MODE_EXHAUSTIVE, MODE_SAMPLED):
            v = regularity_check(g, xs, ys, RegularityParams(eps), mode, budget=5, seed=trial)
            if v.status != VIOLATED:
                continue
            assert v.witness_x <= set(xs) and v.witness_y <= set(ys), (trial, mode)
            assert len(v.witness_x) >= eps * nx_ and len(v.witness_y) >= eps * ny, (trial, mode)
            d = pair_density(g, v.witness_x, v.witness_y)
            assert abs(d - d0) > eps, (trial, mode)


def test_deviation_exactly_eps_is_regular():
    # sides of 4, X vertices 0 and 1 joined to all of Y: d0 = 1/2, and every
    # 2x2 subpair has density 0, 1/2 or 1, so it deviates by at most 1/2
    g, xs, ys = bipartite_pair(4, 4, [(u, v) for u in range(2) for v in range(4)])
    half, third = RegularityParams(Fraction(1, 2)), RegularityParams(Fraction(1, 3))
    assert regularity_check(g, xs, ys, half).status == CERTIFIED
    assert regularity_check_all_subsets(g, xs, ys, half).status == CERTIFIED
    assert regularity_check(g, xs, ys, half, MODE_SAMPLED, budget=30).status == UNREFUTED
    assert regularity_check(g, xs, ys, third).status == VIOLATED
    assert regularity_check_all_subsets(g, xs, ys, third).status == VIOLATED


def test_exhaustive_size_cap():
    g, xs, ys = bipartite_pair(17, 4, [])
    with pytest.raises(ValueError):
        regularity_check(g, xs, ys, RegularityParams(Fraction(1, 4)))


def test_sampled_never_certifies():
    g, xs, ys = bipartite_pair(6, 6, [(u, v) for u in range(6) for v in range(6)])
    verdict = regularity_check(
        g, xs, ys, RegularityParams(Fraction(1, 4)), mode=MODE_SAMPLED, seed=1
    )
    assert verdict.status == UNREFUTED  # complete pair: cannot be violated
    # planted block gets refuted by sampling + local search
    edges = [(u, v) for u in range(4) for v in range(4)]
    g2, xs2, ys2 = bipartite_pair(8, 8, edges)
    verdict = regularity_check(
        g2, xs2, ys2, RegularityParams(Fraction(1, 4)), mode=MODE_SAMPLED, seed=1
    )
    assert verdict.status == VIOLATED


def test_reduced_graph_of_blowup_contains_base():
    base = gen.cycle(4)
    spec = gen.BlowupSpec(base, (4, 4, 4, 4))
    host, _ = gen.blowup(spec)
    partition = Partition(host.n, frozenset(), tuple(gen.blowup_parts(spec)))
    params = RegularityParams(Fraction(1, 4))
    pairs = regular_pairs(host, partition, params)
    r = split_by_density(host, partition, pairs, Fraction(1, 2))[0]
    for u, v in base.edges():
        assert r.has_edge(u, v)


def test_reduced_graph_edgeless():
    g = Graph(8)
    partition = Partition(8, frozenset(), (frozenset(range(4)), frozenset(range(4, 8))))
    params = RegularityParams(Fraction(1, 4))
    pairs = regular_pairs(g, partition, params)
    assert len(pairs) == 1  # density-0 regular
    assert split_by_density(g, partition, pairs, Fraction(1, 2))[0].edge_count() == 0


def test_fixed_k_partition_structure():
    g = gen.complete(11)
    partition, report = fixed_k_partition(g, 3, RegularityParams(Fraction(1, 4)), seed=5)
    assert partition.k == 3
    assert len(partition.exceptional) == 2  # 11 mod 3
    sizes = {len(c) for c in partition.classes}
    assert sizes == {3}
    # K_n: all pairs regular
    assert report.total_irregular_pairs == 0
    assert report.all_classes_ok


def test_fixed_k_partition_determinism_and_retries():
    g = gen.random_bounded_degree_graph(16, 5, seed=9)
    params = RegularityParams(Fraction(1, 4))
    a = fixed_k_partition(g, 4, params, seed=2, retries=2)
    b = fixed_k_partition(g, 4, params, seed=2, retries=2)
    assert a[0] == b[0]
    assert a[1] == b[1]
    with pytest.raises(ValueError):
        fixed_k_partition(g, 0, params)
    with pytest.raises(ValueError):
        fixed_k_partition(g, 4, params, retries=-1)
