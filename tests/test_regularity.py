from __future__ import annotations

import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from ramsey_forge import generators as gen, regularity
from ramsey_forge.graphs import Graph, pair_density, threshold_size
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
)
from ramsey_forge.rga import blowup_instance
from regularity_reference import (
    check_exhaustive_plain,
    check_sampled_rescanning,
    most_edges,
    peel_live_sets,
    peel_rules_out,
    regularity_check_all_subsets,
)


def regular_pairs(g: Graph, partition: Partition, params: RegularityParams):
    """The class pairs (i < j) of the given partition that the exhaustive
    checks treat as regular, with their densities, as its quality report
    keeps them."""
    report = regularity._quality(g, partition, params, MODE_EXHAUSTIVE, 0, 0)
    return list(zip(report.regular_pairs, report.densities))


def dense_graph(partition: Partition, pairs, delta: Fraction) -> Graph:
    """The cluster graph of the given pairs whose density is at least delta."""
    return Graph(partition.k, [pair for pair, d in pairs if d >= delta])


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
    assert verdict.density == d0
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


def spy(monkeypatch, owner, name: str) -> list[tuple]:
    """The positional arguments of every call to owner.name from here on."""
    calls: list[tuple] = []
    real = getattr(owner, name)

    def recording(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, recording)
    return calls


def _partition_batch(count: int = 150, seed: int = 2026) -> list[tuple]:
    """fixed_k_partition with retries 2 on seeded graphs of 6-40 vertices in
    2-5 classes of at most 16, each under both modes at one eps of 1/2, 1/3
    and 1/4: random graphs, and random graphs with a planted vertex set whose
    pairs are near 1 or near 0 (so classes meet it in dense or sparse blocks)."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        k = rng.randint(2, 5)
        n = rng.randint(3 * k, min(40, 16 * k))
        p = rng.random()
        q = rng.choice((p, rng.uniform(0.8, 1), rng.uniform(0, 0.2)))
        block = set(rng.sample(range(n), rng.randint(2, n)))
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < (q if u in block and v in block else p)
        ]
        g = Graph(n, edges)
        for mode in (MODE_EXHAUSTIVE, MODE_SAMPLED):
            eps = rng.choice((Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)))
            partition, report = fixed_k_partition(
                g, k, RegularityParams(eps), rng.randrange(1000), 2, mode, rng.randint(0, 40)
            )
            classes = [sorted(c) for c in partition.classes]
            out.append((mode, sorted(partition.exceptional), classes, report))
    return out


# captured before the partition checks read one neighbour-count table per attempt
PINNED_PARTITIONS = "da21b80d33b6bcd74e6f4da30e86b4f0b97252a63a2ee26ac4934df493b4a3f7"


def test_pinned_partition_batch(monkeypatch):
    # the partitions and reports, densities included, of a seeded batch;
    # the batch reaches every branch of the checks: a root peel that drops
    # vertices after its first round, a scan that opens prefixes, and
    # violated pairs in both modes
    real_scan = regularity._scan
    peels = spy(monkeypatch, regularity, "_ruled_out")
    scans = spy(monkeypatch, regularity, "_scan")
    batch = _partition_batch()
    assert hashlib.sha256(repr(batch).encode()).hexdigest() == PINNED_PARTITIONS
    for mode in (MODE_EXHAUSTIVE, MODE_SAMPLED):
        assert sum(r.total_irregular_pairs for m, *_, r in batch if m == mode) >= 200, mode

    def later_rounds_drop(g, xs, ys, degs, m_x, m_y, need, flip):
        first = peel_live_sets(g, xs, ys, m_x, m_y, need, flip == -1, rounds=1)
        return (len(first[0]), len(first[1])) >= (m_x, m_y) and first != peel_live_sets(
            g, xs, ys, m_x, m_y, need, flip == -1
        )

    assert sum(later_rounds_drop(*args) for args in peels) >= 40
    assert sum(real_scan(*args[:-1], 0) is None for args in scans) >= 1000


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
    assert verdict.density == Fraction(1, 4)


def test_reduced_graph_of_blowup_contains_base():
    base = gen.cycle(4)
    host, partition = blowup_instance(base, 4)
    params = RegularityParams(Fraction(1, 4))
    pairs = regular_pairs(host, partition, params)
    r = dense_graph(partition, pairs, Fraction(1, 2))
    for u, v in base.edges():
        assert r.has_edge(u, v)


def test_reduced_graph_edgeless():
    g = Graph(8)
    partition = Partition(8, frozenset(), (frozenset(range(4)), frozenset(range(4, 8))))
    params = RegularityParams(Fraction(1, 4))
    pairs = regular_pairs(g, partition, params)
    assert len(pairs) == 1  # density-0 regular
    assert dense_graph(partition, pairs, Fraction(1, 2)).edge_count() == 0


@pytest.mark.parametrize("mode", [MODE_EXHAUSTIVE, MODE_SAMPLED])
def test_one_pair_density_per_regularity_check(mode, monkeypatch):
    # a partition attempt builds one neighbour-count table and checks each
    # class pair once from it; neither pair_density nor regularity_check
    # recounts a pair, and every density reported equals pair_density's
    real_density = regularity.pair_density
    densities = spy(monkeypatch, regularity, "pair_density")
    checks = spy(monkeypatch, regularity, "regularity_check")
    tables = spy(monkeypatch, regularity, "_count_table")
    pairs = spy(monkeypatch, regularity, "_check_pair")
    attempts = spy(monkeypatch, regularity, "_partition_for_seed")
    g = random_graph(30, 0.5, 1)
    params = RegularityParams(Fraction(1, 2))
    partition, report = fixed_k_partition(g, 5, params, retries=2, mode=mode, budget=20)
    assert densities == [] and checks == []
    assert len(tables) == len(attempts) >= 1
    assert [(classes, i, j) for _, classes, _, i, j, *_ in pairs] == [
        (classes, i, j)
        for _, classes in tables
        for i, j in itertools.combinations(range(len(classes)), 2)
    ]
    assert 0 < len(report.regular_pairs) == len(report.densities)
    for (i, j), d in zip(report.regular_pairs, report.densities):
        xs, ys = sorted(partition.classes[i]), sorted(partition.classes[j])
        assert d == real_density(g, xs, ys)
    # regularity_check counts its own pair: one pair_density call, one
    # table of the two sides, one check
    for calls in (densities, tables, pairs):
        calls.clear()
    xs, ys = sorted(partition.classes[0]), sorted(partition.classes[1])
    verdict = regularity.regularity_check(g, xs, ys, params, mode, 20)
    assert (len(densities), len(tables), len(pairs)) == (1, 1, 1)
    assert tables[0][1] == [xs, ys] and verdict.density == real_density(g, xs, ys)


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


def random_graph(n: int, p: float, seed: int) -> Graph:
    rng = random.Random(seed)
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


def test_sampled_matches_rescanning_reference(monkeypatch):
    # seeded pairs with sides 4-16 (unequal too), interleaved labels and edges
    # inside the sides; every verdict, witness and sample count must equal the
    # rescanning checker's
    rng = random.Random(12)
    cases = []
    for _ in range(40):
        nx_, ny = rng.randint(4, 16), rng.randint(4, 16)
        n = nx_ + ny + rng.randint(0, 3)
        g = random_graph(n, rng.random(), rng.randrange(1 << 30))
        order = list(range(n))
        rng.shuffle(order)
        xs, ys = order[:nx_], order[nx_ : nx_ + ny]
        for eps in (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2)):
            for budget in (1, 50, 200):
                cases.append((g, xs, ys, eps, budget, rng.randrange(1000)))

    def run_all():
        return [
            regularity_check(g, xs, ys, RegularityParams(eps), MODE_SAMPLED, budget, seed)
            for g, xs, ys, eps, budget, seed in cases
        ]

    fast = run_all()
    passes: list[list[int]] = []

    def reference(*args):
        passes.append([])
        return check_sampled_rescanning(*args, passes=passes[-1])

    monkeypatch.setattr(regularity, "_check_sampled", reference)
    assert fast == run_all()
    statuses = [v.status for v in fast]
    assert statuses.count(VIOLATED) >= 20 and statuses.count(UNREFUTED) >= 20
    assert sum(len(p) > 1 for p in passes) >= 20  # the swap search made several passes


def test_scan_keeps_the_first_witness(monkeypatch):
    # seeded pairs with sides 1-16 (unequal too), interleaved labels and
    # edges inside the sides; every verdict and witness must equal the plain
    # combinations loop's
    rng = random.Random(21)
    cases = []
    for _ in range(60):
        nx_, ny = rng.randint(1, 16), rng.randint(1, 16)
        n = nx_ + ny + rng.randint(0, 3)
        g = random_graph(n, rng.random(), rng.randrange(1 << 30))
        order = list(range(n))
        rng.shuffle(order)
        cases.append((g, order[:nx_], order[nx_ : nx_ + ny]))
    epses = [Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(3, 4)]

    def run_all():
        return [
            regularity_check(g, xs, ys, RegularityParams(eps))
            for g, xs, ys in cases
            for eps in epses
        ]

    scanned = run_all()
    monkeypatch.setattr(regularity, "_scan", check_exhaustive_plain)
    assert scanned == run_all()
    statuses = [v.status for v in scanned]
    assert statuses.count(VIOLATED) >= 20 and statuses.count(CERTIFIED) >= 20


def test_sampled_shortcut(monkeypatch):
    # pairs the scan settles within the budget: no threshold subpair
    # violates, so the verdict is what every draw would give, and none runs
    complete, xs, ys = bipartite_pair(12, 12, [(u, v) for u in range(12) for v in range(12)])
    half = random_graph(24, 0.5, 0)  # a pair whose root peel leaves the dense side open
    evens, odds = list(range(0, 24, 2)), list(range(1, 24, 2))
    settled = [  # the complete pair at the root, the random one in 8 prefixes
        (complete, xs, ys, Fraction(1, 4), 1),
        (complete, xs, ys, Fraction(1, 4), 50),
        (half, evens, odds, Fraction(1, 2), 8),
        (half, evens, odds, Fraction(1, 2), 50),
    ]

    def no_draws(*args):
        raise AssertionError("the scan settled the pair, yet draws were made")

    with monkeypatch.context() as m:
        m.setattr(regularity, "_sample_draws", no_draws)
        for g, xs, ys, eps, budget in settled:
            v = regularity_check(g, xs, ys, RegularityParams(eps), MODE_SAMPLED, budget, 5)
            assert (v.status, v.samples_tried) == (UNREFUTED, budget)
    # a budget of fewer prefixes than the scan needs settles nothing: the
    # draws run and give the rescanning checker's verdict
    draws = []
    real_draws = regularity._sample_draws

    def counting_draws(*args):
        draws.append(args)
        return real_draws(*args)

    monkeypatch.setattr(regularity, "_sample_draws", counting_draws)

    def run_all():
        return [
            regularity_check(half, evens, odds, RegularityParams(eps), MODE_SAMPLED, budget, s)
            for eps, budget in ((Fraction(1, 2), 7), (Fraction(1, 4), 1))
            for s in range(20)
        ]

    fast = run_all()
    assert len(draws) == 40
    # budget 0 opens no prefix and draws nothing
    for g, xs, ys, eps, _ in settled:
        v = regularity_check(g, xs, ys, RegularityParams(eps), MODE_SAMPLED, 0, 5)
        assert (v.status, v.samples_tried) == (UNREFUTED, 0)
    assert [budget for *_, budget, _ in draws[40:]] == [0] * len(settled)
    monkeypatch.setattr(regularity, "_check_sampled", check_sampled_rescanning)
    assert fast == run_all()
    assert {v.status for v in fast[20:]} == {VIOLATED, UNREFUTED}


def planted_pair(rng: random.Random, max_side: int) -> tuple[Graph, list[int], list[int]]:
    """A seeded pair with sides 1..max_side, interleaved labels, spare
    vertices and edges inside the sides, of some background density, with
    a random block A x B of density near 1 or near 0 (or none)."""
    nx_, ny = rng.randint(1, max_side), rng.randint(1, max_side)
    n = nx_ + ny + rng.randint(0, 3)
    order = list(range(n))
    rng.shuffle(order)
    xs, ys = order[:nx_], order[nx_ : nx_ + ny]
    block = {
        frozenset((a, b))
        for a in rng.sample(xs, rng.randint(1, nx_))
        for b in rng.sample(ys, rng.randint(1, ny))
    }
    p = rng.random()
    q = rng.choice((p, rng.uniform(0.8, 1), rng.uniform(0, 0.2)))
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < (q if frozenset((u, v)) in block else p)
    ]
    return Graph(n, edges), xs, ys


def degrees(g: Graph, xs: list[int], ys: list[int]) -> tuple[list[int], list[int]]:
    """Each x's neighbour count in Y and each y's in X, as the checks read them."""
    return (
        [sum(g.has_edge(x, y) for y in ys) for x in xs],
        [sum(g.has_edge(x, y) for x in xs) for y in ys],
    )


def test_root_peel_matches_its_definition_and_is_sound():
    # every need, on both sides, at one random threshold size per planted
    # pair and at every size on paths split into their two colour classes
    # (a path peels from its ends inwards, one step a round): the peel
    # agrees with its set-based definition, and a side it rules out has no
    # m_x x m_y subpair with need edges, by brute force over every X'
    rng = random.Random(31)
    cases = []
    for _ in range(240):
        g, xs, ys = planted_pair(rng, 8)
        cases.append((g, xs, ys, rng.randint(1, len(xs)), rng.randint(1, len(ys))))
    for n in range(2, 17):
        evens, odds = list(range(0, n, 2)), list(range(1, n, 2))
        cases += [
            (gen.path(n), evens, odds, m_x, m_y)
            for m_x in range(1, len(evens) + 1)
            for m_y in range(1, len(odds) + 1)
        ]
    out = multi_round = by_degree_sum = 0
    for g, xs, ys, m_x, m_y in cases:
        for complement, flip in ((False, 0), (True, -1)):
            most = most_edges(g, xs, ys, m_x, m_y, complement)
            for need in range(1, m_x * m_y + 1):
                ruled = regularity._ruled_out(g, xs, ys, degrees(g, xs, ys), m_x, m_y, need, flip)
                args = (g, xs, ys, m_x, m_y, need, complement)
                assert ruled == peel_rules_out(*args)
                if ruled:
                    assert most < need
                    out += 1
                    multi_round += not peel_rules_out(*args, rounds=1)
                    by_degree_sum += not peel_rules_out(*args, degree_sum=False)
    # the batch needs the fixed point and the degree sum, not one of them alone
    assert out >= 4000 and multi_round >= 5 and by_degree_sum >= 2000


def threshold_args(g: Graph, xs: list[int], ys: list[int], eps: Fraction) -> tuple:
    """_scan's arguments before the budget, as regularity_check derives them."""
    xs, ys = sorted(xs), sorted(ys)
    m_x, m_y = threshold_size(eps, len(xs)), threshold_size(eps, len(ys))
    d0, nxy = pair_density(g, xs, ys), len(xs) * len(ys)
    limit = eps.numerator * nxy * m_x * m_y // eps.denominator
    return g, xs, ys, degrees(g, xs, ys), m_x, m_y, d0.numerator * nxy // d0.denominator, limit


PEEL_EPSES = [Fraction(p, q) for p, q in ((1, 4), (1, 3), (2, 5), (1, 2), (2, 3), (3, 4))]


def test_peeled_scan_keeps_the_first_witness_on_planted_blocks(monkeypatch):
    # dense and sparse planted blocks, sides 1-16: every verdict and witness
    # equals the plain combinations loop's, whether the root settled the
    # pair (a budget of 0 prefixes then still answers) or the scan ran
    rng = random.Random(41)
    cases = [planted_pair(rng, 16) for _ in range(36)]

    def run_all():
        return [
            regularity_check(g, xs, ys, RegularityParams(eps))
            for g, xs, ys in cases
            for eps in PEEL_EPSES
        ]

    scanned = run_all()
    at_root = [
        regularity._scan(*threshold_args(g, xs, ys, eps), 0) is not None
        for g, xs, ys in cases
        for eps in PEEL_EPSES
    ]
    monkeypatch.setattr(regularity, "_scan", check_exhaustive_plain)
    assert scanned == run_all()
    statuses = [v.status for v in scanned]
    assert statuses.count(VIOLATED) >= 60 and statuses.count(CERTIFIED) >= 120
    assert sum(at_root) >= 100 and statuses.count(CERTIFIED) > sum(at_root)


def test_peeled_sampled_matches_rescanning_on_planted_blocks(monkeypatch):
    # the sampled checker returns the rescanning checker's verdict, sample
    # count included, on pairs the root settles and on pairs it leaves open
    rng = random.Random(43)
    cases = [planted_pair(rng, 14) for _ in range(30)]

    def run_all():
        return [
            regularity_check(g, xs, ys, RegularityParams(eps), MODE_SAMPLED, budget, 9)
            for g, xs, ys in cases
            for eps in PEEL_EPSES
            for budget in (1, 20)
        ]

    fast = run_all()
    at_root = sum(
        regularity._scan(*threshold_args(g, xs, ys, eps), 0) is not None
        for g, xs, ys in cases
        for eps in PEEL_EPSES
    )
    monkeypatch.setattr(regularity, "_check_sampled", check_sampled_rescanning)
    assert fast == run_all()
    statuses = [v.status for v in fast]
    assert statuses.count(VIOLATED) >= 60 and statuses.count(UNREFUTED) >= 200
    assert 80 <= at_root < len(cases) * len(PEEL_EPSES)


def test_sample_positions_pick_what_sampling_the_sides_picks():
    # _check_sampled draws positions with rng.sample(range(n), m) in place of
    # rng.sample(xs, m); random.sample picks by position alone, through its
    # pool branch and its set branch alike (here: n > 21 and small m)
    for seed in (0, 1, 12345):
        for n in range(121):
            xs = sorted(random.Random(n).sample(range(4 * n), n))
            for m in range(n + 1):
                positions = sorted(random.Random(seed).sample(range(n), m))
                assert sorted(random.Random(seed).sample(xs, m)) == [xs[i] for i in positions]


def count_attempts(monkeypatch) -> list[tuple]:
    attempts: list[tuple] = []
    real = regularity._partition_for_seed

    def counting(*args):
        attempts.append(args)
        return real(*args)

    monkeypatch.setattr(regularity, "_partition_for_seed", counting)
    return attempts


def test_zero_irregular_first_attempt_runs_no_retry(monkeypatch):
    attempts = count_attempts(monkeypatch)
    for mode in (MODE_EXHAUSTIVE, MODE_SAMPLED):
        attempts.clear()
        _, report = fixed_k_partition(
            gen.complete(12), 3, RegularityParams(Fraction(1, 4)), seed=5, retries=4, mode=mode
        )
        assert report.total_irregular_pairs == 0
        assert len(attempts) == 1


def test_irregular_attempts_still_retry(monkeypatch):
    attempts = count_attempts(monkeypatch)
    # every attempt has irregular pairs: all of them run
    g = gen.random_bounded_degree_graph(16, 5, seed=9)
    _, report = fixed_k_partition(g, 4, RegularityParams(Fraction(1, 4)), seed=2, retries=2)
    assert report.total_irregular_pairs > 0
    assert len(attempts) == 3
    # the first attempt has 1 irregular pair and the second none: two run
    attempts.clear()
    g = random_graph(30, 0.5, 1)
    _, report = fixed_k_partition(g, 5, RegularityParams(Fraction(1, 2)), retries=2)
    assert report.total_irregular_pairs == 0
    assert len(attempts) == 2


def best_of_all_attempts(g, k, params, seed, retries, mode, budget):
    """Every one of the retries + 1 attempts, then the fewest irregular
    pairs, ties to the earliest."""
    attempts = []
    for a in range(retries + 1):
        attempt_seed = seed * 1_000_003 + a
        partition = regularity._partition_for_seed(g.n, k, attempt_seed)
        report = regularity._quality(g, partition, params, mode, budget, attempt_seed)
        attempts.append((partition, report))
    return min(attempts, key=lambda pr: pr[1].total_irregular_pairs)


@pytest.mark.parametrize("mode", [MODE_EXHAUSTIVE, MODE_SAMPLED])
def test_fixed_k_partition_matches_best_of_all_attempts(mode):
    # first attempts score 0 to 6 irregular pairs here, and some inputs reach
    # 0 only at a later attempt
    for n, k, eps in ((30, 5, Fraction(1, 2)), (40, 4, Fraction(2, 5))):
        params = RegularityParams(eps)
        for graph_seed in range(4):
            g = random_graph(n, 0.5, graph_seed)
            for seed in range(3):
                expected = best_of_all_attempts(g, k, params, seed, 2, mode, 50)
                assert fixed_k_partition(g, k, params, seed, 2, mode, 50) == expected
