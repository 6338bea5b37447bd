from __future__ import annotations

import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramsey_forge import dense, generators as gen
from ramsey_forge.dense import (
    PASS,
    UNREFUTED,
    VIOLATED,
    DenseParams,
    DenseVerdict,
    DenseWitness,
    bi_dense_violation,
    dense_greedy_embed,
    dense_witness_check,
    lovasz_partition,
    wheel_mono_embed,
)
from ramsey_forge.graphs import EdgeColoring, Graph, WeightedGraph, induced, mask_of, pair_density
from ramsey_forge.morphisms import (
    CapacityProfile,
    VerificationError,
    find_weighted_embedding,
    verify_capacity,
    verify_homomorphism,
)


PETERSEN = Graph(
    10,
    [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
     (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
     (0, 5), (1, 6), (2, 7), (3, 8), (4, 9)],
)


def check_split(g: Graph, classes, degrees):
    for cls, d in zip(classes, degrees):
        sub = induced(g, cls)
        assert sub.max_degree() <= d, (sorted(cls), d)


def test_lovasz_cycle():
    g = gen.cycle(6)
    classes = lovasz_partition(g, [1, 0])
    check_split(g, classes, [1, 0])


def test_lovasz_identity_single_class():
    g = gen.complete(5)
    classes = lovasz_partition(g, [4])
    assert classes == (frozenset(range(5)),)


def test_lovasz_petersen():
    classes = lovasz_partition(PETERSEN, [1, 1])
    check_split(PETERSEN, classes, [1, 1])


def test_lovasz_precondition():
    with pytest.raises(ValueError):
        lovasz_partition(gen.complete(5), [1, 1])  # 2 < 4 - 2 + 1
    with pytest.raises(ValueError):
        lovasz_partition(gen.complete(3), [])
    with pytest.raises(ValueError):
        lovasz_partition(gen.complete(3), [-1, 3])


@st.composite
def split_instance(draw):
    n = draw(st.integers(1, 16))
    seed = draw(st.integers(0, 10_000))
    g = gen.random_bounded_degree_graph(n, draw(st.integers(0, 6)), seed)
    delta = g.max_degree()
    s = draw(st.integers(1, 3))
    total = max(0, delta - s + 1)
    cut1 = draw(st.integers(0, total))
    cut2 = draw(st.integers(0, total - cut1))
    if s == 1:
        degrees = [total]
    elif s == 2:
        degrees = [cut1, total - cut1]
    else:
        degrees = [cut1, cut2, total - cut1 - cut2]
    return g, degrees


@settings(max_examples=80, deadline=None)
@given(split_instance())
def test_lovasz_postcondition_property(inst):
    g, degrees = inst
    classes = lovasz_partition(g, degrees)
    check_split(g, classes, degrees)


def test_bi_dense_complete_passes():
    g = gen.complete(8)
    assert bi_dense_violation(g, range(8), Fraction(1, 4), Fraction(1, 2)) is None


def test_bi_dense_planted_sparse_block():
    # complete graph with one emptied 4x4 cut: violation found
    g = gen.complete(8)
    adj = list(g.adj)
    for u in range(4):
        for v in range(4, 8):
            adj[u] &= ~(1 << v)
            adj[v] &= ~(1 << u)
    g2 = Graph.from_adj(adj)
    hit = bi_dense_violation(g2, range(8), Fraction(1, 4), Fraction(1, 2))
    assert hit is not None
    xs, ys = hit
    from ramsey_forge.graphs import pair_density

    assert pair_density(g2, sorted(xs), sorted(ys)) < Fraction(1, 2)


def test_bi_dense_density_equal_to_delta_is_not_a_violation():
    # in C4 every disjoint pair of 2 + 2 vertices has density 1/2 or 1
    g = gen.cycle(4)
    assert bi_dense_violation(g, range(4), Fraction(1, 2), Fraction(1, 2)) is None
    hit = bi_dense_violation(g, range(4), Fraction(1, 2), Fraction(51, 100))
    assert hit is not None
    assert pair_density(g, hit[0], hit[1]) == Fraction(1, 2)


def test_bi_dense_universe_out_of_range():
    with pytest.raises(ValueError):
        bi_dense_violation(gen.complete(4), range(5), Fraction(1, 4), Fraction(1, 2))


def params_for(max_deg: int) -> DenseParams:
    return DenseParams(
        alpha=Fraction(1, 8),
        beta=Fraction(1, 4),
        rho=Fraction(1, 2),
        delta=Fraction(1, 2),
        max_deg=max_deg,
    )


def test_witness_check_complete_passes():
    g = gen.complete(10)
    w = DenseWitness.trivial(g, 3)
    assert dense_witness_check(g, w, params_for(3)).status == PASS


def test_witness_check_degree_sum():
    g = gen.complete(10)
    w = DenseWitness((frozenset(range(5)), frozenset(range(5, 10))), (1, 0))
    verdict = dense_witness_check(g, w, params_for(3))
    assert verdict.status == VIOLATED
    assert verdict.condition == "degree_sum"


def test_witness_check_sampled_refutation_only():
    g = gen.complete(10)
    w = DenseWitness.trivial(g, 3)
    verdict = dense_witness_check(g, w, params_for(3), mode="sampled", seed=1)
    assert verdict.status != PASS  # sampled mode cannot certify
    assert verdict.status == "unrefuted"


def _dense_verdict_batch(mode: str, count: int = 200, seed: int = 2026) -> list[tuple]:
    """Seeded random graphs cut into 1-3 parts of 2-12 vertices (interleaved
    labels, a few vertices left out) under random alpha, beta, rho, delta,
    degree budgets and checker seeds."""
    rng = random.Random(seed)
    fracs = [Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(3, 4)]
    out = []
    for _ in range(count):
        sizes = [rng.randint(2, 12) for _ in range(rng.randint(1, 3))]
        n = sum(sizes) + rng.randint(0, 3)
        p = rng.random()
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        order = list(range(n))
        rng.shuffle(order)
        parts = tuple(
            frozenset(order[sum(sizes[:i]) : sum(sizes[: i + 1])]) for i in range(len(sizes))
        )
        degrees = tuple(rng.randint(0, 2) for _ in sizes)
        params = DenseParams(
            alpha=rng.choice(fracs) / 4,
            beta=rng.choice(fracs),
            rho=rng.choice(fracs),
            delta=rng.choice(fracs),
            max_deg=sum(degrees) + len(sizes) - 1 + rng.choice([0, 0, 0, 1]),
        )
        w = DenseWitness(parts, degrees)
        v = dense_witness_check(g, w, params, mode=mode, seed=rng.randrange(1000))
        wx, wy = sorted(v.witness_x or ()), sorted(v.witness_y or ())
        out.append((v.status, v.condition, v.part, wx, wy))
    return out


# captured from the Fraction-per-pair checkers, before the integer edge-count
# comparison and the witness recheck; 128 exhaustive and 125 sampled verdicts
# are bi-density violations
PINNED_DENSE_BATCH = {
    "exhaustive": (
        "31188bba152f9c283e58077674ad667946029856ae1812f3af8e833f7f30e133",
        {
            0: (VIOLATED, "degree_sum", None, [], []),
            1: (VIOLATED, "bi_dense", 0, [2], [9]),
            3: (VIOLATED, "bi_dense", 0, [0, 1, 2, 3, 4, 5], [6, 7, 9, 10, 11, 12]),
            9: (PASS, None, None, [], []),
            13: (VIOLATED, "bi_dense", 1, [2], [10]),
            43: (VIOLATED, "cross_degree", 0, [10], [8, 9, 11]),
        },
    ),
    "sampled": (
        "8de904d70a1eec2616c59d4770f8aad8d65433d31453e5ea6e8b16f1e6ddcd63",
        {
            1: (VIOLATED, "bi_dense", 0, [9], [20]),
            3: (VIOLATED, "bi_dense", 0, [1, 2, 4, 5, 11, 12], [0, 3, 6, 7, 9, 10]),
            9: (UNREFUTED, None, None, [], []),
            10: (VIOLATED, "part_size", 0, [9, 13], []),
            13: (VIOLATED, "bi_dense", 1, [5], [16]),
        },
    ),
}


@pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
def test_pinned_dense_verdict_batch(mode):
    batch = _dense_verdict_batch(mode)
    digest, cases = PINNED_DENSE_BATCH[mode]
    for i, expected in cases.items():
        assert batch[i] == expected, i
    assert hashlib.sha256(repr(batch).encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "host, x, y",
    [
        (Graph(10, []), {0, 1}, {1, 2}),  # overlapping sides
        (Graph(10, []), {0, 1}, {2, 9}),  # 9 lies outside the part
        (Graph(10, []), {0}, {4}),  # sides below the threshold size 2
        (gen.complete(10), {0, 1}, {2, 3}),  # density 1, not below delta
    ],
)
def test_bi_dense_witness_recheck(monkeypatch, host, x, y):
    monkeypatch.setattr(dense, "bi_dense_violation", lambda *args: (frozenset(x), frozenset(y)))
    w = DenseWitness((frozenset(range(8)),), (1,))
    with pytest.raises(VerificationError):
        dense_witness_check(host, w, params_for(1))


def test_witness_disjointness():
    with pytest.raises(ValueError):
        DenseWitness((frozenset([0, 1]), frozenset([1, 2])), (1, 1))


def test_dense_greedy_unit_path_into_k6():
    host = gen.complete(6)
    gw = WeightedGraph.unit(gen.path(4))
    vmap = dense_greedy_embed(host, DenseWitness.trivial(host, 2), gw, Fraction(1, 2), 2)
    assert vmap is not None
    assert vmap.is_injective()  # unit weights force injectivity
    # cross-check existence with the exact search
    assert find_weighted_embedding(gw, host) is not None


def test_dense_greedy_rejects_delta_outside_unit_interval():
    host = gen.complete(6)
    gw = WeightedGraph.unit(gen.path(4))
    for delta in (Fraction(-1, 2), Fraction(3, 2)):
        with pytest.raises(ValueError):
            dense_greedy_embed(host, DenseWitness.trivial(host, 2), gw, delta, 2)


def test_dense_greedy_impossible():
    host = gen.complete(1)
    gw = WeightedGraph.unit(gen.complete(2))
    vmap = dense_greedy_embed(host, DenseWitness.trivial(host, 1), gw, Fraction(1, 2), 1)
    assert vmap is None
    assert find_weighted_embedding(gw, host) is None


def test_dense_greedy_weighted_cross_check():
    rng = random.Random(3)
    host = gen.complete(10)
    for trial in range(20):
        base = gen.cycle(4) if trial % 2 else gen.path(5)
        weights = tuple(Fraction(rng.randint(1, 4), 4) for _ in range(base.n))
        gw = WeightedGraph(base, weights)
        vmap = dense_greedy_embed(host, DenseWitness.trivial(host, 2), gw, Fraction(1, 2), 2)
        if vmap is not None:
            assert verify_homomorphism(base, host, vmap).valid
            assert verify_capacity(vmap, CapacityProfile.weight_cap(weights)).valid
            # greedy success implies exact search success
            assert find_weighted_embedding(gw, host) is not None


def test_wheel_all_red_and_all_blue():
    host = gen.complete(6)
    unit = [Fraction(1)] * 4
    all_red = EdgeColoring(host, host.edges())
    hit = wheel_mono_embed(all_red, 4, unit)
    assert hit is not None and hit[0] == "red"
    assert hit[1].is_injective()
    all_blue = EdgeColoring(host, [])
    hit = wheel_mono_embed(all_blue, 4, unit)
    assert hit is not None and hit[0] == "blue"


def test_wheel_input_validation():
    host = gen.complete(5)
    c = EdgeColoring(host, [])
    with pytest.raises(ValueError):
        wheel_mono_embed(c, 3, [Fraction(1)] * 3)
    with pytest.raises(ValueError):
        wheel_mono_embed(c, 4, [Fraction(1)] * 3)


def test_wheel_fuzz_soundness():
    from ramsey_forge.generators import wheel as wheel_graph

    rng = random.Random(11)
    successes = 0
    for seed in range(60):
        n = rng.randint(8, 14)
        host = gen.complete(n)
        coloring = gen.random_coloring(host, Fraction(1, 2), seed)
        k = rng.choice([4, 5])
        weights = [Fraction(1, 2)] * k
        hit = wheel_mono_embed(coloring, k, weights)
        if hit is None:
            continue
        successes += 1
        color, vmap = hit
        target = wheel_graph(k)
        assert verify_homomorphism(target, coloring.subgraph(color), vmap).valid
        assert verify_capacity(vmap, CapacityProfile.weight_cap(weights)).valid
    assert successes > 0  # sanity: the fuzz exercises the success path
