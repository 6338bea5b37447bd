from __future__ import annotations

import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramsey_forge import generators as gen
from ramsey_forge.dense import dense_greedy_embed, lovasz_partition, wheel_mono_embed
from ramsey_forge.graphs import RED, EdgeColoring, Graph, WeightedGraph, induced
from ramsey_forge.morphisms import (
    CapacityProfile,
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


def test_dense_greedy_unit_path_into_k6():
    host = gen.complete(6)
    gw = WeightedGraph.unit(gen.path(4))
    vmap = dense_greedy_embed(host, gw, Fraction(1, 2), (1 << host.n) - 1)
    assert vmap is not None
    assert vmap.is_injective()  # unit weights force injectivity
    # cross-check existence with the exact search
    assert find_weighted_embedding(gw, host) is not None


def test_dense_greedy_rejects_delta_outside_unit_interval():
    host = gen.complete(6)
    gw = WeightedGraph.unit(gen.path(4))
    for delta in (Fraction(-1, 2), Fraction(3, 2)):
        with pytest.raises(ValueError):
            dense_greedy_embed(host, gw, delta, (1 << host.n) - 1)


@pytest.mark.parametrize(
    "part",
    [0b111 << 5, -1, 1 << 4],  # vertices 5..7, a negative mask, vertex n
    ids=["part0", "part1", "part2"],
)
def test_dense_greedy_rejects_a_part_outside_the_host(part):
    host = gen.complete(4)
    gw = WeightedGraph.unit(gen.path(2))
    with pytest.raises(ValueError, match="allowed mask contains out-of-range vertices"):
        dense_greedy_embed(host, gw, Fraction(1, 2), part)


def test_dense_greedy_stays_inside_the_allowed_mask():
    host = gen.complete(8)
    gw = WeightedGraph.unit(gen.cycle(3))
    vmap = dense_greedy_embed(host, gw, Fraction(1, 2), 0b10110100)
    assert vmap is not None and sorted(vmap.image) == [2, 4, 5]
    assert dense_greedy_embed(host, gw, Fraction(1, 2), 0b11) is None
    assert dense_greedy_embed(host, gw, Fraction(1, 2), 0) is None


def test_dense_greedy_impossible():
    host = gen.complete(1)
    gw = WeightedGraph.unit(gen.complete(2))
    vmap = dense_greedy_embed(host, gw, Fraction(1, 2), (1 << host.n) - 1)
    assert vmap is None
    assert find_weighted_embedding(gw, host) is None


def test_dense_greedy_weighted_cross_check():
    rng = random.Random(3)
    host = gen.complete(10)
    for trial in range(20):
        base = gen.cycle(4) if trial % 2 else gen.path(5)
        weights = tuple(Fraction(rng.randint(1, 4), 4) for _ in range(base.n))
        gw = WeightedGraph(base, weights)
        vmap = dense_greedy_embed(host, gw, Fraction(1, 2), (1 << host.n) - 1)
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
    with pytest.raises(ValueError, match="outside"):  # the hub's weight, not only the rim's
        wheel_mono_embed(c, 4, [Fraction(1)] * 3 + [Fraction(2)])


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


def _pinned_batch() -> list[str]:
    """Seeded dense-greedy and wheel outputs, one line per call."""
    rng = random.Random(30)
    lines = []
    deltas = (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(2, 3), Fraction(1))
    for t in range(150):
        n = rng.randint(1, 14)
        if t % 2:
            host = gen.random_min_degree_host(n, Fraction(rng.choice((1, 2, 3)), 4), t)
        else:
            host = gen.random_coloring(gen.complete(n), Fraction(1, 2), t).subgraph(RED)
        src = gen.random_bounded_degree_graph(rng.randint(0, 8), rng.randint(0, 3), t)
        weights = tuple(Fraction(rng.randint(0, 4), rng.choice((2, 3, 4, 6))) for _ in range(src.n))
        gw = WeightedGraph(src, tuple(min(w, Fraction(1)) for w in weights))
        delta = deltas[t % len(deltas)]
        vmap = dense_greedy_embed(host, gw, delta, (1 << host.n) - 1)
        lines.append(f"dense {t} {None if vmap is None else vmap.image}")
    shapes = [(gen.complete(rng.randint(6, 16)), rng.randint(4, 7)) for _ in range(30)]
    shapes += [(gen.complete(40), 7)] * 3
    shapes += [(gen.random_min_degree_host(48, Fraction(1, 4), seed), 6) for seed in range(3)]
    for t, (host, k) in enumerate(shapes):
        coloring = gen.random_coloring(host, Fraction(rng.choice((1, 2, 3)), 4), t)
        if t % 2:
            weights = [Fraction(rng.randint(1, 3), 3) for _ in range(k)]
        else:
            weights = [Fraction(1)] * k
        hit = wheel_mono_embed(coloring, k, weights)
        lines.append(f"wheel {t} {None if hit is None else (hit[0], hit[1].image)}")
    return lines


PINNED_BATCH = "90a2267829c4f8efc51ed54b87ea8a501a17097a2ed5ac9709212ec9645c80eb"


def test_pinned_greedy_batch():
    lines = _pinned_batch()
    # the batch holds both greedy outcomes of each embedder
    for kind in ("dense", "wheel"):
        outcomes = {line.endswith("None") for line in lines if line.startswith(kind)}
        assert outcomes == {True, False}, kind
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == PINNED_BATCH
