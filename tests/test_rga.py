from __future__ import annotations

import random
from fractions import Fraction

import pytest

from ramsey_forge import generators as gen
from ramsey_forge.graphs import Graph
from ramsey_forge.morphisms import VertexMap, verify_homomorphism
from ramsey_forge.regularity import Partition
from ramsey_forge.rga import EPS, EPS1, EPS2, RgaParams, RgaStats, blowup_instance, rga_blowup_embed


def disjoint_cycles(count, length):
    edges = []
    for c in range(count):
        base = c * length
        for i in range(length):
            edges.append((base + i, base + (i + 1) % length))
    return Graph(count * length, edges)


def test_params_chain():
    assert 0 < EPS < EPS2 < EPS1 < 1
    p = RgaParams(delta=Fraction(1, 2), xi=Fraction(1, 4))
    assert (p.delta, p.xi) == (Fraction(1, 2), Fraction(1, 4))
    for delta, xi in ((Fraction(3, 2), Fraction(1, 4)), (Fraction(1, 2), Fraction(-1, 4))):
        with pytest.raises(ValueError):
            RgaParams(delta, xi)


def test_complete_bipartite_blowup_trivial():
    base = gen.complete(2)
    host, partition = blowup_instance(base, 12)
    g = disjoint_cycles(2, 4)  # 8 vertices, 4 per side
    f = VertexMap(g.n, 2, tuple(v % 2 for v in range(g.n)))
    params = RgaParams(delta=Fraction(1, 2), xi=Fraction(1, 4))
    stats = RgaStats()
    vmap = rga_blowup_embed(host, partition, base, g, f, params, seed=0, stats=stats)
    assert vmap is not None
    assert stats.attempts == 1  # complete pairs never starve
    assert verify_homomorphism(g, host, vmap).valid
    assert vmap.is_injective()


def test_non_homomorphism_rejected():
    base = gen.complete(2)
    host, partition = blowup_instance(base, 8)
    g = gen.cycle(3)  # odd cycle has no homomorphism to K_2
    f = VertexMap(3, 2, (0, 1, 0))
    params = RgaParams(delta=Fraction(1, 2), xi=Fraction(1, 4))
    with pytest.raises(ValueError):
        rga_blowup_embed(host, partition, base, g, f, params)


def test_slack_precondition():
    base = gen.complete(2)
    host, partition = blowup_instance(base, 4)
    g = disjoint_cycles(2, 4)  # needs 4 per part, 4 * (1 + 1/4) > 4
    f = VertexMap(g.n, 2, tuple(v % 2 for v in range(g.n)))
    with pytest.raises(ValueError):
        rga_blowup_embed(host, partition, base, g, f, RgaParams(Fraction(1, 2), Fraction(1, 4)))


def test_image_lands_in_assigned_parts():
    base = gen.cycle(3)
    host, partition = blowup_instance(base, 10)
    g = disjoint_cycles(3, 3)
    f = VertexMap(g.n, 3, tuple(v % 3 for v in range(g.n)))
    vmap = rga_blowup_embed(
        host, partition, base, g, f, RgaParams(Fraction(1, 2), Fraction(1, 4)), seed=4
    )
    assert vmap is not None
    for y in range(g.n):
        assert vmap(y) in partition.classes[f(y)]


def test_determinism_per_seed():
    base = gen.complete(2)
    host, partition = blowup_instance(base, 10)
    g = disjoint_cycles(2, 4)
    f = VertexMap(g.n, 2, tuple(v % 2 for v in range(g.n)))
    params = RgaParams(delta=Fraction(1, 2), xi=Fraction(1, 4))
    a = rga_blowup_embed(host, partition, base, g, f, params, seed=7)
    b = rga_blowup_embed(host, partition, base, g, f, params, seed=7)
    assert a == b


def dense_random_blowup(base, part_size, density, seed):
    rng = random.Random(seed)
    n = base.n * part_size
    edges = []
    for bu, bv in base.edges():
        for i in range(part_size):
            for j in range(part_size):
                if Fraction(rng.random()) < density:
                    edges.append((bu * part_size + i, bv * part_size + j))
    host = Graph(n, edges)
    parts = tuple(
        frozenset(range(c * part_size, (c + 1) * part_size)) for c in range(base.n)
    )
    return host, Partition(n, frozenset(), parts)


def test_fuzz_soundness():
    rng = random.Random(99)
    some = 0
    for trial in range(120):
        base = rng.choice([gen.complete(2), gen.cycle(3), gen.cycle(4)])
        part_size = rng.randint(6, 10)
        density = Fraction(rng.randint(5, 10), 10)
        host, partition = dense_random_blowup(base, part_size, density, trial)
        cycles = rng.randint(1, part_size // 2)
        length = base.n if base.n >= 3 else 4
        g = disjoint_cycles(cycles, length)
        if base.n == 2:
            f = VertexMap(g.n, 2, tuple(v % 2 for v in range(g.n)))
        else:
            f = VertexMap(g.n, base.n, tuple(v % base.n for v in range(g.n)))
        params = RgaParams(delta=Fraction(1, 2), xi=Fraction(1, 4))
        try:
            vmap = rga_blowup_embed(
                host, partition, base, g, f, params, seed=trial, retries=3
            )
        except ValueError:
            continue  # slack precondition may fail for large random G
        if vmap is not None:
            some += 1
            assert vmap.is_injective()
            assert verify_homomorphism(g, host, vmap).valid
            for y in range(g.n):
                assert vmap(y) in partition.classes[f(y)]
    assert some > 0
