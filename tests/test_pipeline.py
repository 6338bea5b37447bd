from __future__ import annotations

import itertools
import math
from fractions import Fraction

import pytest

from ramsey_forge import generators as gen, pipeline, regularity
from ramsey_forge.graphs import BLUE, RED, EdgeColoring, Graph
from ramsey_forge.morphisms import VertexMap, verify_homomorphism
from ramsey_forge.pipeline import (
    STAGE_EMBED,
    STAGE_LIFT,
    STAGE_REDUCED,
    PipelineParams,
    PipelineResult,
    transference_pipeline,
)


def even_cycles(count: int) -> Graph:
    edges = []
    for c in range(count):
        b = 4 * c
        edges += [(b, b + 1), (b + 1, b + 2), (b + 2, b + 3), (b + 3, b)]
    return Graph(4 * count, edges)


def test_all_red_trivial():
    host = gen.complete(24)
    coloring = EdgeColoring(host, host.edges())
    g = gen.cycle(4)
    h = gen.complete(2)
    f = VertexMap(4, 2, (0, 1, 0, 1))
    params = PipelineParams(eps=Fraction(1, 4), xi=Fraction(1, 4), k=4)
    res = transference_pipeline(g, h, f, coloring, params, seed=0)
    assert res.ok
    assert res.color == "red"
    assert res.vmap.is_injective()
    assert verify_homomorphism(g, coloring.red_graph, res.vmap).valid


def test_invalid_hom_rejected():
    host = gen.complete(12)
    coloring = EdgeColoring(host, host.edges())
    g = gen.cycle(4)
    h = gen.complete(2)
    f = VertexMap(4, 2, (0, 0, 1, 1))  # maps an edge to a non-edge
    with pytest.raises(ValueError):
        transference_pipeline(
            g, h, f, coloring, PipelineParams(Fraction(1, 4), Fraction(1, 4), 4)
        )


def test_host_too_small():
    host = gen.complete(3)
    coloring = EdgeColoring(host, host.edges())
    for k in (4, 0):  # more classes than host vertices; no class at all
        with pytest.raises(ValueError):
            transference_pipeline(
                gen.complete(2),
                gen.complete(2),
                VertexMap(2, 2, (0, 1)),
                coloring,
                PipelineParams(Fraction(1, 4), Fraction(1, 4), k),
            )


def test_bad_xi_rejected_before_the_partition():
    # the lift fails on this colouring, so a check made only after a lift
    # would report "capacity_homomorphism" instead of raising
    coloring = gen.random_coloring(gen.complete(24), Fraction(1, 2), 1)
    with pytest.raises(ValueError):
        transference_pipeline(
            gen.complete(4),
            gen.complete(4),
            VertexMap(4, 4, (0, 1, 2, 3)),
            coloring,
            PipelineParams(Fraction(1, 2), Fraction(-5), 4),
            seed=1,
        )


def test_random_colorings_stage_histogram():
    g = even_cycles(2)
    h = gen.complete(2)
    f = VertexMap(8, 2, (0, 1, 0, 1, 0, 1, 0, 1))
    params = PipelineParams(eps=Fraction(1, 4), xi=Fraction(1, 4), k=6)
    histogram: dict[str, int] = {}
    for seed in range(12):
        coloring = gen.random_coloring(gen.complete(60), Fraction(1, 2), seed)
        res = transference_pipeline(g, h, f, coloring, params, seed=seed)
        key = res.color if res.ok else res.failed_stage
        histogram[key] = histogram.get(key, 0) + 1
        if res.ok:
            mono = coloring.subgraph(res.color)
            assert res.vmap.is_injective()
            assert verify_homomorphism(g, mono, res.vmap).valid
    # every outcome is a named stage or a color
    allowed = {"red", "blue", STAGE_REDUCED, STAGE_LIFT, STAGE_EMBED, "partition"}
    assert set(histogram) <= allowed
    assert sum(histogram.values()) == 12


C9_ON_K3 = (gen.cycle(9), gen.complete(3), VertexMap(9, 3, (0, 1, 2) * 3))


def test_one_regularity_pass_per_partition_attempt(monkeypatch):
    calls = []
    real = regularity.regularity_check

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for owner in (regularity, pipeline):
        monkeypatch.setattr(owner, "regularity_check", counting)
    g, h, f = C9_ON_K3
    k = 6
    coloring = gen.random_coloring(gen.complete(48), Fraction(1, 2), 0)
    params = PipelineParams(eps=Fraction(1, 2), xi=Fraction(1, 4), k=k)
    transference_pipeline(g, h, f, coloring, params, seed=0)
    # the pipeline partitions with retries=2 and reuses the chosen attempt's
    # verdicts instead of checking every pair again
    assert len(calls) == 3 * math.comb(k, 2)


# (mode, host order, k, seed) -> (color, image, failed stage), C9 -> K3 at
# eps 1/2; captured before the pipeline reused the partition's verdicts
PINNED = {
    ("sampled", 48, 6, 0): ("red", (21, 18, 25, 4, 43, 24, 3, 37, 19), None),
    ("sampled", 48, 6, 1): (None, None, STAGE_EMBED),
    ("sampled", 48, 6, 2): ("red", (40, 12, 14, 47, 46, 5, 10, 30, 4), None),
    ("exhaustive", 40, 5, 0): ("red", (34, 23, 28, 38, 33, 11, 12, 35, 36), None),
    ("exhaustive", 40, 5, 1): (None, None, STAGE_LIFT),
    ("exhaustive", 40, 5, 5): (None, None, STAGE_EMBED),
}


@pytest.mark.parametrize("case", list(PINNED), ids=[f"{m}-{s}" for m, _, _, s in PINNED])
def test_pinned_outputs(case):
    mode, n, k, seed = case
    g, h, f = C9_ON_K3
    coloring = gen.random_coloring(gen.complete(n), Fraction(1, 2), seed)
    params = PipelineParams(eps=Fraction(1, 2), xi=Fraction(1, 4), k=k, mode=mode)
    res = transference_pipeline(g, h, f, coloring, params, seed=seed)
    image = res.vmap.image if res.vmap else None
    assert (res.color, image, res.failed_stage) == PINNED[case]


def test_reduced_graphs_follow_the_partition_report(monkeypatch):
    seen = {}

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            seen[name] = fn(*args, **kwargs)
            return seen[name]

        monkeypatch.setattr(pipeline, name, wrapper)

    spy("fixed_k_partition", pipeline.fixed_k_partition)
    spy("split_by_density", pipeline.split_by_density)
    g, h, f = C9_ON_K3
    k = 6
    # sampled eps 1/3 on K_48: the chosen attempt treats some pairs as
    # regular and refutes the others
    coloring = gen.random_coloring(gen.complete(48), Fraction(1, 2), 0)
    params = PipelineParams(eps=Fraction(1, 3), xi=Fraction(1, 4), k=k)
    res = transference_pipeline(g, h, f, coloring, params, seed=0)
    _, report = seen["fixed_k_partition"]
    regular = set(report.regular_pairs)
    assert 0 < len(regular) < math.comb(k, 2)
    assert len(regular) == math.comb(k, 2) - report.total_irregular_pairs
    assert res.failed_stage != STAGE_REDUCED
    reduced = dict(zip((RED, BLUE), seen["split_by_density"]))
    for i, j in itertools.combinations(range(k), 2):
        in_colors = [c for c in (RED, BLUE) if reduced[c].has_edge(i, j)]
        assert len(in_colors) == (1 if (i, j) in regular else 0)
