"""Which library bindings the traced run wraps, and the per-layer metrics.

Layers are the modules under src/ramsey_forge/.  Each public function is
wrapped under the name its caller looks up: `regularity` imports
`pair_density` by name, so `regularity.pair_density` is wrapped, not
`graphs.pair_density`.  `iter_bits` and `mask_of` run ~10^7 times per round
and are not wrapped; their cost shows in their callers' self time.  `cli` and
`fileio` are thin front ends that no workload exercises and stay unmeasured.
"""

from __future__ import annotations

import inspect
import math

from ramsey_forge import (
    dense,
    drc,
    generators,
    graphs,
    harness,
    oracles,
    pipeline,
    regularity,
    rga,
)

from spans import SpanStats, Tracer

# (metric, unit, better, which end-to-end metric it should move, on which
# workload).  Counts and times are per traced round.
PER_LAYER = (
    ("oracles.plain_embeds.calls", "count", "lower", "wall_s @ oracle"),
    ("oracles.plain_embeds.self_s", "s", "lower", "wall_s @ oracle"),
    ("oracles.plain_embeds.found_ratio", "share", "higher", "wall_s @ oracle"),
    ("oracles.ramsey_number.self_s", "s", "lower", "wall_s @ oracle"),
    ("oracles.weighted_ramsey.self_s", "s", "lower", "wall_s @ oracle"),
    ("oracles.stable_ramsey.self_s", "s", "lower", "wall_s @ oracle"),
    ("oracles.hosts", "count", "lower", "wall_s @ oracle"),
    ("graphs.from_adj.calls", "count", "lower", "wall_s @ oracle"),
    ("graphs.from_adj.self_s", "s", "lower", "wall_s @ oracle"),
    ("graphs.pair_density.calls", "count", "lower", "wall_s, item_p50_s @ transfer"),
    ("graphs.pair_density.self_s", "s", "lower", "wall_s, item_p50_s @ transfer"),
    ("morphisms.find_weighted_embedding.calls", "count", "lower", "wall_s @ oracle"),
    ("morphisms.find_weighted_embedding.self_s", "s", "lower", "wall_s @ oracle"),
    ("morphisms.find_weighted_embedding.found_ratio", "share", "higher", "wall_s @ oracle"),
    ("morphisms.find_capacity_homomorphism.calls", "count", "lower", "item_p50_s @ transfer"),
    ("morphisms.find_capacity_homomorphism.nodes", "count", "lower", "item_p50_s @ transfer"),
    ("morphisms.find_capacity_homomorphism.self_s", "s", "lower", "item_p50_s @ transfer"),
    ("morphisms.verify.calls", "count", "lower", "wall_s @ grid"),
    ("morphisms.verify.self_s", "s", "lower", "wall_s @ grid"),
    ("regularity.regularity_check.calls", "count", "lower", "wall_s, item_p50_s @ transfer"),
    ("regularity.regularity_check.self_s", "s", "lower", "wall_s, item_p50_s @ transfer"),
    ("regularity.regularity_check.violated_ratio", "share", "lower", "wall_s, item_p50_s @ transfer"),
    ("regularity.sampled.self_s", "s", "lower", "wall_s, item_p50_s @ transfer"),
    ("regularity.exhaustive.self_s", "s", "lower", "wall_s, item_p50_s @ transfer"),
    ("regularity.samples_per_s", "1/s", "higher", "wall_s, item_p50_s @ transfer"),
    ("regularity.fixed_k_partition.self_s", "s", "lower", "wall_s, item_p50_s @ transfer"),
    ("drc.drc_select.calls", "count", "lower", "wall_s, item_tail_s @ grid"),
    ("drc.drc_select.self_s", "s", "lower", "wall_s, item_tail_s @ grid"),
    ("drc.tuples_per_s", "1/s", "higher", "wall_s, item_tail_s @ grid"),
    ("drc.bad_supports.calls", "count", "lower", "wall_s, item_tail_s @ grid"),
    ("drc.bad_supports.self_s", "s", "lower", "wall_s, item_tail_s @ grid"),
    ("drc.drc_properties.self_s", "s", "lower", "wall_s, item_tail_s @ grid"),
    ("drc.drc_bandwidth_embed.self_s", "s", "lower", "wall_s, item_tail_s @ grid"),
    ("drc.drc_bandwidth_embed.found_ratio", "share", "higher", "wall_s, item_tail_s @ grid"),
    ("generators.random_min_degree_host.calls", "count", "lower", "wall_s @ grid"),
    ("generators.random_min_degree_host.self_s", "s", "lower", "wall_s @ grid"),
    ("generators.random_coloring.self_s", "s", "lower", "setup_s @ transfer"),
    ("rga.rga_blowup_embed.calls", "count", "lower", "success_share @ grid, transfer"),
    ("rga.rga_blowup_embed.self_s", "s", "lower", "success_share @ grid, transfer"),
    ("rga.attempts_per_success", "count", "lower", "success_share @ grid, transfer"),
    ("rga.steps", "count", "lower", "success_share @ grid, transfer"),
    ("rga.aborts", "count", "lower", "success_share @ grid, transfer"),
    ("dense.wheel_mono_embed.calls", "count", "lower", "wall_s @ grid"),
    ("dense.wheel_mono_embed.self_s", "s", "lower", "wall_s @ grid"),
    ("bandwidth.heuristic_labeling.calls", "count", "lower", "wall_s @ grid"),
    ("bandwidth.heuristic_labeling.self_s", "s", "lower", "wall_s @ grid"),
    ("pipeline.transference_pipeline.calls", "count", "lower", "success_share @ transfer"),
    ("pipeline.transference_pipeline.self_s", "s", "lower", "success_share @ transfer"),
    ("pipeline.failed.partition", "count", "lower", "success_share @ transfer"),
    ("pipeline.failed.reduced_graph", "count", "lower", "success_share @ transfer"),
    ("pipeline.failed.capacity_homomorphism", "count", "lower", "success_share @ transfer"),
    ("pipeline.failed.blowup_embedding", "count", "lower", "success_share @ transfer"),
    ("harness.run_experiment.self_s", "s", "lower", "wall_s @ grid"),
    ("harness.cells_per_s", "1/s", "higher", "wall_s @ grid"),
    ("harness.cpu_util", "share", "higher", "wall_s @ grid"),
    ("trace.overhead_s", "s", "lower", "none: cost of the traced run"),
    ("trace.coverage", "share", "higher", "none: share of traced wall_s inside spans"),
)

UNITS = {name: unit for name, unit, _, _ in PER_LAYER}

def _found(rec: SpanStats, args: tuple, kwargs: dict, result: object) -> None:
    if result is not None and result is not False:
        rec.count("found")


def _nodes(rec: SpanStats, args: tuple, kwargs: dict, result) -> None:
    rec.count("nodes", result.nodes)


def _verdict(rec: SpanStats, args: tuple, kwargs: dict, result) -> None:
    rec.count("samples", result.samples_tried)
    if result.status == regularity.VIOLATED:
        rec.count("violated")


def _tuples(rec: SpanStats, args: tuple, kwargs: dict, result) -> None:
    # drc_select enumerates every multiset of vertices when the count fits
    # its tuple budget and draws `trials` samples otherwise.
    bound = inspect.signature(drc.drc_select).bind(*args, **kwargs)
    bound.apply_defaults()
    a = bound.arguments
    multisets = math.comb(a["g"].n + a["max_deg"] - 1, a["max_deg"])
    rec.count("tuples", multisets if multisets <= a["tuple_budget"] else a["trials"])


def _with_rga_stats(args: tuple, kwargs: dict) -> dict:
    # stats is rga_blowup_embed's ninth parameter; callers pass it by keyword
    if len(args) < 9 and kwargs.get("stats") is None:
        kwargs = {**kwargs, "stats": rga.RgaStats()}
    return kwargs


def _takes_rga_stats() -> bool:
    fn = getattr(rga, "rga_blowup_embed", None)
    return hasattr(rga, "RgaStats") and fn is not None and "stats" in inspect.signature(fn).parameters


def _rga(rec: SpanStats, args: tuple, kwargs: dict, result) -> None:
    stats = kwargs.get("stats")
    if stats is not None:
        rec.count("attempts", stats.attempts)
        rec.count("steps", stats.steps)
        rec.count("aborts", len(stats.aborts))
    if result is not None:
        rec.count("found")


def _stage(rec: SpanStats, args: tuple, kwargs: dict, result) -> None:
    if result.failed_stage is not None:
        rec.count(result.failed_stage)


def _regularity_check(tracer: Tracer, owner: object) -> None:
    # one span name per mode, so that each mode's self time has its own record
    if not tracer.has(owner, "regularity_check"):
        return
    fn = owner.regularity_check
    sampled = tracer.wrap("regularity.sampled", fn, hook=_verdict)
    exhaustive = tracer.wrap("regularity.exhaustive", fn, hook=_verdict)

    def by_mode(*args, **kwargs):
        mode = args[4] if len(args) > 4 else kwargs.get("mode", regularity.MODE_EXHAUSTIVE)
        return (sampled if mode == regularity.MODE_SAMPLED else exhaustive)(*args, **kwargs)

    tracer.replace(owner, "regularity_check", by_mode)


def install(tracer: Tracer) -> None:
    """Wrap every binding the workloads reach; tracer.restore() undoes it."""
    p = tracer.patch
    p(graphs.Graph, "from_adj", "graphs.from_adj")
    for owner in (regularity, pipeline, dense):
        p(owner, "pair_density", "graphs.pair_density")
    for owner in (oracles, harness, pipeline, rga, drc, dense):
        p(owner, "verify_homomorphism", "morphisms.verify")
    for owner in (oracles, dense):
        p(owner, "verify_capacity", "morphisms.verify")

    p(oracles, "plain_embeds", "oracles.plain_embeds", hook=_found)
    p(oracles, "find_weighted_embedding", "morphisms.find_weighted_embedding", hook=_found)
    tracer.count_yields(oracles, "hosts_with_min_degree", "oracles.hosts")
    for owner in (oracles, harness):
        for fn in ("ramsey_number", "weighted_ramsey", "stable_ramsey"):
            p(owner, fn, f"oracles.{fn}")

    p(pipeline, "find_capacity_homomorphism", "morphisms.find_capacity_homomorphism", hook=_nodes)
    for owner in (regularity, pipeline):
        _regularity_check(tracer, owner)
    p(pipeline, "fixed_k_partition", "regularity.fixed_k_partition")

    for owner in (harness, drc):
        p(owner, "drc_select", "drc.drc_select", hook=_tuples)
    p(drc, "bad_supports", "drc.bad_supports")
    p(harness, "drc_properties", "drc.drc_properties")
    p(harness, "drc_bandwidth_embed", "drc.drc_bandwidth_embed", hook=_found)

    p(generators, "random_min_degree_host", "generators.random_min_degree_host")
    p(generators, "random_coloring", "generators.random_coloring")
    prepare = _with_rga_stats if _takes_rga_stats() else None
    for owner in (harness, pipeline):
        p(owner, "rga_blowup_embed", "rga.rga_blowup_embed", hook=_rga, prepare=prepare)
    p(harness, "wheel_mono_embed", "dense.wheel_mono_embed")
    p(harness, "heuristic_labeling", "bandwidth.heuristic_labeling")
    p(pipeline, "transference_pipeline", "pipeline.transference_pipeline", hook=_stage)
    p(harness, "run_experiment", "harness.run_experiment")


def per_layer(stats: dict[str, SpanStats], rounds: int, extra: dict[str, float]) -> dict:
    """Per-layer metrics from span stats summed over `rounds` traced rounds.

    Counts and times are per traced round; a ratio whose base is 0 reads 0.
    `extra` carries the metrics measured outside spans (trace.*, harness.*).
    """

    def rec(name: str) -> SpanStats:
        return stats.get(name, SpanStats())

    def per_round(value: float) -> float:
        return value / rounds

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    reg_calls = rec("regularity.sampled").calls + rec("regularity.exhaustive").calls
    reg_violated = sum(
        rec(n).counters.get("violated", 0) for n in ("regularity.sampled", "regularity.exhaustive")
    )
    out = {
        "oracles.hosts": per_round(rec("oracles.hosts").calls),
        "regularity.regularity_check.calls": per_round(reg_calls),
        "regularity.regularity_check.self_s": per_round(
            rec("regularity.sampled").self_s + rec("regularity.exhaustive").self_s
        ),
        "regularity.regularity_check.violated_ratio": ratio(reg_violated, reg_calls),
        "regularity.samples_per_s": ratio(
            rec("regularity.sampled").counters.get("samples", 0),
            rec("regularity.sampled").total_s,
        ),
        "drc.tuples_per_s": ratio(
            rec("drc.drc_select").counters.get("tuples", 0), rec("drc.drc_select").total_s
        ),
        "rga.attempts_per_success": ratio(
            rec("rga.rga_blowup_embed").counters.get("attempts", 0),
            rec("rga.rga_blowup_embed").counters.get("found", 0),
        ),
        "rga.steps": per_round(rec("rga.rga_blowup_embed").counters.get("steps", 0)),
        "rga.aborts": per_round(rec("rga.rga_blowup_embed").counters.get("aborts", 0)),
    }
    for stage in ("partition", "reduced_graph", "capacity_homomorphism", "blowup_embedding"):
        out[f"pipeline.failed.{stage}"] = per_round(
            rec("pipeline.transference_pipeline").counters.get(stage, 0)
        )
    for name, _, _, _ in PER_LAYER:
        if name in out or name in extra:
            continue
        span, _, field_ = name.rpartition(".")
        r = rec(span)
        if field_ == "calls":
            out[name] = per_round(r.calls)
        elif field_ == "self_s":
            out[name] = per_round(r.self_s)
        elif field_ == "nodes":
            out[name] = per_round(r.counters.get("nodes", 0))
        elif field_ == "found_ratio":
            out[name] = ratio(r.counters.get("found", 0), r.calls)
        else:
            raise KeyError(name)
    out.update(extra)
    return {name: out[name] for name, _, _, _ in PER_LAYER}
