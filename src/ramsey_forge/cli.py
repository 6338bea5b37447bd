"""Command line interface.

Exit codes: 0 success, 1 usage, input or config error, 2 verification tripwire.
A search that runs out of budget prints {"status": "budget_exhausted"} and
exits 0: an inconclusive answer is an answer.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import NoReturn

from . import fileio, generators
from .bandwidth import exact_bandwidth, heuristic_labeling
from .dense import dense_greedy_embed, lovasz_partition, wheel_mono_embed
from .drc import DegenerateBudget, drc_bandwidth_embed
from .graphs import Graph, WeightedGraph
from .harness import VerificationError, load_config, run_experiment
from .morphisms import (
    DEFAULT_BUDGET,
    BudgetExhausted,
    CapacityProfile,
    VertexMap,
    find_capacity_homomorphism,
    verify_capacity,
    verify_homomorphism,
)
from .oracles import stable_ramsey, weighted_ramsey, witness_verified
from .pipeline import PipelineParams, transference_pipeline
from .regularity import RegularityParams, fixed_k_partition, regularity_check
from .rga import RgaParams, blowup_instance, rga_blowup_embed


def _load_graph(path: str, fmt: str) -> Graph:
    obj = fileio.read_path(path, fmt)
    if not isinstance(obj, Graph):
        raise ValueError(f"{path}: expected a graph in format {fmt}")
    return obj


def _graph_arg(spec: str) -> Graph:
    """kind:params, e.g. cycle:5, complete:4, complete_multipartite:2,2,2."""
    kind, _, rest = spec.partition(":")
    params = [int(p) for p in rest.split(",")] if rest else []
    return generators.make_named(kind, params)


def _weights_arg(text: str | None, n: int) -> tuple[Fraction, ...]:
    if not text:
        return tuple(Fraction(1) for _ in range(n))
    parts = [Fraction(p) for p in text.split(",")]
    if len(parts) == 1:
        return tuple(parts * n)
    if len(parts) != n:
        raise ValueError(f"expected {n} weights, got {len(parts)}")
    return tuple(parts)


def _print_map(vmap: VertexMap | None) -> None:
    print(json.dumps({"status": "some" if vmap else "none", "image": list(vmap.image) if vmap else None}))


def cmd_gen(args: argparse.Namespace) -> int:
    g = _graph_arg(args.graph)
    sys.stdout.write(fileio.encode(g, args.format))
    return 0


def cmd_convert(args: argparse.Namespace) -> int:
    obj = fileio.read_path(args.input, args.from_format)
    if args.output:
        fileio.write_path(args.output, obj, args.to_format)
    else:
        sys.stdout.write(fileio.encode(obj, args.to_format))
    return 0


def cmd_hom(args: argparse.Namespace) -> int:
    g = _graph_arg(args.source)
    h = _graph_arg(args.target)
    if args.weights is not None:
        profile = CapacityProfile.weight_cap(_weights_arg(args.weights, g.n))
    else:
        profile = CapacityProfile.uniform_count_cap(h.n, args.count_cap)
    vmap = find_capacity_homomorphism(g, h, profile, budget=args.budget).vmap
    if vmap is not None and not (
        verify_homomorphism(g, h, vmap).valid and verify_capacity(vmap, profile).valid
    ):
        raise VerificationError(f"found map {list(vmap.image)} failed verification")
    print(json.dumps({"status": "found" if vmap else "none", "image": list(vmap.image) if vmap else None}))
    return 0


def cmd_bandwidth(args: argparse.Namespace) -> int:
    g = _graph_arg(args.graph)
    labels, width = heuristic_labeling(g)
    out = {"heuristic_width": width, "heuristic_labels": list(labels)}
    if args.exact:
        out["exact_bandwidth"] = exact_bandwidth(g)
    print(json.dumps(out))
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    g = _graph_arg(args.target)
    gw = WeightedGraph(g, _weights_arg(args.weights, g.n))
    if args.command == "sramsey":
        result = stable_ramsey(gw, Fraction(args.eps), args.n_max)
    else:
        result = weighted_ramsey(gw, args.n_max)
    if not witness_verified(result, gw):
        raise VerificationError(f"witness coloring on {result.witness_n} vertices holds a copy")
    print(
        json.dumps(
            {
                "status": result.status,
                "value": result.value,
                "n_max": result.n_max,
                "witness_n": result.witness_n,
            }
        )
    )
    return 0


def cmd_regularity(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph, args.format)
    params = RegularityParams(Fraction(args.epsilon))
    if args.pairs:
        xs, ys = args.pairs.split("/")
        verdict = regularity_check(
            g,
            [int(v) for v in xs.split(",")],
            [int(v) for v in ys.split(",")],
            params,
            args.mode,
        )
        print(
            json.dumps(
                {
                    "status": verdict.status,
                    "witness_x": sorted(verdict.witness_x) if verdict.witness_x else None,
                    "witness_y": sorted(verdict.witness_y) if verdict.witness_y else None,
                }
            )
        )
        return 0
    partition, report = fixed_k_partition(
        g, args.partition, params, seed=args.seed, retries=args.retries, mode=args.mode
    )
    print(
        json.dumps(
            {
                "k": partition.k,
                "exceptional": sorted(partition.exceptional),
                "per_class_bad": list(report.per_class_bad),
                "total_irregular_pairs": report.total_irregular_pairs,
                "all_classes_ok": report.all_classes_ok,
                "pairs_ok": report.pairs_ok,
                "exceptional_ok": report.exceptional_ok,
                "mode": args.mode,
            }
        )
    )
    return 0


def cmd_split_lovasz(args: argparse.Namespace) -> int:
    g = _graph_arg(args.graph)
    degrees = [int(d) for d in args.degrees.split(",")]
    classes = lovasz_partition(g, degrees)
    print(json.dumps({"classes": [sorted(c) for c in classes]}))
    return 0


def cmd_embed_dense(args: argparse.Namespace) -> int:
    host = _graph_arg(args.host)
    g = _graph_arg(args.source)
    gw = WeightedGraph(g, _weights_arg(args.weights, g.n))
    vmap = dense_greedy_embed(host, gw, Fraction(args.delta), (1 << host.n) - 1)
    _print_map(vmap)
    return 0


def cmd_embed_wheel(args: argparse.Namespace) -> int:
    coloring = fileio.read_path(args.coloring, fileio.FORMAT_COLORING)
    weights = _weights_arg(args.weights, args.k)
    hit = wheel_mono_embed(coloring, args.k, weights)
    if hit is None:
        print(json.dumps({"status": "none"}))
    else:
        color, vmap = hit
        print(json.dumps({"status": "some", "color": color, "image": list(vmap.image)}))
    return 0


def cmd_embed_rga(args: argparse.Namespace) -> int:
    base = _graph_arg(args.base)
    host, partition = blowup_instance(base, args.part_size)
    g = _graph_arg(args.source)
    f = VertexMap(g.n, base.n, tuple(int(v) for v in args.hom.split(",")))
    params = RgaParams(delta=Fraction(args.delta), xi=Fraction(args.xi))
    vmap = rga_blowup_embed(
        host, partition, base, g, f, params, seed=args.seed, retries=args.retries
    )
    _print_map(vmap)
    return 0


def cmd_embed_drc(args: argparse.Namespace) -> int:
    host = _graph_arg(args.host)
    h = _graph_arg(args.source)
    labels, _ = heuristic_labeling(h)
    beta = Fraction(args.beta) if args.beta else None
    try:
        vmap = drc_bandwidth_embed(
            host, h, labels, Fraction(args.alpha), seed=args.seed,
            max_deg=args.max_deg, beta=beta,
        )
    except DegenerateBudget as exc:
        print(json.dumps({"status": "degenerate_budget", "detail": str(exc)}))
        return 1
    _print_map(vmap)
    return 0


def cmd_transfer(args: argparse.Namespace) -> int:
    coloring = fileio.read_path(args.coloring, fileio.FORMAT_COLORING)
    g = _graph_arg(args.source)
    h = _graph_arg(args.template)
    f = VertexMap(g.n, h.n, tuple(int(v) for v in args.hom.split(",")))
    params = PipelineParams(
        eps=Fraction(args.epsilon), xi=Fraction(args.xi), k=args.k
    )
    result = transference_pipeline(g, h, f, coloring, params, seed=args.seed)
    print(
        json.dumps(
            {
                "status": "some" if result.ok else "none",
                "color": result.color,
                "failed_stage": result.failed_stage,
                "image": list(result.vmap.image) if result.vmap else None,
            }
        )
    )
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    rows, summary = run_experiment(cfg)
    print(json.dumps(summary, sort_keys=True))
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> NoReturn:
        # a usage error is an input error: exit 1, as 2 is the verification tripwire
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="ramsey-forge")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("gen", help="emit a named graph")
    s.add_argument("graph")
    s.add_argument("--format", default=fileio.FORMAT_EDGELIST, choices=fileio.FORMATS)
    s.set_defaults(fn=cmd_gen)

    s = sub.add_parser("convert", help="convert between file formats")
    s.add_argument("input")
    s.add_argument("--from", dest="from_format", required=True, choices=fileio.FORMATS)
    s.add_argument("--to", dest="to_format", required=True, choices=fileio.FORMATS)
    s.add_argument("--output")
    s.set_defaults(fn=cmd_convert)

    s = sub.add_parser("hom", help="homomorphism / weighted embedding search")
    s.add_argument("source")
    s.add_argument("target")
    s.add_argument("--weights")
    s.add_argument("--count-cap", type=int, default=1)
    s.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    s.set_defaults(fn=cmd_hom)

    s = sub.add_parser("bandwidth", help="bandwidth labeling")
    s.add_argument("graph")
    s.add_argument("--exact", action="store_true")
    s.set_defaults(fn=cmd_bandwidth)

    # ramsey is wramsey with unit weights
    for name in ("ramsey", "wramsey", "sramsey"):
        s = sub.add_parser(name, help=f"{name} oracle")
        s.add_argument("target")
        s.add_argument("--n-max", type=int, required=True)
        if name == "ramsey":
            s.set_defaults(weights=None)
        else:
            s.add_argument("--weights")
        if name == "sramsey":
            s.add_argument("--eps", required=True)
        s.set_defaults(fn=cmd_oracle)

    s = sub.add_parser("regularity", help="regular-pair check or partition report")
    s.add_argument("graph")
    s.add_argument("--format", default=fileio.FORMAT_EDGELIST, choices=fileio.FORMATS)
    what = s.add_mutually_exclusive_group(required=True)
    what.add_argument("--pairs", help="comma lists X/Y, e.g. 0,1,2/3,4,5")
    what.add_argument("--partition", type=int, help="class count k")
    s.add_argument("--epsilon", required=True)
    s.add_argument("--mode", default="exhaustive", choices=["exhaustive", "sampled"])
    s.add_argument("--seed", type=int, default=0, help="seeds --partition's shuffles")
    s.add_argument("--retries", type=int, default=0)
    s.set_defaults(fn=cmd_regularity)

    s = sub.add_parser("split-lovasz", help="degree-splitting partition")
    s.add_argument("graph")
    s.add_argument("--degrees", required=True)
    s.set_defaults(fn=cmd_split_lovasz)

    s = sub.add_parser("embed-dense", help="dense greedy weighted embedding")
    s.add_argument("host")
    s.add_argument("source")
    s.add_argument("--weights")
    s.add_argument("--delta", default="1/2")
    s.set_defaults(fn=cmd_embed_dense)

    s = sub.add_parser("embed-wheel", help="monochromatic wheel embedding")
    s.add_argument("coloring")
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--weights")
    s.set_defaults(fn=cmd_embed_wheel)

    s = sub.add_parser("embed-rga", help="randomized blow-up embedding")
    s.add_argument("base")
    s.add_argument("source")
    s.add_argument("--part-size", type=int, required=True)
    s.add_argument("--hom", required=True)
    s.add_argument("--delta", default="1/2")
    s.add_argument("--xi", default="1/4")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--retries", type=int, default=10)
    s.set_defaults(fn=cmd_embed_rga)

    s = sub.add_parser("embed-drc", help="bandwidth-block embedding")
    s.add_argument("host")
    s.add_argument("source")
    s.add_argument("--alpha", required=True)
    s.add_argument("--beta")
    s.add_argument("--max-deg", type=int)
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(fn=cmd_embed_drc)

    s = sub.add_parser("transfer", help="transference pipeline")
    s.add_argument("coloring")
    s.add_argument("source")
    s.add_argument("template")
    s.add_argument("--hom", required=True)
    s.add_argument("--epsilon", default="1/4")
    s.add_argument("--xi", default="1/4")
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(fn=cmd_transfer)

    s = sub.add_parser("run", help="run a config-driven experiment")
    s.add_argument("--config", required=True)
    s.set_defaults(fn=cmd_run)

    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except VerificationError as exc:
        print(f"verification tripwire: {exc}", file=sys.stderr)
        return 2
    except BudgetExhausted:
        print(json.dumps({"status": "budget_exhausted"}))
        return 0
    except (ValueError, OSError) as exc:  # ConfigError, ParseError and unreadable files
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
