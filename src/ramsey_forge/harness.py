"""Config-driven experiment harness.

A run is a grid of (instance, seed) cells.  `ExperimentConfig.workers` is
the one place that sets how many run at once.  At w > 1 the cells split into
contiguous chunks of ceil(cells / w): this process runs the first, and
forked workers the rest, each over a pair of pipes that carry pickled chunks
and replies; no thread is started.  Workers are forked as runs need them, at
most w - 1, and kept until the interpreter exits.  A worker sees the library
as it stood at its fork, so the pool is forked anew when the task table
changes, and after an error escapes a run with replies outstanding.  A
worker that dies is a ChildProcessError.  Results are emitted in
deterministic cell order, so the CSV is byte-identical for any worker
count.  Each task declares its required and optional instance keys; a
missing or unknown instance key, a graph spec with a key other than `kind`
and `params` or the wrong parameter count, a float or boolean where an
integer is expected (graph parameters, seeds, workers and the integer
instance keys) or an exact rational (an integer or a "p/q" string: eps,
alpha, beta, red_prob, delta, xi, each weight and the rational graph
parameter), or an unknown top-level key in a config file, is a ConfigError
before any cell runs; a `weights` list of the wrong length, the empty list
included, is a ValueError when its cell runs.  Every positive result and
oracle witness is re-verified independently (a wheel map as a homomorphism
and against its weight capacity); a failed verification aborts the run
(soundness tripwire).  A drc cell reports the DRC lemma's selection
properties (i)-(iii), its conclusions for a host of density at least alpha:
outcome some when all hold, else none with the failed ones in its stage.
"""

from __future__ import annotations

import atexit
import contextlib
import csv
import hashlib
import io
import json
import os
import pickle
import time
from dataclasses import dataclass
from fractions import Fraction

from . import generators
from .drc import DegenerateBudget, drc_bandwidth_embed, drc_properties, drc_select
from .bandwidth import heuristic_labeling
from .dense import wheel_mono_embed
from .graphs import Graph, WeightedGraph, mask_of
from .morphisms import (
    CapacityProfile, VerificationError, VertexMap, verify_capacity, verify_homomorphism
)
from .oracles import OracleResult, ramsey_number, stable_ramsey, weighted_ramsey, witness_verified
from .rga import RgaParams, blowup_instance, rga_blowup_embed

SCHEMA_VERSION = "1"
CSV_COLUMNS = ("schema_version", "task", "instance", "seed", "outcome", "value", "verified", "stage")


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    task: str
    instances: tuple[dict, ...]
    seeds: tuple[int, ...]
    workers: int = 1
    output_csv: str | None = None
    output_json: str | None = None

    def canonical(self) -> str:
        return json.dumps(
            {
                "task": self.task,
                "instances": list(self.instances),
                "seeds": list(self.seeds),
            },
            sort_keys=True,
            separators=(",", ":"),
        )

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical().encode()).hexdigest()[:16]


@dataclass(slots=True)
class CellResult:
    outcome: str  # some | none | value | exceeds | infinite_suspected | inconclusive | error
    value: str = ""
    verified: bool | None = None
    stage: str = ""
    wall_time: float = 0.0


# graph kinds drawn from the cell's seed: kind -> (builder of (n, x, seed),
# parameter types)
_SEEDED_KINDS = {
    "random_min_degree_host": (
        lambda n, eps, seed: generators.random_min_degree_host(n, Fraction(eps), seed),
        (int, Fraction),
    ),
    "random_bounded_degree": (generators.random_bounded_degree_graph, (int, int)),
}


def _is_int(value: object) -> bool:
    # bool subclasses int, so a JSON true would otherwise read as 1
    return isinstance(value, int) and not isinstance(value, bool)


def _check_int(where: str, value: object) -> None:
    if not _is_int(value):
        raise ConfigError(f"{where}: expected an integer, got {value!r}")


def _check_ints(where: str, value: object) -> None:
    if not isinstance(value, (list, tuple)) or not all(map(_is_int, value)):
        raise ConfigError(f"{where}: expected a list of integers, got {value!r}")


def _check_rational(where: str, value: object) -> None:
    # a JSON float is a binary fraction: 0.1 would run as 3602879701896397/2**55
    if isinstance(value, str):
        try:
            Fraction(value)
            return
        except (ValueError, ZeroDivisionError):
            pass
    elif _is_int(value):
        return
    raise ConfigError(f"{where}: expected an integer or a 'p/q' string, got {value!r}")


def _check_rationals(where: str, value: object) -> None:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{where}: expected a list, got {value!r}")
    for entry in value:
        _check_rational(where, entry)


def _check_graph_spec(where: str, spec: object) -> None:
    if not isinstance(spec, dict) or "kind" not in spec or spec.keys() - {"kind", "params"}:
        raise ConfigError(
            f"{where}: a graph spec takes 'kind' and optionally 'params', got {spec!r}"
        )
    kind, params = spec["kind"], spec.get("params", [])
    if not isinstance(params, (list, tuple)):
        raise ConfigError(f"{where}: graph params must be a list, got {params!r}")
    if kind in _SEEDED_KINDS:
        types = _SEEDED_KINDS[kind][1]
        if len(params) != len(types):
            raise ConfigError(
                f"{where}: {kind} takes {len(types)} parameter(s), got {len(params)}"
            )
    else:
        try:
            generators.check_named(kind, params)
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from None
        types = (int,) * len(params)
    for p, t in zip(params, types):
        (_check_int if t is int else _check_rational)(f"{where} {kind} parameter", p)


def _make_graph(spec: dict, seed: int) -> Graph:
    kind, params = spec["kind"], spec.get("params", [])
    if kind in _SEEDED_KINDS:
        return _SEEDED_KINDS[kind][0](*params, seed)
    try:
        return generators.make_named(kind, params)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _weighted_target(instance: dict, seed: int) -> WeightedGraph:
    g = _make_graph(instance["target"], seed)
    if "weights" not in instance:
        return WeightedGraph.unit(g)
    return WeightedGraph(g, tuple(Fraction(w) for w in instance["weights"]))


def _oracle_cell(result: OracleResult, gw: WeightedGraph) -> CellResult:
    """An oracle's cell, verified when its witness coloring passes the recheck."""
    return CellResult(result.status, str(result.value or ""), witness_verified(result, gw))


def _task_ramsey(instance: dict, seed: int) -> CellResult:
    gw = WeightedGraph.unit(_make_graph(instance["target"], seed))
    return _oracle_cell(ramsey_number(gw.graph, instance["n_max"]), gw)


def _task_wramsey(instance: dict, seed: int) -> CellResult:
    gw = _weighted_target(instance, seed)
    return _oracle_cell(weighted_ramsey(gw, instance["n_max"]), gw)


def _task_sramsey(instance: dict, seed: int) -> CellResult:
    gw = _weighted_target(instance, seed)
    return _oracle_cell(stable_ramsey(gw, Fraction(instance["eps"]), instance["n_max"]), gw)


def _task_wheel(instance: dict, seed: int) -> CellResult:
    host = _make_graph(instance["host"], seed)
    coloring = generators.random_coloring(
        host, Fraction(instance.get("red_prob", "1/2")), seed
    )
    k = instance["k"]
    weights = tuple(Fraction(w) for w in instance.get("weights", ["1"] * k))
    hit = wheel_mono_embed(coloring, k, weights)
    if hit is None:
        return CellResult("none", verified=None, stage="greedy")
    color, vmap = hit
    ok = (
        verify_homomorphism(generators.wheel(k), coloring.subgraph(color), vmap).valid
        and verify_capacity(vmap, CapacityProfile.weight_cap(weights)).valid
    )
    return CellResult("some", color, ok)


def _task_drc(instance: dict, seed: int) -> CellResult:
    host = _make_graph(instance["host"], seed)
    max_deg = instance["max_deg"]
    alpha = Fraction(instance["alpha"])
    beta = Fraction(instance["beta"])
    sel = drc_select(
        host,
        range(host.n),
        max_deg,
        beta,
        trials=instance.get("trials", 100),
        seed=seed,
        alpha=alpha,
    )
    # the DRC lemma's conclusions, which need a host of density at least
    # alpha: drc_select rechecks its own winner, so a miss is an answer
    props = drc_properties(
        host, (1 << host.n) - 1, mask_of(sel.x), max_deg, alpha, beta
    )
    if not all(props):
        failed = [name for name, ok in zip(("(i)", "(ii)", "(iii)"), props) if not ok]
        return CellResult("none", stage="failed " + " ".join(failed))
    return CellResult("some", str(sel.size), True)


def _task_embed_drc(instance: dict, seed: int) -> CellResult:
    host = _make_graph(instance["host"], seed)
    h = _make_graph(instance["h"], seed)
    labels, _ = heuristic_labeling(h)
    alpha = Fraction(instance["alpha"])
    beta = Fraction(instance["beta"]) if "beta" in instance else None
    try:
        vmap = drc_bandwidth_embed(
            host, h, labels, alpha, seed=seed,
            max_deg=instance.get("max_deg"),
            beta=beta,
        )
    except DegenerateBudget as exc:
        return CellResult("degenerate_budget", stage=str(exc))
    if vmap is None:
        return CellResult("none", verified=None, stage="greedy")
    ok = vmap.is_injective() and verify_homomorphism(h, host, vmap).valid
    return CellResult("some", verified=ok)


def _task_rga(instance: dict, seed: int) -> CellResult:
    base = _make_graph(instance["base"], seed)
    host, partition = blowup_instance(base, instance["part_size"])
    g = _make_graph(instance["g"], seed)
    f = VertexMap(g.n, base.n, tuple(instance["hom"]))
    params = RgaParams(
        delta=Fraction(instance.get("delta", "1/2")),
        xi=Fraction(instance.get("xi", "1/4")),
    )
    vmap = rga_blowup_embed(
        host, partition, base, g, f, params,
        seed=seed, retries=instance.get("retries", 10),
    )
    if vmap is None:
        return CellResult("none", verified=None, stage="retries_exhausted")
    ok = vmap.is_injective() and verify_homomorphism(g, host, vmap).valid
    return CellResult("some", verified=ok)


TASKS = {
    "ramsey": _task_ramsey,
    "wramsey": _task_wramsey,
    "sramsey": _task_sramsey,
    "wheel": _task_wheel,
    "drc": _task_drc,
    "embed-drc": _task_embed_drc,
    "rga": _task_rga,
}

# task -> (required, optional) instance keys.  Any other key is a config
# error, not a setting the task silently ignores (`weights` on a plain
# ramsey target, a misspelt `nmax`, a `mode` on an oracle task).
INSTANCE_KEYS = {
    "ramsey": ({"target", "n_max"}, set()),
    "wramsey": ({"target", "n_max"}, {"weights"}),
    "sramsey": ({"target", "n_max", "eps"}, {"weights"}),
    "wheel": ({"host", "k"}, {"red_prob", "weights"}),
    "drc": ({"host", "max_deg", "alpha", "beta"}, {"trials"}),
    "embed-drc": ({"host", "h", "alpha"}, {"beta", "max_deg"}),
    "rga": ({"base", "part_size", "g", "hom"}, {"delta", "xi", "retries"}),
}

# typed instance keys -> their check: graph specs, integers, exact
# rationals, and hom, the list of base vertices the rga task maps g onto
KEY_CHECKS = {
    **dict.fromkeys(("target", "host", "h", "base", "g"), _check_graph_spec),
    **dict.fromkeys(("n_max", "k", "max_deg", "part_size", "trials", "retries"), _check_int),
    **dict.fromkeys(("eps", "alpha", "beta", "red_prob", "delta", "xi"), _check_rational),
    "weights": _check_rationals,
    "hom": _check_ints,
}

CONFIG_KEYS = {"task", "instances", "seeds", "workers", "output_csv", "output_json"}


def _check_instance(task: str, i: int, instance: object) -> None:
    if not isinstance(instance, dict):
        raise ConfigError(f"instance {i}: expected an object, got {instance!r}")
    required, optional = INSTANCE_KEYS[task]
    missing = sorted(required - instance.keys())
    unknown = sorted(instance.keys() - required - optional)
    if missing or unknown:
        raise ConfigError(
            f"{task} instance {i}: missing {missing}, unknown {unknown}; "
            f"it takes {sorted(required)}, optionally {sorted(optional)}"
        )
    for key in sorted(instance.keys() & KEY_CHECKS.keys()):
        KEY_CHECKS[key](f"{task} instance {i} {key!r}", instance[key])


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="ascii") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected a JSON object")
    unknown = sorted(data.keys() - CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"{path}: unknown keys {unknown} (known: {sorted(CONFIG_KEYS)})")
    task = data.get("task")
    if task not in TASKS:
        raise ConfigError(f"{path}: unknown task {task!r} (known: {sorted(TASKS)})")
    seeds = data.get("seeds", [])
    _check_ints(f"{path}: seeds", seeds)
    workers = data.get("workers", 1)
    _check_int(f"{path}: workers", workers)
    return ExperimentConfig(
        task=task,
        instances=tuple(data.get("instances", [])),
        seeds=tuple(seeds),
        workers=workers,
        output_csv=data.get("output_csv"),
        output_json=data.get("output_json"),
    )


# the task table at the workers' fork, and [(pid, chunk pipe, reply pipe), ...]
_POOL: tuple[tuple, list[tuple[int, io.BufferedWriter, io.BufferedReader]]] | None = None


def _run_chunk(task: str, instances: list[dict], seeds: list[int]) -> tuple[bool, object]:
    """A chunk's cells, each timed, as a reply: (True, the results in cell
    order) or (False, the first failing cell's error)."""
    results = []
    try:
        for instance, seed in zip(instances, seeds):
            start = time.perf_counter()
            results.append(TASKS[task](instance, seed))
            results[-1].wall_time = time.perf_counter() - start
    except Exception as exc:
        return False, exc
    return True, results


def _serve(chunks: io.BufferedReader, replies: io.BufferedWriter) -> None:
    """A worker's loop: a pickled reply to each pickled chunk, until the chunk pipe closes."""
    while chunks.peek(1):
        reply = _run_chunk(*pickle.load(chunks))
        try:
            data = pickle.dumps(reply)
        except Exception:
            data = pickle.dumps((False, RuntimeError(repr(reply[1]))))
        replies.write(data)
        replies.flush()


def _workers(count: int) -> list[tuple[int, io.BufferedWriter, io.BufferedReader]]:
    """The pool's first `count` workers, forking those it lacks.  A worker
    sees the task table as it stood at its fork, so a pool forked under
    another table is shut down first."""
    global _POOL
    key = tuple(TASKS.items())
    if _POOL is None or _POOL[0] != key:
        _shutdown_pool()
        _POOL = (key, [])
    workers = _POOL[1]
    while len(workers) < count:
        chunk_r, chunk_w = os.pipe()
        reply_r, reply_w = os.pipe()
        pid = os.fork()
        if pid == 0:  # leaves through os._exit: no parent atexit hook, no inherited stdio flush
            try:
                os.close(chunk_w)
                os.close(reply_r)
                with open(chunk_r, "rb") as chunks, open(reply_w, "wb") as replies:
                    _serve(chunks, replies)
                os._exit(0)
            finally:
                os._exit(1)
        os.close(chunk_r)
        os.close(reply_w)
        workers.append((pid, open(chunk_w, "wb"), open(reply_r, "rb")))
    return workers[:count]


@atexit.register
def _shutdown_pool() -> None:
    """Close the workers' pipes, which ends their loops, and reap each; at exit too."""
    global _POOL
    if _POOL is not None:
        workers, _POOL = _POOL[1], None
        for _, chunks, replies in workers:
            replies.close()
            with contextlib.suppress(OSError):  # the unsent rest of a chunk to a dead worker
                chunks.close()
        for pid, _, _ in workers:
            os.waitpid(pid, 0)


def run_experiment(cfg: ExperimentConfig) -> tuple[list[tuple[int, int, CellResult]], dict]:
    """Execute all cells and return (rows, summary); writes CSV/JSON when the
    config names output paths.  Raises VerificationError on any result
    that fails its independent recheck, oracle witnesses included."""
    if cfg.task not in TASKS:
        raise ConfigError(f"unknown task {cfg.task!r}")
    for i, instance in enumerate(cfg.instances):
        _check_instance(cfg.task, i, instance)
    cells = [(i, seed) for i in range(len(cfg.instances)) for seed in cfg.seeds]
    instances = [cfg.instances[i] for i, _ in cells]
    seeds = [seed for _, seed in cells]

    # one contiguous chunk per worker (a chunk per cell pays a round trip per
    # cell): this process runs the first, forked workers the rest
    size = max(1, -(-len(cells) // max(cfg.workers, 1)))
    head, *rest = [(cfg.task, instances[i:i + size], seeds[i:i + size])
                   for i in range(0, max(len(cells), 1), size)]
    workers = _workers(len(rest))
    try:
        for (_, chunks, _), chunk in zip(workers, rest):
            pickle.dump(chunk, chunks)
            chunks.flush()
        replies = [_run_chunk(*head)] + [pickle.load(r) for _, _, r in workers]
    except BaseException as exc:
        _shutdown_pool()  # replies may be outstanding, which a later run would read
        if isinstance(exc, (BrokenPipeError, EOFError, pickle.UnpicklingError)):  # a worker died
            raise ChildProcessError("a harness worker died") from None
        raise
    results = []
    for ok, value in replies:  # the first failing cell's error, in cell order
        if not ok:
            raise value
        results += value
    rows = [(i, seed, res) for (i, seed), res in zip(cells, results)]
    for i, seed, res in rows:
        if res.verified is False:
            raise VerificationError(
                f"instance {i} seed {seed}: {res.outcome} result failed verification"
            )

    successes = sum(1 for _, _, r in rows if r.outcome in ("some", "value"))
    summary = {
        "config_hash": cfg.config_hash(),
        "task": cfg.task,
        "cells": len(rows),
        "successes": successes,
        "success_rate": f"{Fraction(successes, len(rows))}" if rows else "0",
        "values": sorted({r.value for _, _, r in rows if r.value}),
    }

    if cfg.output_csv:
        with open(cfg.output_csv, "w", encoding="ascii", newline="") as fh:
            fh.write(render_csv(cfg, rows))
    if cfg.output_json:
        with open(cfg.output_json, "w", encoding="ascii") as fh:
            json.dump(summary, fh, sort_keys=True, indent=2)
            fh.write("\n")
    return rows, summary


def render_csv(cfg: ExperimentConfig, rows: list[tuple[int, int, CellResult]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for i, seed, r in rows:
        writer.writerow(
            [
                SCHEMA_VERSION,
                cfg.task,
                i,
                seed,
                r.outcome,
                r.value,
                "" if r.verified is None else str(r.verified).lower(),
                r.stage,
            ]
        )
    return buf.getvalue()
