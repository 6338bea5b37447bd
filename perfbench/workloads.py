"""The benchmark's workloads: seeded inputs, the timed job, and its checks.

A run repeats rounds.  Round r of a workload draws its inputs from
(benchmark seed, r); each timed call into the library is a slot, and every
round has the same slots.  `execute` times the calls and nothing else;
`check` then verifies every output outside the timed region and outside any
tracing, and returns one Item per user-visible result plus the output lines
that feed the run's digest.

Times are reported at a fixed machine speed: see speed.py.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import speed
from ramsey_forge import generators, harness, oracles, pipeline
from ramsey_forge.graphs import COLORS, Graph, WeightedGraph
from ramsey_forge.morphisms import VertexMap, verify_homomorphism


@dataclass
class Item:
    latency_s: float
    ok: bool  # passed every check
    embedded: bool | None = None  # None: not an embedding search


@dataclass
class Executed:
    slot_s: list[float]  # scaled to the reference speed
    raw_s: list[float]  # as measured, less the speedometer's ticks
    tick_s: list[float]  # the speedometer's ticks, which spans include
    scale: list[float]  # slot_s[i] / raw_s[i]
    cpu_s: float
    results: list[Any]  # one per slot; an exception the call raised counts as a result


@dataclass
class Checked:
    items: list[Item]
    outputs: list[str]  # canonical output text, in item order


def execute(calls: list[Callable[[], Any]]) -> Executed:
    """Time each call in turn under a speed.Speedometer.  CPU time counts
    every thread of the process and every child it waited for."""
    raw_s = []
    tick_s = []
    scale = []
    results = []
    cpu_before = _cpu()
    for call in calls:
        with speed.Speedometer() as meter:
            try:
                result = call()
            except Exception as exc:  # noqa: BLE001 - any library error is a failed item
                result = exc
        raw_s.append(meter.raw_s)
        tick_s.append(meter.ticks_s)
        scale.append(meter.scale)
        results.append(result)
    slot_s = [t * k for t, k in zip(raw_s, scale)]
    return Executed(slot_s, raw_s, tick_s, scale, _cpu() - cpu_before, results)


def _cpu() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


class Workload:
    name = ""
    tail_pct = 50  # the latency percentile reported as item_tail_s
    items_per_round = 1

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.smoke = smoke

    @property
    def min_rounds(self) -> int:
        """Rounds that leave at least 10 items beyond the tail percentile."""
        if self.smoke:
            return 2
        beyond = (100 - self.tail_pct) / 100 * self.items_per_round
        return math.ceil(10 / beyond)

    def rng(self, r: int, salt: str = "") -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{r}:{salt}")

    def inputs(self, r: int) -> Any:
        raise NotImplementedError

    def calls(self, inputs: Any, traced: bool) -> list[Callable[[], Any]]:
        raise NotImplementedError

    def check(self, inputs: Any, executed: Executed) -> Checked:
        raise NotImplementedError


# ---------------------------------------------------------------- oracle


@dataclass(frozen=True)
class Query:
    label: str
    kind: str  # ramsey | weighted | stable
    gw: WeightedGraph
    n_max: int
    status: str  # pinned by the reason below
    value: int | None
    reason: str
    eps: Fraction | None = None

    def run(self) -> oracles.OracleResult:
        if self.kind == "ramsey":
            return oracles.ramsey_number(self.gw.graph, self.n_max)
        if self.kind == "weighted":
            return oracles.weighted_ramsey(self.gw, self.n_max)
        return oracles.stable_ramsey(self.gw, self.eps, self.n_max)


def _unit(g: Graph) -> WeightedGraph:
    return WeightedGraph.unit(g)


def oracle_queries(smoke: bool) -> tuple[Query, ...]:
    gen = generators
    half_c5 = WeightedGraph.uniform(gen.cycle(5), Fraction(1, 2))
    small = (
        Query("r(K3)", "ramsey", _unit(gen.complete(3)), 6, oracles.VALUE, 6,
              "r(K3) = 6"),
        Query("r(C4)", "ramsey", _unit(gen.cycle(4)), 7, oracles.VALUE, 6,
              "r(C4) = 6"),
        Query("wr(C5,1/2)", "weighted", half_c5, 8, oracles.VALUE, 5,
              "half weights embed any closed 5-walk, i.e. a C3 or C5; a colour "
              "avoids both iff it is bipartite, and K_n splits into two "
              "bipartite graphs iff n <= 4"),
    )
    if smoke:
        return small
    return small + (
        Query("r(P6)", "ramsey", _unit(gen.path(6)), 8, oracles.VALUE, 8,
              "Gerencser-Gyarfas: r(P_n) = n + floor(n/2) - 1"),
        Query("r(K1,4)", "ramsey", _unit(gen.complete_multipartite([1, 4])), 8,
              oracles.VALUE, 7, "r(K_{1,n}) = 2n - 1 for even n"),
        Query("r(C5)", "ramsey", _unit(gen.cycle(5)), 8, oracles.EXCEEDS, None,
              "r(C5) = 9 is past the cap of 8"),
        Query("r(K2,3)", "ramsey", _unit(gen.complete_multipartite([2, 3])), 8,
              oracles.EXCEEDS, None, "r(K_{2,3}) = 10 is past the cap of 8"),
        Query("sr_1/3(C4)", "stable", _unit(gen.cycle(4)), 6,
              oracles.INFINITE_SUSPECTED, None,
              "K_{2,2,2} is admissible at eps 1/3 and has a C4-free colouring",
              Fraction(1, 3)),
        Query("sr_1/4(C4)", "stable", _unit(gen.cycle(4)), 6, oracles.VALUE, 6,
              "at eps 1/4 only K_n is admissible for n <= 6, so sr = r(C4) = 6",
              Fraction(1, 4)),
    )


def _oracle_failure(q: Query, res: oracles.OracleResult) -> str | None:
    """Why res breaks the pinned value or its witness, or None if it holds."""
    if (res.status, res.value) != (q.status, q.value):
        return f"got {res.status} {res.value}, want {q.status} {q.value} ({q.reason})"
    return witness_failure(res, q.gw, q.eps)


def witness_failure(
    res: oracles.OracleResult, gw: WeightedGraph, eps: Fraction | None
) -> str | None:
    """Recheck the witness colouring: right order, admissible host, copy-free."""
    expect_n = res.n_max if res.status != oracles.VALUE else res.value - 1
    if expect_n < 1:
        return None
    coloring = res.witness_coloring
    if coloring is None or res.witness_n != expect_n:
        return f"witness on {res.witness_n} vertices, want {expect_n}"
    host = coloring.host
    if eps is None:
        if host.n != expect_n or host.edge_count() != expect_n * (expect_n - 1) // 2:
            return "witness host is not complete"
    elif host.min_degree() < oracles.min_degree_threshold(host.n, eps):
        return "witness host is not admissible"
    if oracles.mono_copy_search(coloring, gw) is not None:
        return "witness colouring contains a monochromatic copy"
    return None


def _oracle_output(label: str, res: Any) -> str:
    if isinstance(res, Exception):
        return f"{label} error {type(res).__name__}"
    coloring = res.witness_coloring
    red = coloring.red_adj if coloring is not None else None
    host = coloring.host.adj if coloring is not None else None
    return f"{label} {res.status} {res.value} {res.witness_n} {host} {red}"


class Oracle(Workload):
    """Exact queries at the current caps, plus seeded random small targets on
    which the plain and the unit-weighted oracle must agree."""

    name = "oracle"
    # the highest percentile with 10 of a 4-round run's 44 items beyond it;
    # it falls amid the r(C5) queries, not between two query sizes
    tail_pct = 77
    RANDOM_TARGETS = 2
    RANDOM_ORDER = 4
    RANDOM_CAP = 6

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed, smoke)
        self.queries = oracle_queries(smoke)
        self.items_per_round = len(self.queries) + self.RANDOM_TARGETS

    def inputs(self, r: int) -> list[Graph]:
        rng = self.rng(r)
        order = self.RANDOM_ORDER
        pairs = [(u, v) for u in range(order) for v in range(u + 1, order)]
        return [
            Graph(order, [e for e in pairs if rng.random() < 0.5])
            for _ in range(self.RANDOM_TARGETS)
        ]

    def calls(self, inputs: list[Graph], traced: bool) -> list[Callable[[], Any]]:
        cap = 5 if self.smoke else self.RANDOM_CAP

        def agreement(g: Graph) -> Callable[[], Any]:
            return lambda: (
                oracles.ramsey_number(g, cap),
                oracles.weighted_ramsey(_unit(g), cap),
            )

        return [q.run for q in self.queries] + [agreement(g) for g in inputs]

    def check(self, inputs: list[Graph], executed: Executed) -> Checked:
        items = []
        outputs = []
        n = len(self.queries)
        for q, res, t in zip(self.queries, executed.results, executed.slot_s):
            why = f"raised {res!r}" if isinstance(res, Exception) else _oracle_failure(q, res)
            _report(self.name, q.label, why)
            items.append(Item(t, why is None, why is None))
            outputs.append(_oracle_output(q.label, res))
        for i, (g, res, t) in enumerate(zip(inputs, executed.results[n:], executed.slot_s[n:])):
            label = f"random{i} {g.adj}"
            if isinstance(res, Exception):
                why = f"raised {res!r}"
                outputs.append(_oracle_output(label, res))
            else:
                plain, weighted = res
                why = None
                if (plain.status, plain.value) != (weighted.status, weighted.value):
                    why = "plain and unit-weighted oracles disagree"
                why = why or witness_failure(plain, _unit(g), None)
                why = why or witness_failure(weighted, _unit(g), None)
                outputs += [_oracle_output(label, plain), _oracle_output(label, weighted)]
            _report(self.name, label, why)
            items.append(Item(t, why is None, why is None))
        return Checked(items, outputs)


# ------------------------------------------------------------------ grid


def _host(n: int, eps: str) -> dict:
    return {"kind": "random_min_degree_host", "params": [n, eps]}


# (task, instances, seeds per round).  The parameters keep every drc
# selection property provable (min degree 3n/4 gives pair codegree >= n/2)
# and every bandwidth budget positive, so no cell has to fail.  The cell
# counts put item_p50_s amid the drc cells and item_tail_s amid the
# embed-drc cells rather than between two groups of cells.  A drc cell's
# time is spread evenly over about 6x, because the host generator draws its
# number of edge deletions uniformly; 16 of them a round keep the median of a
# run's drc cells steady from one seed to the next.
GRID = (
    ("drc", [{"host": _host(64, "1/4"), "max_deg": 2, "alpha": "3/4", "beta": "1/64"}], 16),
    ("embed-drc", [{"host": _host(64, "1/4"), "h": {"kind": "cycle", "params": [16]},
                    "alpha": "3/4", "beta": "1/32", "max_deg": 2}], 4),
    ("wheel", [{"host": {"kind": "complete", "params": [40]}, "k": 7},
               {"host": _host(48, "1/4"), "k": 6}], 1),
    ("rga", [{"base": {"kind": "cycle", "params": [3]}, "part_size": 24,
              "g": {"kind": "cycle", "params": [24]}, "hom": [0, 1, 2] * 8}], 2),
)

GRID_SMOKE = (
    ("drc", [{"host": _host(24, "1/4"), "max_deg": 2, "alpha": "3/4", "beta": "1/64"}], 1),
    ("embed-drc", [{"host": {"kind": "complete", "params": [32]},
                    "h": {"kind": "cycle", "params": [8]},
                    "alpha": "3/4", "beta": "1/16", "max_deg": 2}], 1),
    ("wheel", [{"host": {"kind": "complete", "params": [12]}, "k": 5}], 1),
    ("rga", [{"base": {"kind": "complete", "params": [2]}, "part_size": 8,
              "g": {"kind": "cycle", "params": [6]}, "hom": [0, 1] * 3}], 1),
)

EMBEDDING_TASKS = ("embed-drc", "wheel", "rga")
# outcomes a cell of each task may report without having failed
GRID_OUTCOMES = {
    "drc": {"some"},
    "embed-drc": {"some", "none"},
    "wheel": {"some", "none"},
    "rga": {"some", "none"},
}


class Grid(Workload):
    """harness.run_experiment over drc, embed-drc, wheel and rga grids."""

    name = "grid"
    tail_pct = 90

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed, smoke)
        self.grid = GRID_SMOKE if smoke else GRID
        self.items_per_round = sum(len(inst) * seeds for _, inst, seeds in self.grid)
        self.workers = os.cpu_count() or 1

    def inputs(self, r: int) -> list[harness.ExperimentConfig]:
        configs = []
        for task, instances, seeds in self.grid:
            drawn = self.rng(r, task).sample(range(1 << 30), seeds)
            configs.append(
                harness.ExperimentConfig(task, tuple(instances), tuple(drawn), self.workers)
            )
        return configs

    def calls(self, inputs: list[harness.ExperimentConfig], traced: bool):
        # spans are collected on the main thread only, so a traced round runs
        # its cells on one worker
        def run(cfg: harness.ExperimentConfig) -> Callable[[], Any]:
            if traced:
                cfg = harness.ExperimentConfig(cfg.task, cfg.instances, cfg.seeds, 1)
            return lambda: harness.run_experiment(cfg)[0]

        return [run(cfg) for cfg in inputs]

    def check(self, inputs: list[harness.ExperimentConfig], executed: Executed) -> Checked:
        items = []
        outputs = []
        for cfg, rows, t, scale in zip(inputs, executed.results, executed.slot_s,
                                       executed.scale):
            cells = len(cfg.instances) * len(cfg.seeds)
            if isinstance(rows, Exception):
                _report(self.name, cfg.task, f"raised {rows!r}")
                items += [Item(t / cells, False, False)] * cells
                outputs.append(f"{cfg.task} error {type(rows).__name__}")
                continue
            outputs.append(harness.render_csv(cfg, rows))
            for i, seed, res in rows:
                why = None
                if res.outcome not in GRID_OUTCOMES[cfg.task]:
                    why = f"outcome {res.outcome} {res.stage}"
                elif res.verified is False:
                    why = "verified=false"
                _report(self.name, f"{cfg.task} instance {i} seed {seed}", why)
                embedded = None
                if cfg.task in EMBEDDING_TASKS:
                    embedded = res.outcome == "some" and res.verified is True
                items.append(Item(res.wall_time * scale, why is None, embedded))
        return Checked(items, outputs)


# -------------------------------------------------------------- transfer


@dataclass(frozen=True)
class Template:
    label: str
    g: Graph
    h: Graph
    f: VertexMap


def _templates() -> dict[str, Template]:
    gen = generators
    k2, k3 = gen.complete(2), gen.complete(3)
    specs = {
        "C8/K2": (gen.cycle(8), k2, (0, 1) * 4),
        "C12/K2": (gen.cycle(12), k2, (0, 1) * 6),
        "C16/K2": (gen.cycle(16), k2, (0, 1) * 8),
        "P18/K2": (gen.path(18), k2, (0, 1) * 9),
        "C9/K3": (gen.cycle(9), k3, (0, 1, 2) * 3),
        "K222/K3": (gen.complete_multipartite([2, 2, 2]), k3, (0, 0, 1, 1, 2, 2)),
    }
    return {
        label: Template(label, g, h, VertexMap(g.n, h.n, image))
        for label, (g, h, image) in specs.items()
    }


# (template, host order, classes k, regularity mode) per slot of a round.
# Sampled mode is the pipeline's default.  Exhaustive mode caps sides at 16,
# so its hosts have classes of 8; K_80 in 10 classes makes an exhaustive call
# cost about what a sampled one does, which keeps the latency percentiles
# inside one cluster of items instead of in the gap between two.
TRANSFER = (
    ("C12/K2", 96, 8, "sampled"),
    ("C16/K2", 96, 8, "sampled"),
    ("P18/K2", 96, 8, "sampled"),
    ("C9/K3", 96, 8, "sampled"),
    ("K222/K3", 96, 8, "sampled"),
    ("C12/K2", 80, 10, "exhaustive"),
    ("C9/K3", 80, 10, "exhaustive"),
    ("K222/K3", 80, 10, "exhaustive"),
)

TRANSFER_SMOKE = (
    ("C8/K2", 32, 4, "sampled"),
    ("C8/K2", 32, 4, "exhaustive"),
)

PIPELINE_STAGES = {
    pipeline.STAGE_PARTITION,
    pipeline.STAGE_REDUCED,
    pipeline.STAGE_LIFT,
    pipeline.STAGE_EMBED,
}


@dataclass(frozen=True)
class Instance:
    template: Template
    coloring: Any
    params: pipeline.PipelineParams
    seed: int


class Transfer(Workload):
    """transference_pipeline on seeded random 1/2-colourings of K_n."""

    name = "transfer"
    tail_pct = 90

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed, smoke)
        self.slots = TRANSFER_SMOKE if smoke else TRANSFER
        self.items_per_round = len(self.slots)
        self.templates = _templates()

    def inputs(self, r: int) -> list[Instance]:
        rng = self.rng(r)
        out = []
        for label, n, k, mode in self.slots:
            host = generators.complete(n)
            coloring = generators.random_coloring(host, Fraction(1, 2), rng.randrange(1 << 30))
            params = pipeline.PipelineParams(eps=Fraction(1, 2), xi=Fraction(1, 4), k=k, mode=mode)
            out.append(Instance(self.templates[label], coloring, params, rng.randrange(1 << 30)))
        return out

    def calls(self, inputs: list[Instance], traced: bool):
        def run(x: Instance) -> Callable[[], Any]:
            t = x.template
            return lambda: pipeline.transference_pipeline(
                t.g, t.h, t.f, x.coloring, x.params, seed=x.seed
            )

        return [run(x) for x in inputs]

    def check(self, inputs: list[Instance], executed: Executed) -> Checked:
        items = []
        outputs = []
        for x, res, t in zip(inputs, executed.results, executed.slot_s):
            label = f"{x.template.label} {x.params.mode} seed {x.seed}"
            if isinstance(res, Exception):
                why = f"raised {res!r}"
                outputs.append(f"{label} error {type(res).__name__}")
            else:
                why = _pipeline_failure(x, res)
                image = res.vmap.image if res.vmap is not None else None
                outputs.append(f"{label} {res.color} {image} {res.failed_stage}")
            _report(self.name, label, why)
            items.append(Item(t, why is None, why is None and res.vmap is not None))
        return Checked(items, outputs)


def _pipeline_failure(x: Instance, res: pipeline.PipelineResult) -> str | None:
    if res.vmap is None:
        if res.failed_stage not in PIPELINE_STAGES:
            return f"no embedding and no known failed stage ({res.failed_stage})"
        return None
    if res.color not in COLORS:
        return f"embedding in unknown colour {res.color}"
    if not res.vmap.is_injective():
        return "embedding is not injective"
    mono = x.coloring.subgraph(res.color)
    if not verify_homomorphism(x.template.g, mono, res.vmap).valid:
        return "embedding misses an edge of the monochromatic subgraph"
    return None


def _report(workload: str, label: str, why: str | None) -> None:
    if why is not None:
        print(f"FAILED {workload} {label}: {why}", flush=True)


WORKLOADS: dict[str, type[Workload]] = {w.name: w for w in (Oracle, Grid, Transfer)}
