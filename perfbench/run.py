"""ramsey-forge benchmark: one workload per run, timed from outside the library.

    python3 perfbench/run.py --workload oracle --seed 1 --seconds 30 --trace 0

Run from the repository root; the library is imported from src/.  With
--trace 0 the last line reports the end-to-end metrics; with --trace 1 it
reports the per-layer metrics of a run whose rounds alternate untraced and
traced.  Earlier lines give the run context, every metric in words (with the
ones that are not in BENCHMARK.json), the output digest and any failed check.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 11
TRACED_MIN_ROUNDS = 4  # two untraced and two traced rounds
DIGEST_ROUNDS = 2  # rounds every run makes, traced or not


def load_library() -> None:
    """Import ramsey_forge from this checkout's src/, never from elsewhere."""
    package = SRC / "ramsey_forge"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no library sources at {package}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import ramsey_forge

    if Path(ramsey_forge.__file__).resolve().parent != package:
        sys.exit(f"perfbench: imported ramsey_forge from {ramsey_forge.__file__}")


def parse_args(argv: list[str]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("oracle", "grid", "transfer"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="minimal inputs, for the smoke test")
    ap.add_argument("--setup-only", action="store_true",
                    help="import the library, build round 0's inputs and exit "
                         "(what setup_s times; the parent runs it)")
    return ap.parse_args(argv)


def setup_only(args: argparse.Namespace) -> int:
    """Import the library and build round 0's inputs under a Speedometer, as
    a child of measure_setup.  Print when that ended on CLOCK_MONOTONIC, the
    ticks' time and the scale."""
    import speed

    with speed.Speedometer() as meter:
        load_library()
        import workloads

        workloads.WORKLOADS[args.workload](args.seed, args.smoke).inputs(0)
        end = time.clock_gettime(time.CLOCK_MONOTONIC)
    print(end, meter.ticks_s, meter.scale)
    return 0


def measure_setup(args: argparse.Namespace) -> float:
    """Median time for a fresh interpreter to import the library and build
    one round's inputs, scaled to the reference speed as the workloads' times
    are (see speed.py).  The child samples the speed itself: the machine's
    speed can differ between the CPU the child runs on and the parent's.

    The child prints when it is done on CLOCK_MONOTONIC, which all processes
    share; timing the child's exit instead would add the parent's polling
    interval, which subprocess's timeout handling rounds to 50 ms steps.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--smoke"] if args.smoke else [])
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = subprocess.run(cmd, check=True, timeout=120, capture_output=True, text=True)
        end, ticks_s, scale = map(float, done.stdout.split()[-3:])
        times.append((end - start - ticks_s) * scale)
    return statistics.median(times)


def context(args: argparse.Namespace) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu": cpu_model(),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD's commit read from .git, or "unknown" outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """sha256 over the library's sources, which identifies the code measured
    where no git metadata is present."""
    h = hashlib.sha256()
    for path in sorted((SRC / "ramsey_forge").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def job_wall_s(rounds: list, raw: bool = False) -> float:
    """Time for one round's job: per slot, the median over rounds, summed.
    A slow spell on the machine then moves only the slots it overlapped."""
    slots = zip(*(ex.raw_s if raw else ex.slot_s for ex in rounds))
    return sum(statistics.median(times) for times in slots)


def percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[pct - 1]


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    os.environ.pop("RF_WORKERS", None)  # the harness would let it override workers
    if args.setup_only:
        return setup_only(args)
    load_library()
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, args.smoke)

    import layers
    import spans

    ctx = context(args)
    print("context " + json.dumps(ctx, sort_keys=True), flush=True)
    setup_s = measure_setup(args) if not args.trace else None

    tracer = spans.Tracer()
    setup_stats: dict = {}
    pass_stats: dict = {}
    pass_edges: dict = {}
    untraced, traced = [], []  # Executed per round
    items = []  # items of untraced rounds
    attempted = failed = 0
    digest = hashlib.sha256()
    min_rounds = TRACED_MIN_ROUNDS if args.trace else wl.min_rounds
    start = time.perf_counter()
    r = 0
    while r < min_rounds or time.perf_counter() - start < args.seconds:
        trace_round = bool(args.trace) and r % 2 == 1
        if trace_round:
            layers.install(tracer)
            tracer.stats, tracer.edges = setup_stats, {}
        inputs = wl.inputs(r)
        if trace_round:
            tracer.stats, tracer.edges = pass_stats, pass_edges
        try:
            executed = workloads.execute(wl.calls(inputs, trace_round))
        finally:
            tracer.restore()
        checked = wl.check(inputs, executed)
        (traced if trace_round else untraced).append(executed)
        if not trace_round:
            items += checked.items
        if r < DIGEST_ROUNDS:
            for line in checked.outputs:
                digest.update(line.encode() + b"\n")
        attempted += len(checked.items)
        failed += sum(not it.ok for it in checked.items)
        r += 1

    print(f"digest {args.workload} {digest.hexdigest()} (first {DIGEST_ROUNDS} rounds)")
    print(f"rounds {len(untraced)} untraced, {len(traced)} traced; "
          f"{attempted} items attempted, {failed} failed, "
          f"fail_share {failed / attempted:.6f} share")

    if args.trace:
        metrics = traced_metrics(wl, untraced, traced, setup_stats, pass_stats, pass_edges)
        units = layers.UNITS
        for name, _, _, moves in layers.PER_LAYER:
            print(f"  {name} = {metrics[name]:.6g} {units[name]}   (moves {moves})")
        for problem in sorted(tracer.problems):
            print(f"trace: {problem}")
        write_trace(args, ctx, metrics, setup_stats, pass_stats, pass_edges)
    else:
        latencies = [it.latency_s for it in items]
        searched = [it.embedded for it in items if it.embedded is not None]
        metrics = {
            "wall_s": job_wall_s(untraced),
            "item_p50_s": statistics.median(latencies),
            "item_tail_s": percentile(latencies, wl.tail_pct),
            "success_share": sum(searched) / len(searched),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": setup_s,
        }
        units = {"wall_s": "s", "item_p50_s": "s", "item_tail_s": "s",
                 "success_share": "share", "peak_rss_mb": "MB", "setup_s": "s"}
        for name, value in metrics.items():
            print(f"  {name} = {value:.6g} {units[name]}")
        print(f"  wall_s as measured, not scaled = {job_wall_s(untraced, raw=True):.6g} s")
        print(f"  item_tail_s is p{wl.tail_pct} of {len(latencies)} items")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def traced_metrics(wl, untraced, traced, setup_stats, pass_stats, pass_edges) -> dict:
    import layers
    import spans

    stats: dict = {}
    spans.merge_into(stats, setup_stats)
    spans.merge_into(stats, pass_stats)
    # spans and CPU times also cover the speedometer's ticks, so these ratios
    # use wall times as measured, ticks included
    untraced_wall = sum(sum(ex.raw_s) + sum(ex.tick_s) for ex in untraced)
    traced_wall = sum(sum(ex.raw_s) + sum(ex.tick_s) for ex in traced)
    extra = {
        "trace.overhead_s": job_wall_s(traced) - job_wall_s(untraced),
        "trace.coverage": spans.top_level_s(pass_edges) / traced_wall,
        "harness.cells_per_s": 0.0,
        "harness.cpu_util": 0.0,
    }
    if wl.name == "grid":
        cells = wl.items_per_round * len(untraced)
        cpu = sum(ex.cpu_s for ex in untraced)
        extra["harness.cells_per_s"] = cells / untraced_wall
        extra["harness.cpu_util"] = cpu / (untraced_wall * wl.workers)
    return layers.per_layer(stats, len(traced), extra)


def write_trace(args, ctx, metrics, setup_stats, pass_stats, pass_edges) -> None:
    """Write the span records kept in memory during the run."""
    def dump(stats: dict) -> dict:
        return {
            (k if isinstance(k, str) else " > ".join(k)): {
                "calls": v.calls, "total_s": v.total_s, "self_s": v.self_s, **v.counters
            }
            for k, v in sorted(stats.items())
        }

    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({
        "context": ctx,
        "per_layer": metrics,
        "setup_spans": dump(setup_stats),
        "round_spans": dump(pass_stats),
        "round_edges": dump(pass_edges),
    }, indent=1, sort_keys=True))
    print(f"spans written to {path.relative_to(ROOT)}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
