"""Smoke test of the benchmark itself: each workload at minimal size.

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def smoke(workload: str, trace: int) -> subprocess.CompletedProcess:
    done = bench("--workload", workload, "--seed", "3", "--seconds", "0",
                 "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    return done


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload: str, trace: int) -> None:
    done = smoke(workload, trace)
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name, unit in declared.items():
        pattern = rf"^  {re.escape(name)} = \S+ {re.escape(unit)}(\s|$)"
        assert any(re.match(pattern, line) for line in lines), name
    assert any(line.startswith("context {") for line in lines)
    # every binding was found and every counter hook fitted its function
    assert not [line for line in lines if line.startswith("trace: ")]


def test_tracing_leaves_outputs_unchanged() -> None:
    def digest(trace: int) -> str:
        return next(
            line for line in smoke("transfer", trace).stdout.splitlines()
            if line.startswith("digest ")
        )

    assert digest(0) == digest(1)


def test_refuses_to_run_without_the_library(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
