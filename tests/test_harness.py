from __future__ import annotations

import dataclasses
import json

import pytest

from ramsey_forge.harness import (
    CSV_COLUMNS,
    CellResult,
    ConfigError,
    ExperimentConfig,
    VerificationError,
    load_config,
    render_csv,
    run_experiment,
)


def ramsey_cfg(**kw) -> ExperimentConfig:
    base = dict(
        task="ramsey",
        instances=({"target": {"kind": "complete", "params": [3]}, "n_max": 6},),
        seeds=(0,),
    )
    base.update(kw)
    return ExperimentConfig(**base)


def test_empty_seed_list_header_only():
    cfg = ramsey_cfg(seeds=())
    rows, summary = run_experiment(cfg)
    assert rows == []
    assert render_csv(cfg, rows) == ",".join(CSV_COLUMNS) + "\n"
    assert summary["cells"] == 0


def test_ramsey_task_value():
    rows, summary = run_experiment(ramsey_cfg())
    assert len(rows) == 1
    _, _, res = rows[0]
    assert res.outcome == "value"
    assert res.value == "6"
    assert res.verified is True
    assert summary["successes"] == 1
    assert summary["values"] == ["6"]


def test_csv_identical_across_worker_counts():
    cfg = ExperimentConfig(
        task="wheel",
        instances=(
            {"host": {"kind": "complete", "params": [10]}, "k": 4},
            {"host": {"kind": "complete", "params": [12]}, "k": 5},
        ),
        seeds=(0, 1, 2, 3),
    )
    rows1, _ = run_experiment(cfg)
    csv1 = render_csv(cfg, rows1)
    cfg4 = dataclasses.replace(cfg, workers=4)
    rows4, _ = run_experiment(cfg4)
    csv4 = render_csv(cfg4, rows4)
    assert csv1 == csv4
    # rerun stability under threads
    rows4b, _ = run_experiment(cfg4)
    assert render_csv(cfg4, rows4b) == csv4


def test_verification_tripwire(monkeypatch):
    from ramsey_forge import harness

    def bad_task(instance, seed):
        return CellResult("some", "x", verified=False)

    monkeypatch.setitem(harness.TASKS, "ramsey", bad_task)
    with pytest.raises(VerificationError):
        run_experiment(ramsey_cfg())


def test_config_hash_ignores_worker_count():
    a = ramsey_cfg(workers=1)
    b = ramsey_cfg(workers=8)
    assert a.config_hash() == b.config_hash()
    c = ramsey_cfg(seeds=(1,))
    assert a.config_hash() != c.config_hash()


def test_load_config_and_outputs(tmp_path):
    csv_path = tmp_path / "out.csv"
    json_path = tmp_path / "out.json"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps(
            {
                "task": "ramsey",
                "instances": [{"target": {"kind": "path", "params": [3]}, "n_max": 4}],
                "seeds": [0],
                "output_csv": str(csv_path),
                "output_json": str(json_path),
            }
        )
    )
    cfg = load_config(str(cfg_path))
    rows, summary = run_experiment(cfg)
    text = csv_path.read_text()
    assert text.splitlines()[0] == ",".join(CSV_COLUMNS)
    assert "wall" not in text
    loaded = json.loads(json_path.read_text())
    assert loaded == summary
    assert loaded["values"] == ["3"]


def test_load_config_errors(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ConfigError):
        load_config(str(missing))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(bad))
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"task": "frobnicate", "instances": [], "seeds": []}))
    with pytest.raises(ConfigError):
        load_config(str(unknown))
    badseeds = tmp_path / "seeds.json"
    badseeds.write_text(json.dumps({"task": "ramsey", "instances": [], "seeds": ["a"]}))
    with pytest.raises(ConfigError):
        load_config(str(badseeds))


def test_bad_graph_spec():
    cfg = ramsey_cfg(instances=({"target": {"kind": "nonexistent"}, "n_max": 3},))
    with pytest.raises(ConfigError):
        run_experiment(cfg)


@pytest.mark.parametrize("task,extra", [("ramsey", {}), ("wramsey", {}), ("sramsey", {"eps": "1/4"})])
def test_oracle_instance_with_mode_rejected(task, extra):
    # the oracles have one search path; a config that still picks one fails loudly
    instance = {"target": {"kind": "complete", "params": [3]}, "n_max": 6, **extra}
    run_experiment(ramsey_cfg(task=task, instances=(instance,)))
    with pytest.raises(ConfigError):
        run_experiment(ramsey_cfg(task=task, instances=({**instance, "mode": "exhaustive"},)))


@pytest.mark.parametrize(
    "task,instance",
    [
        # weights on a plain ramsey target would be silently unit-weighted
        ("ramsey", {"target": {"kind": "cycle", "params": [4]}, "n_max": 6,
                    "weights": ["1/2", "1/2", "1/2", "1/2"]}),
        ("ramsey", {"target": {"kind": "complete", "params": [3]}, "nmax": 6}),
        ("ramsey", {"target": {"kind": "complete", "params": [3]}}),
        ("sramsey", {"target": {"kind": "complete", "params": [3]}, "n_max": 6}),
        ("wheel", {"host": {"kind": "complete", "params": [10]}, "k": 4, "seed": 1}),
        ("rga", {"base": {"kind": "complete", "params": [2]}, "part_size": 8}),
        ("drc", ["not", "an", "object"]),
    ],
)
def test_instance_keys_checked(task, instance):
    with pytest.raises(ConfigError):
        run_experiment(ramsey_cfg(task=task, instances=(instance,)))


def test_load_config_rejects_unknown_top_level_key(tmp_path):
    path = tmp_path / "cfg.json"
    cfg = {"task": "ramsey", "instances": [], "seeds": [0], "worker": 4}
    path.write_text(json.dumps(cfg))
    with pytest.raises(ConfigError, match="worker"):
        load_config(str(path))
    del cfg["worker"]
    path.write_text(json.dumps(cfg))
    assert load_config(str(path)).task == "ramsey"


def test_cli_exit_codes(tmp_path, monkeypatch, capsys):
    from ramsey_forge.cli import main

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps(
            {
                "task": "ramsey",
                "instances": [{"target": {"kind": "complete", "params": [3]}, "n_max": 6}],
                "seeds": [0],
            }
        )
    )
    assert main(["run", "--config", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert "successes" in out

    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["run", "--config", str(bad)]) == 1

    from ramsey_forge import harness

    monkeypatch.setitem(
        harness.TASKS, "ramsey", lambda inst, seed: CellResult("some", "x", verified=False)
    )
    assert main(["run", "--config", str(cfg_path)]) == 2

    # an oracle value whose witness coloring failed its recheck trips too
    monkeypatch.setitem(
        harness.TASKS, "ramsey", lambda inst, seed: CellResult("value", "6", verified=False)
    )
    assert main(["run", "--config", str(cfg_path)]) == 2
