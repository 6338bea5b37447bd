from __future__ import annotations

import dataclasses
import json

import pytest

from ramsey_forge import harness, oracles
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
from ramsey_forge.morphisms import VertexMap


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


def test_ramsey_task_row_shows_inconclusive(monkeypatch):
    # out of coloring budget: the row says so, has no value and is no success
    monkeypatch.setattr(oracles, "COLORING_BUDGET", 0)
    cfg = ramsey_cfg()
    rows, summary = run_experiment(cfg)
    assert render_csv(cfg, rows).splitlines()[1].split(",")[4:7] == ["inconclusive", "", "true"]
    assert summary["successes"] == 0
    assert summary["values"] == []


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


@pytest.mark.parametrize(
    "task, instance",
    [
        ("ramsey", {"target": {"kind": "complete", "param": [3]}, "n_max": 6}),
        ("ramsey", {"target": {"kind": "complete"}, "n_max": 6}),
        ("ramsey", {"target": {"params": [3]}, "n_max": 6}),
        ("ramsey", {"target": "complete:3", "n_max": 6}),
        ("ramsey", {"target": {"kind": "complete", "params": 3}, "n_max": 6}),
        ("drc", {"host": {"kind": "random_min_degree_host", "params": [8, "1/4"], "seed": 5},
                 "max_deg": 2, "alpha": "1/4", "beta": "1/2"}),
        ("drc", {"host": {"kind": "random_min_degree_host", "params": [8]},
                 "max_deg": 2, "alpha": "1/4", "beta": "1/2"}),
        ("drc", {"host": {"kind": "random_bounded_degree", "params": [8, 3, 1]},
                 "max_deg": 2, "alpha": "1/4", "beta": "1/2"}),
        ("embed-drc", {"host": {"kind": "complete", "params": [8]},
                       "h": {"kind": "moebius", "params": [4]}, "alpha": "1/4"}),
        ("rga", {"base": {"kind": "cycle", "params": [3]}, "part_size": 8,
                 "g": {"kind": "cycle", "params": [6], "seed": 1}, "hom": [0, 1, 2] * 2}),
    ],
)
def test_graph_specs_checked_before_any_cell(task, instance, monkeypatch):
    ran = []
    monkeypatch.setitem(harness.TASKS, task, lambda inst, seed: ran.append(seed))
    good = {"target": {"kind": "complete", "params": [3]}, "n_max": 6}
    instances = (good, instance) if task == "ramsey" else (instance,)
    with pytest.raises(ConfigError):
        run_experiment(ramsey_cfg(task=task, instances=instances))
    assert ran == []


@pytest.mark.parametrize(
    "config, entry",
    [
        # each ran, truncated, before integers were checked: C4 with value 6,
        # K1 with value 1, a 12-vertex host, n_max 6, seed 1 and 2 workers
        ({"instances": [{"target": {"kind": "cycle", "params": [4.9]}, "n_max": 6}]},
         "'target' cycle parameter: expected an integer, got 4.9"),
        ({"instances": [{"target": {"kind": "complete", "params": [True]}, "n_max": 6}]},
         "'target' complete parameter: expected an integer, got True"),
        ({"task": "drc", "instances": [{
            "host": {"kind": "random_min_degree_host", "params": [12.7, "1/4"]},
            "max_deg": 2, "alpha": "3/4", "beta": "1/64"}]},
         "'host' random_min_degree_host parameter: expected an integer, got 12.7"),
        ({"instances": [{"target": {"kind": "cycle", "params": [4]}, "n_max": 6.5}]},
         "'n_max': expected an integer, got 6.5"),
        ({"seeds": [True]}, "seeds: expected a list of integers, got [True]"),
        ({"workers": 2.5}, "workers: expected an integer, got 2.5"),
    ],
    ids=["cycle-float", "complete-bool", "host-float", "n_max-float", "seeds-bool",
         "workers-float"],
)
def test_config_integers_checked_not_truncated(config, entry, tmp_path, monkeypatch, capsys):
    from ramsey_forge.cli import main

    ran = []
    for task in ("ramsey", "drc"):
        monkeypatch.setitem(harness.TASKS, task, lambda inst, seed: ran.append(seed))
    cfg = {"task": "ramsey", "seeds": [0],
           "instances": [{"target": {"kind": "cycle", "params": [4]}, "n_max": 6}], **config}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(path)]) == 1
    assert entry in capsys.readouterr().err
    assert ran == []


_HOST12 = {"kind": "random_min_degree_host", "params": [12, "1/4"]}
_RGA = {"base": {"kind": "cycle", "params": [3]}, "part_size": 8,
        "g": {"kind": "cycle", "params": [6]}, "hom": [0, 1, 2] * 2}


@pytest.mark.parametrize(
    "task, instance, entry",
    [
        # each ran before rationals were checked, a float as its binary
        # fraction (beta 0.1 as 3602879701896397/36028797018963968)
        ("sramsey", {"target": {"kind": "cycle", "params": [4]}, "n_max": 6, "eps": 0.25},
         "'eps': expected an integer or a 'p/q' string, got 0.25"),
        ("drc", {"host": _HOST12, "max_deg": 2, "alpha": 0.75, "beta": "1/64"},
         "'alpha': expected an integer or a 'p/q' string, got 0.75"),
        ("drc", {"host": _HOST12, "max_deg": 2, "alpha": "3/4", "beta": 0.1},
         "'beta': expected an integer or a 'p/q' string, got 0.1"),
        ("wheel", {"host": {"kind": "complete", "params": [8]}, "k": 4, "red_prob": True},
         "'red_prob': expected an integer or a 'p/q' string, got True"),
        ("rga", {**_RGA, "delta": 0.5},
         "'delta': expected an integer or a 'p/q' string, got 0.5"),
        ("rga", {**_RGA, "xi": False},
         "'xi': expected an integer or a 'p/q' string, got False"),
        ("wramsey", {"target": {"kind": "cycle", "params": [4]}, "n_max": 6,
                     "weights": ["1", 0.5, "1", "1"]},
         "'weights': expected an integer or a 'p/q' string, got 0.5"),
        ("drc", {"host": {"kind": "random_min_degree_host", "params": [12, 0.3]},
                 "max_deg": 2, "alpha": "3/4", "beta": "1/64"},
         "'host' random_min_degree_host parameter: expected an integer or a 'p/q' string, "
         "got 0.3"),
    ],
    ids=["eps-float", "alpha-float", "beta-float", "red_prob-bool", "delta-float", "xi-bool",
         "weight-float", "host-eps-float"],
)
def test_config_rationals_checked_not_rounded(task, instance, entry, tmp_path, monkeypatch,
                                              capsys):
    from ramsey_forge.cli import main

    ran = []
    monkeypatch.setitem(harness.TASKS, task, lambda inst, seed: ran.append(seed))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"task": task, "seeds": [0], "instances": [instance]}))
    assert main(["run", "--config", str(path)]) == 1
    assert f"{task} instance 0 {entry}" in capsys.readouterr().err
    assert ran == []


def test_config_rationals_accept_integers_and_fraction_strings():
    cfg = ramsey_cfg(task="drc", instances=(
        {"host": {"kind": "random_min_degree_host", "params": [12, "0.25"]},
         "max_deg": 2, "alpha": 1, "beta": "1/64"},
    ))
    rows, _ = run_experiment(cfg)
    assert [r.outcome for _, _, r in rows] == ["some"]
    for bad in ("1/0", "one half"):
        cfg = ramsey_cfg(task="drc", instances=(
            {"host": _HOST12, "max_deg": 2, "alpha": bad, "beta": "1/64"},
        ))
        with pytest.raises(ConfigError, match="'alpha': expected an integer or a 'p/q' string"):
            run_experiment(cfg)


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

    monkeypatch.setitem(
        harness.TASKS, "ramsey", lambda inst, seed: CellResult("some", "x", verified=False)
    )
    assert main(["run", "--config", str(cfg_path)]) == 2

    # an oracle value whose witness coloring failed its recheck trips too
    monkeypatch.setitem(
        harness.TASKS, "ramsey", lambda inst, seed: CellResult("value", "6", verified=False)
    )
    assert main(["run", "--config", str(cfg_path)]) == 2


def test_wheel_recheck_checks_weight_capacity(monkeypatch):
    # a homomorphism of W_5 into an all-red K_8 that sends rim vertices 0 and
    # 2 to host vertex 0: load 2 there, over the unit-weight capacity
    hit = ("red", VertexMap(5, 8, (0, 1, 0, 2, 3)))
    monkeypatch.setattr(harness, "wheel_mono_embed", lambda coloring, k, weights: hit)
    cfg = ExperimentConfig(
        task="wheel",
        instances=({"host": {"kind": "complete", "params": [8]}, "k": 5, "red_prob": "1"},),
        seeds=(1,),
    )
    with pytest.raises(VerificationError, match="instance 0 seed 1"):
        run_experiment(cfg)


def test_empty_weights_list_is_an_error(tmp_path, capsys):
    # [] is a weight list of the wrong length, as ["1/2"] is: not unit weights
    from ramsey_forge.cli import main

    target = {"kind": "cycle", "params": [4]}
    for weights in ([], ["1/2"]):
        instance = {"target": target, "n_max": 6, "weights": weights}
        with pytest.raises(ValueError, match="one weight per vertex"):
            run_experiment(ExperimentConfig("wramsey", (instance,), (0,)))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"task": "wramsey", "instances": [instance], "seeds": [0]}))
        assert main(["run", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: one weight per vertex required\n"


def test_sramsey_cell_eps_outside_the_unit_interval_is_an_error(tmp_path, capsys):
    from ramsey_forge.cli import main

    for eps in ("1", "3/2", -1):
        instance = {"target": {"kind": "cycle", "params": [4]}, "n_max": 5, "eps": eps}
        with pytest.raises(ValueError, match=r"^eps must lie in \[0, 1\)$"):
            run_experiment(ExperimentConfig("sramsey", (instance,), (0,)))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"task": "sramsey", "instances": [instance], "seeds": [0]}))
        assert main(["run", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: eps must lie in [0, 1)\n"


def test_embed_drc_cell_alpha_or_beta_out_of_range_raises(monkeypatch):
    # an input error, raised before the embedder does any work; a cell does
    # not report it as an outcome
    from ramsey_forge import drc

    monkeypatch.setattr(drc, "bipartition_of", None)  # never reached
    host = {"kind": "complete", "params": [40]}
    h = {"kind": "cycle", "params": [8]}
    for alpha, beta in (("0", "1/16"), ("-1/2", "1/16"), ("1/2", "-1/16")):
        instance = {"host": host, "h": h, "alpha": alpha, "beta": beta}
        with pytest.raises(ValueError, match="^(alpha|beta) must") as info:
            run_experiment(ExperimentConfig("embed-drc", (instance,), (0,)))
        assert type(info.value) is ValueError  # not DegenerateBudget


def test_drc_cell_outside_the_lemma_hypothesis_is_none(tmp_path, capsys):
    # alpha 1 is above the density of P_10: the selection guarantees are the
    # DRC lemma's conclusions for a dense enough host, so missing them is an
    # outcome, not a failed recheck
    from ramsey_forge.cli import main

    instance = {"host": {"kind": "path", "params": [10]}, "max_deg": 1, "alpha": "1", "beta": "1/8"}
    cfg = ExperimentConfig("drc", (instance,), (0,))
    rows, summary = run_experiment(cfg)
    assert render_csv(cfg, rows).splitlines()[1] == "1,drc,0,0,none,,,failed (i) (ii)"
    assert summary["successes"] == 0
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"task": "drc", "instances": [instance], "seeds": [0]}))
    assert main(["run", "--config", str(path)]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("workers", [1, 4])
def test_first_failing_cell_raises_at_any_worker_count(workers, monkeypatch):
    # cells run in (instance, seed) order; seeds 3 and 5 both fail, and the
    # run raises seed 3's error whatever the worker count
    def task(instance, seed):
        if seed in (3, 5):
            raise RuntimeError(f"cell with seed {seed}")
        return CellResult("value", str(seed), verified=True)

    monkeypatch.setitem(harness.TASKS, "ramsey", task)
    with pytest.raises(RuntimeError, match="^cell with seed 3$"):
        run_experiment(ramsey_cfg(seeds=tuple(range(8)), workers=workers))


def test_repeated_seed_gives_one_row_per_cell_at_any_worker_count():
    cfg = ExperimentConfig(
        task="wheel",
        instances=(
            {"host": {"kind": "complete", "params": [10]}, "k": 4},
            {"host": {"kind": "complete", "params": [12]}, "k": 5},
        ),
        seeds=(2, 0, 2),
    )
    rows1, _ = run_experiment(cfg)
    rows4, _ = run_experiment(dataclasses.replace(cfg, workers=4))
    assert [(i, seed) for i, seed, _ in rows1] == [(0, 2), (0, 0), (0, 2), (1, 2), (1, 0), (1, 2)]
    assert render_csv(cfg, rows1) == render_csv(cfg, rows4)
    lines = render_csv(cfg, rows1).splitlines()
    assert lines[1] == lines[3] and lines[4] == lines[6]
