from __future__ import annotations

import json
from fractions import Fraction

import pytest

from ramsey_forge import bandwidth, cli, fileio, generators as gen, oracles
from ramsey_forge.graphs import RED
from ramsey_forge.morphisms import SearchOutcome, VertexMap


def _run(argv: list[str]) -> int:
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse exits on usage errors and --help
        return exc.code


@pytest.fixture
def files(tmp_path):
    """Tiny input files: an edgelist of C6, a red/blue coloring of K6 and a
    ramsey config, by placeholder name."""
    edges = tmp_path / "c6.el"
    edges.write_text(fileio.encode(gen.cycle(6), fileio.FORMAT_EDGELIST))
    k6 = gen.complete(6)
    coloring = tmp_path / "k6.col"
    coloring.write_text(
        fileio.encode(gen.random_coloring(k6, Fraction(1, 2), 3), fileio.FORMAT_COLORING)
    )
    config = tmp_path / "cfg.json"
    config.write_text(
        json.dumps(
            {
                "task": "ramsey",
                "instances": [{"target": {"kind": "complete", "params": [3]}, "n_max": 6}],
                "seeds": [0],
            }
        )
    )
    return {"{edges}": str(edges), "{coloring}": str(coloring), "{config}": str(config)}


ORACLE_KEYS = {"status", "value", "n_max", "witness_n"}

# (argv, exit code, keys of the printed JSON object; None: output is not JSON)
CASES = [
    ("gen cycle:4", 0, None),
    ("convert {edges} --from edgelist --to graph6", 0, None),
    ("hom cycle:4 complete:2", 0, {"status", "image"}),
    ("bandwidth path:4 --exact", 0, {"heuristic_width", "heuristic_labels", "exact_bandwidth"}),
    ("ramsey complete:3 --n-max 6", 0, ORACLE_KEYS),
    ("wramsey complete:3 --n-max 6 --weights 1/2", 0, ORACLE_KEYS),
    ("sramsey complete:2 --n-max 3 --eps 1/4", 0, ORACLE_KEYS),
    ("regularity {edges} --epsilon 1/4 --pairs 0,2,4/1,3,5", 0, {"status", "witness_x", "witness_y"}),
    (
        "regularity {edges} --epsilon 1/4 --partition 2",
        0,
        {"k", "exceptional", "per_class_bad", "total_irregular_pairs", "all_classes_ok",
         "pairs_ok", "exceptional_ok", "mode"},
    ),
    ("split-lovasz cycle:6 --degrees 1,1", 0, {"classes"}),
    ("embed-dense complete:8 path:3", 0, {"status", "image"}),
    ("embed-wheel {coloring} --k 4", 0, {"status"}),
    ("embed-rga complete:2 path:3 --part-size 4 --hom 0,1,0", 0, {"status", "image"}),
    ("embed-drc complete:8 path:3 --alpha 1/2 --beta 1/2", 0, {"status", "image"}),
    ("embed-drc complete:8 path:3 --alpha 1/2", 1, {"status", "detail"}),  # degenerate budget
    ("transfer {coloring} path:3 complete:2 --hom 0,1,0 --k 2", 0,
     {"status", "color", "failed_stage", "image"}),
    ("run --config {config}", 0, {"config_hash", "successes"}),
    # usage errors exit 1, never argparse's 2 (the verification tripwire's code)
    ("", 1, None),
    ("ramsey cycle:4", 1, None),
    ("ramsey complete:3 --n-max 6 --mode exhaustive", 1, None),  # one search path
    ("regularity {edges} --epsilon 1/4", 1, None),
    ("regularity {edges} --epsilon 1/4 --pairs 0/1 --partition 2", 1, None),
    ("hom nonexistent:3 complete:2", 1, None),
    # no regularity output reads a density threshold
    ("regularity {edges} --epsilon 1/4 --partition 2 --delta 0", 1, None),
    ("regularity {edges} --epsilon 1/4 --pairs 0/1 --delta 1", 1, None),
    # the dense greedy reads --weights and --delta only
    ("embed-dense complete:8 path:3 --alpha 1/2", 1, None),
    # each format holds one kind of object: graph or coloring
    ("gen cycle:5 --format coloring", 1, None),
    ("convert {edges} --from edgelist --to coloring", 1, None),
    ("convert {coloring} --from coloring --to graph6", 1, None),
    # json-map is no format: an argparse choice error
    ("gen cycle:5 --format json-map", 1, None),
    ("convert {edges} --from edgelist --to json-map", 1, None),
]


@pytest.mark.parametrize("line,code,keys", CASES, ids=[c[0] or "(none)" for c in CASES])
def test_every_subcommand(line, code, keys, files, capsys):
    argv = [files.get(tok, tok) for tok in line.split()]
    assert _run(argv) == code
    out = capsys.readouterr().out
    if keys is not None:
        assert keys <= set(json.loads(out))
    elif code == 0:
        assert out


@pytest.mark.parametrize("command", ["ramsey", "wramsey", "sramsey"])
def test_oracle_witness_recheck_trips(command, monkeypatch, capsys):
    # a witness coloring that the recheck finds a copy in must exit 2, unprinted
    monkeypatch.setattr(oracles, "mono_copy_search", lambda coloring, gw: (RED, None))
    argv = [command, "complete:3", "--n-max", "6"] + (["--eps", "1/4"] if command == "sramsey" else [])
    assert _run(argv) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("eps", ["1", "3/2", "-1"])
def test_sramsey_eps_outside_the_unit_interval_is_an_error(eps, capsys):
    assert _run(["sramsey", "cycle:4", "--n-max", "5", "--eps", eps]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: eps must lie in [0, 1)\n"


@pytest.mark.parametrize(
    "args, message",
    [
        (["--alpha", "0", "--beta", "1/16"], "alpha must lie in (0, 1], got 0"),
        (["--alpha=-1/2", "--beta", "1/16"], "alpha must lie in (0, 1], got -1/2"),
        (["--alpha", "3/2", "--beta", "1/16"], "alpha must lie in (0, 1], got 3/2"),
        (["--alpha", "1/2", "--beta=-1/16"], "beta must be nonnegative, got -1/16"),
    ],
)
def test_embed_drc_alpha_or_beta_out_of_range_is_an_error(args, message, capsys):
    assert _run(["embed-drc", "complete:40", "cycle:8", *args]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_embed_drc_starvation_is_an_answer(capsys):
    # P6 has no injective copy in K_2: a block opens with both vertices used
    args = ["--alpha", "1/2", "--beta", "1/2", "--max-deg", "1"]
    assert _run(["embed-drc", "complete:2", "path:6", *args]) == 0
    assert capsys.readouterr().out == '{"status": "none", "image": null}\n'


@pytest.mark.parametrize("command", ["ramsey", "wramsey", "sramsey"])
def test_oracle_out_of_budget_prints_inconclusive(command, monkeypatch, capsys):
    monkeypatch.setattr(oracles, "COLORING_BUDGET", 0)
    argv = [command, "complete:3", "--n-max", "6"] + (["--eps", "1/4"] if command == "sramsey" else [])
    assert _run(argv) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["status"], out["value"]) == (oracles.INCONCLUSIVE, None)


def test_hom_found_map_recheck_trips(monkeypatch, capsys):
    # a found map that fails its recheck must exit 2, unprinted: the all-zero
    # map of C4 into K2 sends every edge onto a non-edge
    bad = SearchOutcome(VertexMap(4, 2, (0, 0, 0, 0)), 1)
    monkeypatch.setattr(cli, "find_capacity_homomorphism", lambda *args, **kw: bad)
    assert _run(["hom", "cycle:4", "complete:2"]) == 2
    assert capsys.readouterr().out == ""


def test_bandwidth_out_of_budget_prints_budget_exhausted(monkeypatch, capsys):
    monkeypatch.setattr(bandwidth, "DEFAULT_BUDGET", 10)
    assert _run(["bandwidth", "hypercube:4", "--exact"]) == 0
    assert capsys.readouterr().out == '{"status": "budget_exhausted"}\n'


def test_cross_kind_convert_is_an_input_error_and_writes_nothing(files, tmp_path, capsys):
    out = tmp_path / "c6.col"
    argv = ["convert", files["{edges}"], "--from", "edgelist", "--to", "coloring"]
    assert _run(argv + ["--output", str(out)]) == 1
    assert capsys.readouterr().err == "error: format coloring holds EdgeColoring objects, not Graph\n"
    assert not out.exists()


def test_convert_output_writes_the_printed_bytes(files, tmp_path, capsys):
    argv = ["convert", files["{edges}"], "--from", "edgelist", "--to", "graph6"]
    assert _run(argv) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "c6.g6"
    assert _run(argv + ["--output", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text(encoding="ascii") == printed


@pytest.mark.parametrize(
    "line",
    [
        "convert {missing} --from edgelist --to graph6",
        "regularity {missing} --epsilon 1/4 --partition 2",
        "embed-wheel {missing} --k 4",
        "transfer {missing} path:3 complete:2 --hom 0,1,0 --k 2",
        "convert {edges} --from edgelist --to graph6 --output {nodir}",
    ],
)
def test_unreadable_or_unwritable_file_is_an_input_error(line, files, tmp_path, capsys):
    # an error line and exit 1, not a FileNotFoundError traceback
    files["{missing}"] = str(tmp_path / "missing.el")
    files["{nodir}"] = str(tmp_path / "nodir" / "out.g6")
    assert _run([files.get(tok, tok) for tok in line.split()]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: [Errno 2] No such file or directory: ")


def test_graph_without_params_is_an_input_error(capsys):
    assert _run(["hom", "complete", "cycle:4"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "complete" in err


def test_run_config_with_misspelt_key_is_an_input_error(tmp_path, capsys):
    # an instance key the task does not know is an error line and exit 1,
    # not a KeyError traceback
    config = tmp_path / "cfg.json"
    instance = {"target": {"kind": "complete", "params": [3]}, "nmax": 6}
    config.write_text(json.dumps({"task": "ramsey", "instances": [instance], "seeds": [0]}))
    assert _run(["run", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "nmax" in err
