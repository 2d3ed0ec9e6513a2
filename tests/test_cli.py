import argparse
import dataclasses
import errno
import json
import os
import subprocess
import sys
import time

import pytest

import peelsim.cli as cli
import peelsim.experiment as experiment
from peelsim import CSV_COLUMNS, ExperimentSpec, serialize_graph
from peelsim.cli import build_parser, main

from helpers import TwoArgError, assert_no_child, cap_address_space, path_graph

K22_GRID = "XX\nXX\n"
K22_EDGES = "2 2 4\n0 0\n0 1\n1 0\n1 1\n"


@pytest.fixture
def k22_grid(tmp_path):
    path = tmp_path / "k22.grid"
    path.write_text(K22_GRID)
    return str(path)


@pytest.fixture
def k22_edges(tmp_path):
    path = tmp_path / "k22.edges"
    path.write_text(K22_EDGES)
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------- gen

def test_gen_empty_graph(capsys):
    code, out, _ = run_cli(capsys, ["gen", "-n", "4", "-p", "0", "--seed", "9"])
    assert code == 0
    assert out == "4 4 0\n"


def test_gen_complete_rectangular(capsys):
    code, out, _ = run_cli(capsys, ["gen", "-n", "3", "--n-right", "2", "-p", "1"])
    assert code == 0
    assert out == "3 2 6\n0 0\n0 1\n1 0\n1 1\n2 0\n2 1\n"


def test_gen_seed_defaults_to_zero(capsys):
    _, explicit, _ = run_cli(capsys, ["gen", "-n", "6", "-p", "0.4", "--seed", "0"])
    _, default, _ = run_cli(capsys, ["gen", "-n", "6", "-p", "0.4"])
    assert explicit == default


def test_gen_is_reproducible(capsys):
    argv = ["gen", "-n", "8", "-p", "0.3", "--seed", "21"]
    assert run_cli(capsys, argv) == run_cli(capsys, argv)


def test_gen_output_file(capsys, tmp_path):
    target = tmp_path / "g.edges"
    code, out, _ = run_cli(capsys, ["gen", "-n", "4", "-p", "0", "--output", str(target)])
    assert code == 0 and out == ""
    assert target.read_text() == "4 4 0\n"


def test_gen_rejects_json(capsys):
    code, _, err = run_cli(capsys, ["gen", "-n", "4", "-p", "0", "--format", "json"])
    assert code == 2
    assert "gen" in err


def test_gen_rejects_bad_probability(capsys):
    code, _, err = run_cli(capsys, ["gen", "-n", "4", "-p", "1.5"])
    assert code == 2


def test_gen_too_large_for_memory_exits_two(capsys):
    # About 5e13 cells: numpy refuses the 364 TiB draw before allocating.
    code, out, err = run_cli(capsys, ["gen", "-n", "10000000", "-p", "0.5"])
    assert code == 2 and out == ""
    assert err.startswith("peelsim gen: ") and err.count("\n") == 1


# -------------------------------------------------------------------- decode

def test_decode_strict_failure(capsys, k22_grid):
    code, out, _ = run_cli(
        capsys, ["decode", "--grid", k22_grid, "--rounds", "10", "-t", "1", "--strict"]
    )
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "FAILURE residual_edges=4"
    assert lines[1] == "rounds_executed=10"
    # The report, then one line per round up to the fixpoint: K22 at t = 1
    # is one from the start, so the trace ends after an idle round per side.
    assert lines[2:] == ["round 1 side=cols cleared=0 edges_removed=0",
                         "round 2 side=rows cleared=0 edges_removed=0"]


def test_decode_without_strict_exits_zero(capsys, k22_grid):
    code, out, _ = run_cli(capsys, ["decode", "--grid", k22_grid, "--rounds", "10", "-t", "1"])
    assert code == 0
    assert out.startswith("FAILURE residual_edges=4")


def test_decode_success(capsys, tmp_path):
    grid = tmp_path / "one.grid"
    grid.write_text("X.\n..\n")
    code, out, _ = run_cli(capsys, ["decode", "--grid", str(grid), "--rounds", "1", "-t", "1", "--strict"])
    assert code == 0
    assert out.startswith("SUCCESS residual_edges=0")


def test_decode_json(capsys, k22_edges):
    code, out, _ = run_cli(
        capsys, ["decode", "--edges", k22_edges, "--rounds", "3", "-t", "1", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["success"] is False
    assert payload["residual_edges"] == 4
    assert payload["rounds_executed"] == 3
    idle = [{"side": side, "cleared": [], "edges_removed": 0} for side in ("rows", "cols")]
    assert payload["trace"] == idle


def test_decode_fixpoint(capsys, k22_edges, tmp_path):
    code, out, _ = run_cli(capsys, ["decode", "--edges", k22_edges, "--fixpoint", "-t", "1"])
    assert code == 0
    assert out.splitlines()[1] == "rounds_executed=0"

    path_file = tmp_path / "path.edges"
    path_file.write_text(serialize_graph(path_graph(4, start_left=True)))
    code, out, _ = run_cli(capsys, ["decode", "--edges", str(path_file), "--fixpoint", "-t", "1"])
    assert code == 0
    assert out.startswith("SUCCESS residual_edges=0")


def test_decode_usage_errors(capsys, k22_grid, k22_edges):
    assert run_cli(capsys, ["decode", "-t", "1", "--rounds", "1"])[0] == 2  # no input
    assert run_cli(capsys, ["decode", "--grid", k22_grid, "--edges", k22_edges,
                            "--rounds", "1", "-t", "1"])[0] == 2
    assert run_cli(capsys, ["decode", "--grid", k22_grid, "-t", "1"])[0] == 2  # no rounds
    assert run_cli(capsys, ["decode", "--grid", k22_grid, "--rounds", "1",
                            "--fixpoint", "-t", "1"])[0] == 2
    assert run_cli(capsys, ["decode", "--grid", "/nonexistent.grid",
                            "--rounds", "1", "-t", "1"])[0] == 2
    assert run_cli(capsys, ["decode", "--grid", k22_grid, "--rounds", "1", "-t", "1",
                            "--format", "csv"])[0] == 2


def test_decode_rejects_malformed_grid(capsys, tmp_path):
    bad = tmp_path / "bad.grid"
    bad.write_text("X.\nX\n")
    code, _, err = run_cli(capsys, ["decode", "--grid", str(bad), "--rounds", "1", "-t", "1"])
    assert code == 2
    assert "line 2" in err


@pytest.mark.parametrize("vertex", [str(2**70), "0.5"])
def test_decode_rejects_bad_vertex_index(capsys, tmp_path, vertex):
    path = tmp_path / "bad.edges"
    path.write_text(f"2 2 1\n0 {vertex}\n")
    code, out, err = run_cli(capsys, ["decode", "--edges", str(path), "--rounds", "1", "-t", "1"])
    assert code == 2 and out == ""
    assert err.startswith("peelsim decode: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["decode", "detect"])
def test_a_side_past_int64_exits_two(capsys, tmp_path, command):
    # decode's bincount overflowed on such a side, with a traceback.
    path = tmp_path / "wide.edges"
    path.write_text(f"{2**63} 2 1\n0 1\n")
    code, out, err = run_cli(capsys, [command, "--edges", str(path), "-r", "1", "-t", "1"])
    assert code == 2 and out == ""
    assert err.startswith(f"peelsim {command}: graph sides must be at most 2**63 - 1")
    assert err.count("\n") == 1


# -------------------------------------------------------------------- detect

def test_detect_config_present(capsys, k22_edges):
    code, out, _ = run_cli(capsys, ["detect", "--edges", k22_edges, "--kind", "config",
                                    "--rounds", "2", "-t", "1"])
    assert code == 0
    assert out == (
        "CONFIG PRESENT\n"
        "root 0\n"
        "layers 3\n"
        "layer 0 0\n"
        "layer 1 0 1\n"
        "layer 2 1\n"
        "2 2 4\n"
        "0 0\n0 1\n1 0\n1 1\n"
    )


def test_detect_config_absent(capsys, tmp_path):
    path_file = tmp_path / "path.edges"
    path_file.write_text(serialize_graph(path_graph(4, start_left=False)))
    code, out, _ = run_cli(capsys, ["detect", "--edges", str(path_file),
                                    "--rounds", "2", "-t", "1"])
    assert code == 0
    assert out == "CONFIG ABSENT\n"


def test_detect_config_json(capsys, k22_edges):
    code, out, _ = run_cli(capsys, ["detect", "--edges", k22_edges, "--rounds", "2",
                                    "-t", "1", "--format", "json"])
    assert code == 0
    payload = json.loads(out)["config"]
    assert payload["root"] == 0
    assert payload["layers"] == [[0], [0, 1], [1]]
    assert payload["edges"] == [[0, 0], [0, 1], [1, 0], [1, 1]]


def test_detect_cycle(capsys, k22_edges, tmp_path):
    code, out, _ = run_cli(capsys, ["detect", "--edges", k22_edges, "--kind", "cycle"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "CYCLE PRESENT length=4"
    assert len(lines) == 5

    tree = tmp_path / "tree.edges"
    tree.write_text(serialize_graph(path_graph(4)))
    code, out, _ = run_cli(capsys, ["detect", "--edges", str(tree), "--kind", "cycle"])
    assert code == 0 and out == "CYCLE ABSENT\n"


def test_detect_cycle_json_absent(capsys, tmp_path):
    tree = tmp_path / "tree.edges"
    tree.write_text(serialize_graph(path_graph(2)))
    code, out, _ = run_cli(capsys, ["detect", "--edges", str(tree), "--kind", "cycle",
                                    "--format", "json"])
    assert code == 0
    assert json.loads(out) == {"cycle": None}


def test_detect_trees(capsys, k22_edges):
    code, out, _ = run_cli(capsys, ["detect", "--edges", k22_edges, "--kind", "trees",
                                    "--rounds", "1", "-t", "1"])
    assert code == 0 and out == "exact_trees=2\n"
    code, out, _ = run_cli(capsys, ["detect", "--edges", k22_edges, "--kind", "trees",
                                    "--rounds", "1", "-t", "1", "--format", "json"])
    assert code == 0 and json.loads(out) == {"exact_trees": 2}


def test_detect_usage_errors(capsys, k22_edges):
    assert run_cli(capsys, ["detect", "--edges", k22_edges])[0] == 2  # config needs r, t
    assert run_cli(capsys, ["detect", "--edges", k22_edges, "--kind", "trees"])[0] == 2
    assert run_cli(capsys, ["detect", "--edges", k22_edges, "--kind", "cycle",
                            "--max-len", "5"])[0] == 2
    assert run_cli(capsys, ["detect", "--edges", k22_edges, "--rounds", "2", "-t", "1",
                            "--format", "csv"])[0] == 2


# -------------------------------------------------------------------- theory

def test_theory_text(capsys):
    code, out, _ = run_cli(capsys, ["theory", "-r", "1", "-t", "1", "-c", "1"])
    assert code == 0
    assert "edges=2 " in out
    assert "automorphisms=2 " in out
    assert "asymptotic_success=0.606531" in out


def test_theory_threshold_column(capsys):
    code, out, _ = run_cli(capsys, ["theory", "-r", "1", "-t", "1", "-n", "100"])
    assert code == 0
    assert "threshold_p=0.001000" in out


def test_theory_table(capsys):
    code, out, _ = run_cli(capsys, ["theory", "-r", "1", "-t", "1",
                                    "--r-max", "2", "--t-max", "2"])
    assert code == 0
    assert len(out.strip().splitlines()) == 4


def test_theory_json_big_integers(capsys):
    code, out, _ = run_cli(capsys, ["theory", "-r", "3", "-t", "3", "--format", "json"])
    assert code == 0
    row = json.loads(out)[0]
    assert row["r"] == 3 and row["t"] == 3
    # exact integers ride as decimal strings to dodge double rounding
    assert isinstance(row["automorphisms"], str)
    assert int(row["automorphisms"]) == 24 * 6**16
    assert isinstance(row["log_automorphisms"], float)


def test_theory_rejects_bad_domain(capsys):
    assert run_cli(capsys, ["theory", "-r", "0", "-t", "1"])[0] == 2


def test_theory_refuses_trees_past_10_to_300_edges(capsys):
    code, out, err = run_cli(capsys, ["theory", "-r", "1100", "-t", "2"])
    assert code == 2 and out == ""
    assert "r=1100, t=2" in err and err.count("\n") == 1


@pytest.mark.parametrize("flag, fmt", [("--r-max", "text"), ("--t-max", "json")])
def test_theory_rejects_inverted_range(capsys, flag, fmt):
    code, out, err = run_cli(capsys, ["theory", "-r", "3", "-t", "3", flag, "1", "--format", fmt])
    assert code == 2 and out == ""
    assert flag in err


@pytest.mark.parametrize("r_max, code", [("10000", 0), ("10001", 2)])
def test_theory_bounds_table_rows(capsys, r_max, code):
    got, out, err = run_cli(capsys, ["theory", "-r", "1", "--r-max", r_max, "-t", "1"])
    assert got == code
    if code == 0:
        assert len(out.splitlines()) == 10000
    else:
        assert out == "" and "10001 rows" in err and err.count("\n") == 1


# --------------------------------------------------------------------- sweep

SWEEP_CONFIG = """
mode = CONSTANT_T_SWEEP
n_values = 8, 16
r = 1
t = 1
c_values = 1.0
trials_per_point = 8
master_seed = 4
"""


def test_sweep_from_config(capsys, tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CONFIG)
    code, out, _ = run_cli(capsys, ["sweep", "--config", str(cfg), "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == CSV_COLUMNS
    assert len(lines) == 3
    assert lines[1].startswith("CONSTANT_T_SWEEP,8,")
    assert lines[2].startswith("CONSTANT_T_SWEEP,16,")


def test_sweep_text_defaults_to_csv(capsys, tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CONFIG)
    _, as_text, _ = run_cli(capsys, ["sweep", "--config", str(cfg)])
    _, as_csv, _ = run_cli(capsys, ["sweep", "--config", str(cfg), "--format", "csv"])
    assert as_text == as_csv


def test_sweep_flags_override_config(capsys, tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CONFIG)
    _, base, _ = run_cli(capsys, ["sweep", "--config", str(cfg)])
    _, reseeded, _ = run_cli(capsys, ["sweep", "--config", str(cfg), "--seed", "99"])
    assert base != reseeded
    _, same, _ = run_cli(capsys, ["sweep", "--config", str(cfg), "--seed", "4"])
    assert base == same


SPEC_LINEAR = """
mode = LINEAR_REGIME_SWEEP
n_values = 8
r = 1
alpha = 0.3
p_values = 0.2
trials_per_point = 8
master_seed = 4
confidence = 0.95
"""
SPEC_SINGLE = SPEC_LINEAR.replace("LINEAR_REGIME_SWEEP", "SINGLE_POINT").replace(
    "alpha = 0.3", "t = 1").replace("p_values = 0.2", "c_values = 1.0")

# field: (config, sweep flags, the value they give the field)
SWEEP_FLAGS = {
    "mode": (SPEC_SINGLE, ["--mode", "CONSTANT_T_SWEEP"], "CONSTANT_T_SWEEP"),
    "n_values": (SPEC_SINGLE, ["--n-values", "16"], (16,)),
    "r": (SPEC_SINGLE, ["-r", "2"], 2),
    "trials_per_point": (SPEC_SINGLE, ["--trials", "5"], 5),
    "master_seed": (SPEC_SINGLE, ["--seed", "9"], 9),
    "t": (SPEC_SINGLE, ["-t", "2"], 2),
    "alpha": (SPEC_LINEAR, ["--alpha", "0.4"], 0.4),
    "c_values": (SPEC_SINGLE, ["--c-values", "2"], (2.0,)),
    "p_values": (SPEC_LINEAR, ["--p-values", "0.3,0.5"], (0.3, 0.5)),
    "confidence": (SPEC_SINGLE, ["--confidence", "0.9"], 0.9),
}


@pytest.mark.parametrize("field", dataclasses.fields(ExperimentSpec), ids=lambda f: f.name)
def test_each_sweep_flag_overrides_its_spec_field(capsys, tmp_path, monkeypatch, field):
    config, flags, value = SWEEP_FLAGS[field.name]
    specs = []
    monkeypatch.setattr("peelsim.cli.run_sweep", lambda spec, workers: specs.append(spec) or ())
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(config)
    assert run_cli(capsys, ["sweep", "--config", str(cfg)])[0] == 0
    assert run_cli(capsys, ["sweep", "--config", str(cfg), *flags])[0] == 0
    from_file, from_flag = (getattr(spec, field.name) for spec in specs)
    assert from_file != value and from_flag == value


@pytest.mark.parametrize("field", ["r", "t", "trials_per_point", "master_seed", "alpha", "confidence"])
def test_bad_sweep_flag_value_names_its_field(capsys, tmp_path, field):
    # The flag's text goes through the field's parser, as in a spec file:
    # one line, not argparse's usage block.
    config, (flag, _), _ = SWEEP_FLAGS[field]
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(config)
    code, out, err = run_cli(capsys, ["sweep", "--config", str(cfg), flag, "x"])
    assert code == 2 and out == ""
    assert err.startswith(f"peelsim sweep: {field} must be ") and err.count("\n") == 1, err


@pytest.mark.parametrize("text,ok", [(" 2 ", True), ("2_0", True), ("1.0", False), ("1e3", False), ("nan", False)])
def test_sweep_rounds_flag_takes_integer_text_only(capsys, monkeypatch, tmp_path, text, ok):
    monkeypatch.setattr("peelsim.cli.run_sweep", lambda spec, workers: ())
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SPEC_SINGLE)
    code, _, err = run_cli(capsys, ["sweep", "--config", str(cfg), "-r", text])
    assert (code, err) == ((0, "") if ok else (2, f"peelsim sweep: r must be an integer, got {text!r}\n"))


def test_sweep_flags_only(capsys):
    argv = ["sweep", "--mode", "LINEAR_REGIME_SWEEP", "--n-values", "20",
            "--rounds", "1", "--alpha", "0.3", "--p-values", "0.2,0.4",
            "--trials", "4"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert "DECODABLE_ONE_ROUND" in lines[1]
    assert "UNDECODABLE_ALL_ROUNDS" in lines[2]


def test_sweep_worker_count_does_not_change_bytes(capsys, tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CONFIG)
    _, serial, _ = run_cli(capsys, ["sweep", "--config", str(cfg)])
    _, parallel, _ = run_cli(capsys, ["sweep", "--config", str(cfg), "--workers", "2"])
    assert serial == parallel


@pytest.mark.parametrize("workers", ["0", "-3", "two"])
def test_sweep_rejects_bad_worker_counts(capsys, tmp_path, workers):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CONFIG)
    code, out, err = run_cli(capsys, ["sweep", "--config", str(cfg), "--workers", workers])
    assert code == 2 and out == ""
    assert "workers" in err


def test_sweep_on_no_workers_exits_two_before_any_trial(capsys, tmp_path, monkeypatch):
    # argparse reads --workers as any integer; run_sweep alone checks its
    # range, before the first trial.
    monkeypatch.setattr(experiment, "run_trial", lambda *args: pytest.fail("a trial ran"))
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CONFIG)
    code, out, err = run_cli(capsys, ["sweep", "--config", str(cfg), "--workers", "0"])
    assert code == 2 and out == ""
    assert err == "peelsim sweep: workers must be an integer >= 1, got 0\n"


def test_sweep_json(capsys, tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CONFIG)
    code, out, _ = run_cli(capsys, ["sweep", "--config", str(cfg), "--format", "json"])
    assert code == 0
    rows = json.loads(out)
    assert [row["n"] for row in rows] == [8, 16]


def test_sweep_output_file(capsys, tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CONFIG)
    target = tmp_path / "results.csv"
    code, out, _ = run_cli(capsys, ["sweep", "--config", str(cfg), "--output", str(target)])
    assert code == 0 and out == ""
    assert target.read_text().startswith(CSV_COLUMNS)


@pytest.mark.parametrize("target", ["missing/out.csv", "results.csv/out.csv", "."],
                         ids=["missing-dir", "file-as-dir", "directory"])
def test_sweep_refuses_an_unwritable_output_before_any_trial(capsys, tmp_path, monkeypatch, target):
    # Found only at the write, such a path would cost the whole sweep.
    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr("peelsim.cli.run_sweep", no_sweep)
    (tmp_path / "results.csv").write_text("kept\n")
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CONFIG)
    code, out, err = run_cli(capsys, ["sweep", "--config", str(cfg),
                                      "--output", str(tmp_path / target)])
    assert code == 2 and out == ""
    assert err.startswith("peelsim sweep: --output ") and err.count("\n") == 1
    assert (tmp_path / "results.csv").read_text() == "kept\n"


# command: (its arguments but --output, the function that does its work)
OUTPUT_COMMANDS = {
    "gen": (["-n", "4", "-p", "0"], "sample_bipartite"),
    "decode": (["--edges", "{edges}", "-r", "1", "-t", "1"], "decode"),
    "detect": (["--edges", "{edges}", "--kind", "cycle"], "find_short_cycle"),
    "theory": (["-r", "1", "-t", "1"], "tree_stats"),
}


@pytest.mark.parametrize("target", ["missing/out.txt", "results.txt/out.txt", "."],
                         ids=["missing-dir", "file-as-dir", "directory"])
@pytest.mark.parametrize("command", sorted(OUTPUT_COMMANDS))
def test_every_command_refuses_an_unwritable_output_before_any_work(
        capsys, tmp_path, monkeypatch, k22_edges, command, target):
    flags, worker = OUTPUT_COMMANDS[command]

    def no_work(*args, **kwargs):
        raise AssertionError(f"{worker} ran")

    monkeypatch.setattr(f"peelsim.cli.{worker}", no_work)
    (tmp_path / "results.txt").write_text("kept\n")
    argv = [command, *(f.format(edges=k22_edges) for f in flags), "--output", str(tmp_path / target)]
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith(f"peelsim {command}: --output ") and err.count("\n") == 1
    assert (tmp_path / "results.txt").read_text() == "kept\n"


def test_sweep_that_fails_keeps_an_existing_output(capsys, tmp_path, monkeypatch):
    def failing_sweep(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("peelsim.cli.run_sweep", failing_sweep)
    target = tmp_path / "results.csv"
    target.write_text("kept\n")
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CONFIG)
    code, out, err = run_cli(capsys, ["sweep", "--config", str(cfg), "--output", str(target)])
    assert code == 2 and out == "" and err == "peelsim sweep: out of memory\n"
    assert target.read_text() == "kept\n"


def test_sweep_bad_spec(capsys, tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("mode = CONSTANT_T_SWEEP\nbogus = 1\n")
    code, _, err = run_cli(capsys, ["sweep", "--config", str(cfg)])
    assert code == 2
    assert "bogus" in err


def test_sweep_refuses_a_deeply_nested_json_spec(capsys, tmp_path):
    # json.loads raises RecursionError here, which must not reach the user
    # as a traceback.
    cfg = tmp_path / "deep.json"
    cfg.write_text('{"mode": ' + "[" * 10**5 + "]" * 10**5 + "}")
    code, out, err = run_cli(capsys, ["sweep", "--config", str(cfg)])
    assert code == 2 and out == ""
    assert err.startswith("peelsim sweep: ") and err.count("\n") == 1, err


def test_sweep_rejects_fractional_rounds(capsys, tmp_path):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({
        "mode": "CONSTANT_T_SWEEP", "n_values": [8], "r": 1.7, "t": 1,
        "c_values": [1.0], "trials_per_point": 2,
    }))
    code, _, err = run_cli(capsys, ["sweep", "--config", str(cfg)])
    assert code == 2
    assert "r must be an integer" in err


def test_sweep_rejects_bad_integer_flag(capsys, tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CONFIG)
    code, out, err = run_cli(capsys, ["sweep", "--config", str(cfg), "--n-values", "20,x"])
    assert code == 2 and out == ""
    assert "n_values must be an integer, got 'x'" in err


def test_sweep_rejects_scalar_list_field(capsys, tmp_path):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({
        "mode": "CONSTANT_T_SWEEP", "n_values": 8, "r": 1, "t": 1,
        "c_values": [1.0], "trials_per_point": 2,
    }))
    code, _, err = run_cli(capsys, ["sweep", "--config", str(cfg)])
    assert code == 2
    assert "n_values must be a list" in err


def test_sweep_rejects_bool_probability(capsys, tmp_path):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({
        "mode": "CONSTANT_T_SWEEP", "n_values": [8], "r": 1, "t": 1,
        "c_values": [True], "trials_per_point": 2,
    }))
    code, _, err = run_cli(capsys, ["sweep", "--config", str(cfg)])
    assert code == 2
    assert "c_values must be a number" in err


def test_sweep_rejects_nan_c_at_load(capsys, tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CONFIG)
    code, out, err = run_cli(capsys, ["sweep", "--config", str(cfg), "--c-values", "nan"])
    assert code == 2 and out == ""
    assert "every c must be positive" in err


def test_sweep_rejects_oversize_n_before_any_trial(capsys, monkeypatch):
    # 3e9 squared passes 2**61 cells: the spec is refused when loaded, not
    # after the trials of the n = 200 point.
    def no_trial(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(experiment, "run_trial", no_trial)
    code, out, err = run_cli(capsys, [
        "sweep", "--mode", "CONSTANT_T_SWEEP", "--n-values", "200,3000000000",
        "-r", "1", "-t", "1", "--c-values", "1", "--trials", "5",
    ])
    assert code == 2 and out == ""
    assert "2**61 cells" in err and err.count("\n") == 1


def test_sweep_rejects_a_confidence_with_an_infinite_quantile_before_any_trial(capsys, monkeypatch):
    # 0.5 + confidence / 2 rounds to 1.0: the spec is refused when loaded,
    # not after every trial has run.
    def no_trial(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(experiment, "run_trial", no_trial)
    code, out, err = run_cli(capsys, [
        "sweep", "--mode", "SINGLE_POINT", "--n-values", "20", "-r", "1", "-t", "1",
        "--c-values", "1", "--trials", "5", "--confidence", "0.9999999999999999",
    ])
    assert code == 2 and out == ""
    assert "confidence must lie in" in err and err.count("\n") == 1


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="the patched trial reaches the worker only by fork")


@needs_fork
def test_sweep_reports_a_dead_worker(capsys, tmp_path, monkeypatch):
    # A worker that dies, as under the OOM killer, ends the sweep with exit
    # 2 and one line that says how the worker ended, not a traceback, and
    # leaves no child.
    monkeypatch.setattr(experiment, "_available_cpus", lambda: 2)
    caller = os.getpid()
    run_trial = experiment.run_trial
    monkeypatch.setattr(experiment, "run_trial",
                        lambda *args: run_trial(*args) if os.getpid() == caller else os._exit(3))
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CONFIG)
    code, out, err = run_cli(capsys, ["sweep", "--config", str(cfg), "--workers", "2"])
    assert code == 2 and out == ""
    assert err == "peelsim sweep: a worker process died before finishing its trials (exit code 3)\n"
    assert_no_child()


@needs_fork
def test_sweep_reports_a_worker_error_that_does_not_unpickle(capsys, tmp_path, monkeypatch):
    # Pickled, the error would come back as TwoArgError("bad: thing"),
    # which its __init__ refuses: the sweep exits 2 with one line that names
    # it, not with the TypeError's traceback.
    monkeypatch.setattr(experiment, "_available_cpus", lambda: 2)
    caller = os.getpid()
    run_trial = experiment.run_trial

    def trial(*args):
        if os.getpid() != caller:
            raise TwoArgError("bad", "thing")
        return run_trial(*args)

    monkeypatch.setattr(experiment, "run_trial", trial)
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CONFIG)
    code, out, err = run_cli(capsys, ["sweep", "--config", str(cfg), "--workers", "2"])
    assert code == 2 and out == ""
    assert err == "peelsim sweep: a worker process failed: helpers.TwoArgError: bad: thing\n"
    assert_no_child()


@needs_fork
def test_sweep_whose_fork_fails_kills_the_workers_it_forked(capsys, tmp_path, monkeypatch):
    # At --workers 3 the second fork fails, as at a process limit.  The
    # first worker, whose trials would each take 30 s, is killed and
    # reaped, and the sweep exits 2 with one line.
    monkeypatch.setattr(experiment, "_available_cpus", lambda: 3)
    caller = os.getpid()
    run_trial = experiment.run_trial
    monkeypatch.setattr(experiment, "run_trial",
                        lambda *args: run_trial(*args) if os.getpid() == caller else time.sleep(30))
    fork, forks = os.fork, []

    def second_fork_fails():
        forks.append(None)
        if len(forks) == 2:
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return fork()

    monkeypatch.setattr(os, "fork", second_fork_fails)
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CONFIG)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, ["sweep", "--config", str(cfg), "--workers", "3"])
    assert time.perf_counter() - start < 10.0
    assert code == 2 and out == ""
    assert err == f"peelsim sweep: [Errno {errno.EAGAIN}] {os.strerror(errno.EAGAIN)}\n"
    assert len(forks) == 2
    assert_no_child()


def test_sweep_incomplete_flags(capsys):
    code, _, err = run_cli(capsys, ["sweep", "--mode", "CONSTANT_T_SWEEP"])
    assert code == 2


# -------------------------------------------------------------------- dispatch

def test_usage_errors_exit_two(capsys):
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
    assert main(["gen", "--frobnicate"]) == 2
    capsys.readouterr()


SUBCOMMAND_RUNS = {
    "gen": ["gen", "-n", "2", "-p", "0"],
    "decode": ["decode", "--edges", "{edges}", "--fixpoint", "-t", "1"],
    "detect": ["detect", "--edges", "{edges}", "--kind", "cycle"],
    "theory": ["theory", "-r", "1", "-t", "1"],
    "sweep": ["sweep", "--mode", "SINGLE_POINT", "--n-values", "8", "-r", "1", "-t", "1",
              "--c-values", "1", "--trials", "2"],
}


@pytest.mark.parametrize("name", SUBCOMMAND_RUNS)
def test_a_named_subcommand_never_builds_the_whole_tree(capsys, monkeypatch, k22_edges, name):
    def whole_tree():
        raise AssertionError("build_parser called")

    monkeypatch.setattr(cli, "build_parser", whole_tree)
    assert run_cli(capsys, [arg.format(edges=k22_edges) for arg in SUBCOMMAND_RUNS[name]])[0] == 0
    code, out, _ = run_cli(capsys, [name, "--help"])
    assert code == 0 and out.startswith(f"usage: peelsim {name} ")


@pytest.mark.parametrize("argv,expect", [([], 2), (["-h"], 0), (["frobnicate"], 2)],
                         ids=["none", "help", "unknown"])
def test_any_other_argv_builds_the_whole_tree(capsys, monkeypatch, argv, expect):
    built = []

    def whole_tree():
        built.append(build_parser())
        return built[-1]

    monkeypatch.setattr(cli, "build_parser", whole_tree)
    code, out, err = run_cli(capsys, argv)
    assert code == expect and len(built) == 1
    assert (out + err).startswith("usage: peelsim [-h] {gen,decode,detect,theory,sweep} ...\n")


def test_each_subcommand_parser_prints_what_its_subparser_in_the_tree_prints():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    # So the tests above run every subcommand on its own parser.
    assert list(sub.choices) == list(SUBCOMMAND_RUNS)
    for name, in_tree in sub.choices.items():
        alone = cli._subcommand_parser(name)
        assert alone.format_usage() == in_tree.format_usage()
        assert alone.format_help() == in_tree.format_help()


def test_main_reads_sys_argv_when_given_none(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["peelsim", "theory", "-r", "1", "-t", "1"])
    assert run_cli(capsys, None) == run_cli(capsys, ["theory", "-r", "1", "-t", "1"])


def test_each_subcommand_declares_only_the_shared_flags_it_reads():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))

    def shared(p):
        return {opt: a.choices for a in p._actions for opt in a.option_strings
                if opt in ("--seed", "--format", "--output")}

    text_or_json = {"--format": ("text", "json"), "--output": None}
    assert {name: shared(p) for name, p in sub.choices.items()} == {
        "gen": {"--seed": None, "--output": None},
        "decode": text_or_json,
        "detect": text_or_json,
        "theory": text_or_json,
        "sweep": {"--seed": None, "--format": ("csv", "json"), "--output": None},
    }


@pytest.mark.parametrize("argv", [
    ["decode", "--edges", "{edges}", "--rounds", "1", "-t", "1", "--seed", "1"],
    ["detect", "--edges", "{edges}", "--rounds", "1", "-t", "1", "--seed", "1"],
    ["theory", "-r", "1", "-t", "1", "--seed", "1"],
    ["gen", "-n", "4", "-p", "0", "--format", "text"],
    ["sweep", "--mode", "SINGLE_POINT", "--n-values", "8", "-r", "1", "-t", "1",
     "--c-values", "1", "--trials", "2", "--format", "text"],
], ids=["decode-seed", "detect-seed", "theory-seed", "gen-format", "sweep-format-text"])
def test_removed_flags_exit_two(capsys, k22_edges, argv):
    code, out, err = run_cli(capsys, [arg.format(edges=k22_edges) for arg in argv])
    assert code == 2 and out == ""
    assert argv[-2] in err
    # The subcommand's own parser reports it, under its own usage line.
    assert err.startswith(f"usage: peelsim {argv[0]} ")
    assert f"\npeelsim {argv[0]}: error: " in err


@pytest.mark.parametrize("argv,expect", [
    (["-r", "40", "-t", "9"], "automorphisms=None "),
    (["-r", "7", "-t", "7", "--format", "json"], '"automorphisms": null'),
])
def test_theory_huge_trees_return(argv, expect):
    proc = subprocess.run(
        [sys.executable, "-m", "peelsim", "theory", *argv],
        capture_output=True, text=True, timeout=10,
    )
    assert proc.returncode == 0, proc.stderr
    assert expect in proc.stdout


def test_sweep_with_huge_round_limit_at_t1_returns():
    # The theory column uses tree_stats(10**9, 1), a closed form at t = 1.
    proc = subprocess.run(
        [sys.executable, "-m", "peelsim", "sweep", "--mode", "SINGLE_POINT", "--n-values", "20",
         "-r", "1000000000", "-t", "1", "--c-values", "1", "--trials", "2"],
        capture_output=True, text=True, timeout=10, preexec_fn=cap_address_space,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(CSV_COLUMNS + "\nSINGLE_POINT,20,1000000000,1,")


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "peelsim", "theory", "-r", "1", "-t", "1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "edges=2 " in proc.stdout


# ------------------------------------------------------------ import footprint

POOL_MODULES = ("multiprocessing", "concurrent.futures", "statistics")
ONE_POINT = "mode=SINGLE_POINT\nn_values=20\nr=1\nt=1\nc_values=1\ntrials_per_point=2\n"


def loaded_after(code):
    """Which of POOL_MODULES a fresh interpreter has loaded once it has run
    code."""
    probe = f"{code}\nimport sys; print(sorted(set({POOL_MODULES!r}) & sys.modules.keys()))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_loading_a_spec_loads_no_pool_and_no_statistics():
    assert loaded_after(f"import peelsim; peelsim.load_spec({ONE_POINT!r})") == "[]"


@pytest.mark.parametrize("code", [
    f"import peelsim; peelsim.run_sweep(peelsim.load_spec({ONE_POINT!r}))",
    "from peelsim.cli import main; main(['theory', '-r', '1', '-t', '1'])",
], ids=["serial-sweep", "theory"])
def test_a_process_that_never_forks_loads_no_pool(code):
    loaded = loaded_after(code)
    assert "multiprocessing" not in loaded and "concurrent" not in loaded


def test_a_forking_sweep_loads_neither_multiprocessing_nor_concurrent_futures():
    # Workers are forked with os.fork itself, so no sweep loads pool code.
    code = ("import peelsim, peelsim.experiment as e; e._available_cpus = lambda: 2; "
            f"e.run_sweep(peelsim.load_spec({ONE_POINT!r}), workers=2)")
    assert loaded_after(code) == "['statistics']"
