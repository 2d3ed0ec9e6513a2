"""Smoke tests for the benchmark itself.

    python3 -m pytest -q perfbench/test_smoke.py

Every workload runs at a toy size in both modes; the gate must reject a
corrupted CSV and a tampered witness; the benchmark must refuse to run
without the program.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import peelsim  # noqa: E402

import gate  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--scale", "0.02"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_toy_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(ln.startswith(f"metric {m['name']} = ") and f" {m['unit']}" in ln for ln in lines), m
        if not trace:
            assert result["metrics"][m["name"]]["value"] > 0
    assert any(ln.startswith("machine ") for ln in lines)


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def _toy_sweep():
    spec = peelsim.load_spec(workloads.spec_text(workloads.WORKLOADS["threshold_small"], 5, 0.01))
    results = peelsim.run_sweep(spec)
    return spec, peelsim.write_results(results), [r.successes for r in results]


def test_gate_rejects_a_corrupted_csv():
    spec, csv, successes = _toy_sweep()
    cols, trials = peelsim.CSV_COLUMNS, spec.trials_per_point
    assert gate.check_sweep_csv(csv, cols, 3, trials, gate.digest(csv)) == []
    assert gate.check_traced_successes(csv, cols, successes) == []

    lines = csv.splitlines(keepends=True)
    fields = lines[2].split(",")
    fields[6] = str(int(fields[6]) - 1)  # successes of the middle point
    corrupted = "".join(lines[:2] + [",".join(fields)] + lines[3:])
    assert gate.check_sweep_csv(corrupted, cols, 3, trials, gate.digest(csv))
    assert gate.check_traced_successes(corrupted, cols, successes)
    assert gate.check_sweep_csv(csv[:-30], cols, 3, trials)


def test_recorded_digest_matches_the_program(tmp_path):
    w = workloads.WORKLOADS["threshold_small"]
    csv = workloads.reference_csv(w, tmp_path)
    assert gate.digest(csv) == gate.load_digests()[w.name]
    spec = peelsim.load_spec(workloads.reference_spec(w))
    assert gate.digest(peelsim.write_results(peelsim.run_sweep(spec, workers=2))) == gate.digest(csv)


def test_gate_rejects_a_tampered_witness():
    w = workloads.WORKLOADS["witness_census"]
    _, params, graph = workloads._census_setup(w, 5, 0.02)
    g = next(g for g in map(graph, range(100)) if not peelsim.decode(g, params).success)
    assert gate.check_cert(g, workloads.certify(g, workloads.RAW_API, params), 6) == []

    def tampered_extract(g, params):
        cfg = peelsim.extract_config(g, params)
        return dataclasses.replace(cfg, edges=frozenset(sorted(cfg.edges)[1:]))

    api = SimpleNamespace(**dict(vars(workloads.RAW_API), extract_config=tampered_extract))
    assert gate.check_cert(g, workloads.certify(g, api, params), 6)

    disagreeing = SimpleNamespace(**dict(vars(workloads.RAW_API), find_config=lambda g, r, t: None))
    assert gate.check_cert(g, workloads.certify(g, disagreeing, params), 6)

    not_a_cycle = SimpleNamespace(**dict(vars(workloads.RAW_API), find_short_cycle=lambda g, k: tuple(g.edges())[:4]))
    assert gate.check_cert(g, workloads.certify(g, not_a_cycle, params), 6)


def test_every_per_layer_metric_names_what_it_should_move():
    notes = json.loads((HERE / "interactions.json").read_text())
    e2e = {m["name"] for m in BENCH["end_to_end"]}
    for m in BENCH["per_layer"]:
        entry = notes["per_layer"][m["name"]]
        assert entry["moves"] == "none" or set(entry["moves"].split(", ")) <= e2e, m
        assert set(entry["on"]) <= set(WORKLOADS), m
    assert set(notes["per_layer"]) == {m["name"] for m in BENCH["per_layer"]}
