"""Correctness gate for everything the benchmark times.

Sweeps: every CSV must be well formed, identical across repeated calls and
worker counts, and agree point by point with the successes the traced
replay counted; the reference call's CSV (a fixed seed and trial count, run
at every seed) must match the digest recorded in digests.json.  Census: find_config must agree with decode, every
extracted witness must pass verify_config, and a reported short cycle must
be a real cycle of the graph.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

DIGESTS_FILE = Path(__file__).with_name("digests.json")


def load_digests() -> dict:
    return json.loads(DIGESTS_FILE.read_text())


def digest(csv_text: str) -> str:
    return hashlib.sha256(csv_text.encode()).hexdigest()


def csv_successes(csv_text: str, columns: str) -> list[tuple[int, int]]:
    """(trials, successes) per CSV row; raises ValueError when malformed."""
    lines = csv_text.splitlines()
    if not lines or lines[0] != columns:
        raise ValueError("CSV header differs from CSV_COLUMNS")
    names = columns.split(",")
    out = []
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != len(names):
            raise ValueError(f"CSV row has the wrong field count: {line!r}")
        fields = dict(zip(names, parts))
        out.append((int(fields["trials"]), int(fields["successes"])))
    return out


def check_sweep_csv(csv_text, columns, points, trials, expected_digest=None) -> list[str]:
    try:
        rows = csv_successes(csv_text, columns)
    except ValueError as exc:
        return [str(exc)]
    problems = []
    if len(rows) != points:
        problems.append(f"CSV has {len(rows)} points, spec has {points}")
    for k, (n_trials, succ) in enumerate(rows):
        if n_trials != trials or not 0 <= succ <= n_trials:
            problems.append(f"point {k}: trials={n_trials} successes={succ}, expected {trials} trials")
    if expected_digest is not None and digest(csv_text) != expected_digest:
        problems.append("CSV bytes differ from the recorded digest")
    return problems


def check_traced_successes(csv_text, columns, traced: list[int]) -> list[str]:
    """traced[k] is the sum of run_trial(...).success over point k's trials."""
    try:
        rows = csv_successes(csv_text, columns)
    except ValueError as exc:
        return [str(exc)]
    if len(rows) != len(traced):
        return [f"traced replay saw {len(traced)} points, CSV has {len(rows)}"]
    return [
        f"point {k}: CSV successes {succ} != traced replay {seen}"
        for k, ((_, succ), seen) in enumerate(zip(rows, traced))
        if succ != seen
    ]


def check_cert(g, cert, max_len) -> list[str]:
    """Oracle checks on one certified census graph."""
    problems = []
    if (cert.config is None) != cert.success:
        problems.append("find_config disagrees with decode")
    if not cert.success and cert.verified is not True:
        problems.append("extracted witness failed verify_config")
    if cert.success and cert.witness is not None:
        problems.append("extract_config returned a witness for a decodable graph")
    if not isinstance(cert.trees, int) or cert.trees < 0:
        problems.append(f"count_exact_trees returned {cert.trees!r}")
    if cert.cycle is not None and not _is_cycle(g, cert.cycle, max_len):
        problems.append("find_short_cycle returned something that is not a short cycle of g")
    return problems


def _is_cycle(g, edges, max_len) -> bool:
    k = len(edges)
    if k < 4 or k > max_len or k % 2 or len(set(edges)) != k:
        return False
    if not all(g.has_edge(i, j) for i, j in edges):
        return False
    for (a, b), (c, d) in zip(edges, edges[1:] + edges[:1]):
        if a != c and b != d:
            return False
    degree: dict = {}
    for i, j in edges:
        degree[("L", i)] = degree.get(("L", i), 0) + 1
        degree[("R", j)] = degree.get(("R", j), 0) + 1
    return all(d == 2 for d in degree.values())
