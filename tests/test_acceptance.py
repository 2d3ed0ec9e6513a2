"""End-to-end acceptance gate.

One test per shipped guarantee, each printing a single verdict line of the
form ``CRITERION k: PASS (...)`` before asserting.  Run with ``pytest -s``
to see the lines; the assertions carry the same text either way.

Monte Carlo criteria use pinned master seeds.  The statistical margins are
real (a fresh seed would pass with high probability, not certainty), so the
pinned seeds double as regression anchors: any drift in sampling, seeding,
or decoding flips the frozen verdicts.
"""

import math

import numpy as np
import pytest

from peelsim import (
    CONSTANT_T_SWEEP,
    LINEAR_REGIME_SWEEP,
    SINGLE_POINT,
    BipartiteGraph,
    DecodeParams,
    ExperimentSpec,
    build_exact_tree,
    count_exact_trees,
    decode,
    decode_fixpoint,
    expected_tree_count,
    find_config,
    run_sweep,
    sample_bipartite,
    threshold_p,
    tree_stats,
    write_results,
)

from helpers import ahu_automorphisms, literal_automorphisms, random_graph, ref_decode


def report(criterion: int, ok: bool, detail: str) -> None:
    line = f"CRITERION {criterion}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_failure_equals_witness_exhaustively():
    # Every bipartite graph on 4+4 vertices, every (r, t) in {1,2,3}x{1,2}:
    # the decoder fails exactly when a surviving configuration exists.
    combos = [(r, t) for r in (1, 2, 3) for t in (1, 2)]
    params = {rt: DecodeParams(rounds=rt[0], t=rt[1]) for rt in combos}
    cells = [(k // 4, k % 4) for k in range(16)]
    mismatches = 0
    errors = 0
    for mask in range(1 << 16):
        edges = [cells[k] for k in range(16) if mask >> k & 1]
        g = BipartiteGraph(4, 4, edges)
        for rt in combos:
            try:
                failed = not decode(g, params[rt]).success
                present = find_config(g, rt[0], rt[1]) is not None
            except Exception:
                errors += 1
                continue
            mismatches += failed != present
    report(1, mismatches == 0 and errors == 0,
           f"65536 graphs x 6 (r,t) combos, {mismatches} mismatches, {errors} exceptions")


def test_criterion_2_closed_forms_match_constructed_trees():
    bad = []
    for r in (1, 2, 3):
        for t in (1, 2, 3):
            stats = tree_stats(r, t)
            host = build_exact_tree(r, t)
            edge_count = len(list(host.edges()))
            autos = ahu_automorphisms(host)
            ok = (stats.edges == edge_count
                  and stats.left_vertices == host.n_left
                  and stats.right_vertices == host.n_right
                  and stats.automorphisms == autos)
            if ok and host.n_left + host.n_right <= 10:
                ok = stats.automorphisms == literal_automorphisms(host)
            if not ok:
                bad.append((r, t))
    report(2, not bad, f"(r,t) grid {{1,2,3}}^2 exact integer match, failures: {bad or 'none'}")


def test_criterion_3_success_rate_converges_at_threshold():
    target = math.exp(-0.5)
    spec = ExperimentSpec(
        mode=CONSTANT_T_SWEEP, n_values=(250, 500, 1000, 2000), r=1, t=1,
        c_values=(1.0,), trials_per_point=20000, master_seed=20086,
    )
    rows = run_sweep(spec)
    err = {row.n: abs(row.p_hat - target) for row in rows}
    ok = err[2000] <= 0.05 and err[2000] < err[250]
    report(3, ok,
           f"|p_hat - {target:.4f}| by n: " +
           ", ".join(f"{n}: {err[n]:.4f}" for n in (250, 500, 1000, 2000)) +
           "; final within 0.05 and below the first point")


def test_criterion_4_sharp_threshold_separates_regimes():
    n = 2000
    estimates = {}
    for label, p in (("below", n**-1.5 / math.log(n)), ("above", n**-1.5 * math.log(n))):
        spec = ExperimentSpec(mode=SINGLE_POINT, n_values=(n,), r=1, t=1,
                              p_values=(p,), trials_per_point=5000, master_seed=40112)
        estimates[label] = run_sweep(spec)[0].p_hat
    ok = estimates["below"] >= 0.99 and estimates["above"] <= 0.01
    report(4, ok,
           f"n=2000, 5000 trials: p_hat={estimates['below']:.4f} below threshold "
           f"(need >= 0.99), {estimates['above']:.4f} above (need <= 0.01)")


def test_criterion_5_linear_capability_decides_in_one_round():
    decodable = ExperimentSpec(
        mode=LINEAR_REGIME_SWEEP, n_values=(500,), r=1, alpha=0.3,
        p_values=(0.2,), trials_per_point=1000, master_seed=50300,
    )
    stuck = ExperimentSpec(
        mode=LINEAR_REGIME_SWEEP, n_values=(500,), r=8, alpha=0.3,
        p_values=(0.4,), trials_per_point=1000, master_seed=50300,
    )
    easy = run_sweep(decodable)[0]
    hard = run_sweep(stuck)[0]
    ok = easy.p_hat >= 0.99 and hard.p_hat <= 0.01
    report(5, ok,
           f"alpha=0.3, n=500: p=0.2 r=1 p_hat={easy.p_hat:.3f}; "
           f"p=0.4 r=8 p_hat={hard.p_hat:.3f}")


def test_criterion_6_tree_counts_match_poisson_mean():
    # Closed-form mean at the threshold approaches c^edges / automorphisms.
    limit = 0.5
    mean_large = expected_tree_count(10_000, threshold_p(10_000, 1, 1), 1, 1)
    rel_err = abs(mean_large - limit) / limit

    # Sampled counts at n=40 agree with the exact finite-n mean.
    n = 40
    p = threshold_p(n, 1, 1)
    lam = expected_tree_count(n, p, 1, 1)
    rng = np.random.default_rng(61001)
    counts = np.array([
        count_exact_trees(sample_bipartite(n, n, p, int(rng.integers(2**63))), 1, 1)
        for _ in range(200)
    ], dtype=float)
    half = 2.576 * counts.std(ddof=1) / math.sqrt(len(counts))
    covered = abs(counts.mean() - lam) <= half
    ok = rel_err < 0.05 and covered
    report(6, ok,
           f"closed-form mean {mean_large:.5f} vs limit {limit} (rel err {rel_err:.2%}); "
           f"sampled mean {counts.mean():.3f} vs {lam:.4f} within 99% CI half-width {half:.3f}")


def test_criterion_7_sweep_output_is_byte_identical():
    spec = ExperimentSpec(
        mode=CONSTANT_T_SWEEP, n_values=(64, 128), r=2, t=1,
        c_values=(0.5, 1.0), trials_per_point=200, master_seed=777,
    )
    serial = write_results(run_sweep(spec, workers=1), "csv")
    rerun = write_results(run_sweep(spec, workers=1), "csv")
    parallel = write_results(run_sweep(spec, workers=3), "csv")
    ok = serial == rerun == parallel
    report(7, ok, f"{len(serial)} CSV bytes identical across rerun and 1 vs 3 workers")


def test_criterion_8_decoder_properties_on_random_corpus():
    rng = np.random.default_rng(88001)
    checked = 0
    failures = []
    for i in range(10_000):
        g = random_graph(rng, max_side=5)
        r = int(rng.integers(1, 4))
        t = int(rng.integers(1, 3))

        outcomes = [decode(g, DecodeParams(rounds=k, t=t)) for k in range(5)]
        succ = [o.success for o in outcomes]
        if any(a and not b for a, b in zip(succ, succ[1:])):
            failures.append((i, "success lost by adding rounds"))
        if succ[r] and not decode(g, DecodeParams(rounds=r, t=t + 1)).success:
            failures.append((i, "success lost by raising t"))

        if succ[r] and g.edge_count:
            keep = list(g.edges())
            del keep[int(rng.integers(len(keep)))]
            sub = BipartiteGraph(g.n_left, g.n_right, keep)
            if not decode(sub, DecodeParams(rounds=r, t=t)).success:
                failures.append((i, "success lost by removing an edge"))

        snap = ref_decode(g, r, t, sequential=False)
        seq = ref_decode(g, r, t, sequential=True)
        if snap[:2] != seq[:2] or snap[0] != succ[r]:
            failures.append((i, "snapshot and sequential rounds disagree"))

        for outcome in (outcomes[r], decode_fixpoint(g, t)):
            removed = sum(rec.edges_removed for rec in outcome.trace)
            if removed + outcome.residual.edge_count != g.edge_count:
                failures.append((i, "trace does not conserve edges"))

        checked += 1
        if failures:
            break
    report(8, not failures,
           f"{checked} random graphs: monotone in r, t, and subgraphs; "
           f"snapshot == sequential; traces conserve edges"
           + (f"; first failure {failures[0]}" if failures else ""))
