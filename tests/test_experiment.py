import dataclasses
import hashlib
import json
import math
import multiprocessing
import os
import platform
import random
import signal
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

import peelsim.experiment as experiment
from peelsim import (
    CONSTANT_T_SWEEP,
    CSV_COLUMNS,
    LINEAR_REGIME_SWEEP,
    SINGLE_POINT,
    DecodeParams,
    ExperimentSpec,
    TrialRecord,
    asymptotic_success,
    decode,
    decode_fixpoint,
    linear_regime_prediction,
    load_spec,
    run_sweep,
    run_trial,
    sample_bipartite,
    threshold_p,
    trial_seed,
    wilson_interval,
    write_results,
)

from helpers import exact_four_by_four, exact_success_one_round

SMALL_SWEEP = ExperimentSpec(
    mode=CONSTANT_T_SWEEP,
    n_values=(16, 8),
    r=1,
    t=1,
    c_values=(1.0, 0.5),
    trials_per_point=64,
    master_seed=5,
)


# ------------------------------------------------------------------ seeding

def test_trial_seed_known_answer():
    # With master 0 the stream is plain SplitMix64 from state 0, whose first
    # output is the published test vector.
    assert trial_seed(0, 0, 0, 1000) == 0xE220A8397B1DCDAF


def test_trial_seeds_are_pairwise_distinct():
    seeds = {
        trial_seed(42, point, trial, 500)
        for point in range(6)
        for trial in range(500)
    }
    assert len(seeds) == 3000


def test_trial_seed_ignores_nothing():
    # Distinct (point, trial) pairs map to distinct counters even when the
    # raw products collide across different trials_per_point settings.
    assert trial_seed(1, 0, 7, 10) == trial_seed(1, 0, 7, 999)
    assert trial_seed(1, 2, 0, 10) != trial_seed(1, 0, 2, 10)


# ------------------------------------------------------------------- trials

def test_trial_p_zero_succeeds():
    rec = run_trial(10, 0.0, DecodeParams(1, 1), seed=3)
    assert rec.success and rec.residual_edges == 0
    assert rec.one_round_success and rec.fixpoint_rounds == 0


def test_trial_p_one_fails():
    rec = run_trial(10, 1.0, DecodeParams(1, 1), seed=3)
    assert not rec.success
    assert rec.residual_edges == 100
    assert not rec.one_round_success


def test_trial_determinism():
    a = run_trial(30, 0.05, DecodeParams(2, 1), seed=77)
    b = run_trial(30, 0.05, DecodeParams(2, 1), seed=77)
    assert a == b


def test_one_round_success_means_every_row_within_capability():
    # run_trial reads this off the fixpoint run; check it against the row
    # degrees of the same sampled graph, without the decoder.
    for n in (12, 30):
        for t in range(4):
            for c in (0.5, 1.0, 2.0, 4.0):
                p = min(1.0, c * threshold_p(n, 1, max(t, 1)))
                for seed in range(10):
                    g = sample_bipartite(n, n, p, seed)
                    expect = g.edge_count == 0 or np.bincount(g.u).max() <= t
                    rec = run_trial(n, p, DecodeParams(1 + seed % 3, t), seed)
                    assert rec.one_round_success == expect, (n, t, c, seed)


def _reference_trial(n, p, params, seed):
    # The trial composed from the public decoders' outcomes.
    g = sample_bipartite(n, n, p, seed)
    limited = decode(g, params)
    fix = decode_fixpoint(g, params.t)
    return TrialRecord(
        success=limited.success,
        residual_edges=limited.residual.edge_count,
        one_round_success=fix.success and fix.rounds_executed <= 1,
        fixpoint_rounds=fix.rounds_executed,
    )


def _agreement_cases():
    rng = random.Random(2026)
    for i in range(3500):
        n, r, t = rng.randint(2, 40), i % 7, rng.randint(0, 3)
        kind = i % 10
        # Mostly near the capability, where peeling takes several rounds.
        p = 0.0 if kind == 0 else 1.0 if kind == 1 else rng.uniform(0.0, min(1.0, 3.0 * (t + 1) / n))
        yield n, p, DecodeParams(r, t), rng.getrandbits(64)
    for i, c in enumerate((0.5, 1.0, 2.0, 4.0)):
        yield 2000, c * threshold_p(2000, 1, 1), DecodeParams(1, 1), trial_seed(1, 0, i, 4)
    yield 100_000, threshold_p(100_000, 2, 2), DecodeParams(2, 2), trial_seed(2, 0, 0, 1)


def test_trial_agrees_with_the_public_decoders():
    for n, p, params, seed in _agreement_cases():
        assert run_trial(n, p, params, seed) == _reference_trial(n, p, params, seed), (n, p, params, seed)


@pytest.mark.parametrize("r", [10**9, 10**9 + 1])
def test_sweep_at_huge_r_returns(r):
    # Rounds past the fixpoint are no-ops, so both schedules stop there.
    def give_up(signum, frame):
        raise TimeoutError(f"run_sweep at r={r} did not return")

    spec = ExperimentSpec(LINEAR_REGIME_SWEEP, (20,), r, 3, 0, alpha=0.3, p_values=(0.2,))
    previous = signal.signal(signal.SIGALRM, give_up)
    signal.alarm(10)
    try:
        (point,) = run_sweep(spec)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert point.r == r and point.trials == 3


def test_one_round_sweeps_match_the_exact_success():
    # r = t = 1 succeeds with probability P[Bin(n, p) <= 1] ** n at every n.
    # Points, trial count and seed were fixed before the first run.
    spec = ExperimentSpec(CONSTANT_T_SWEEP, (100, 400, 1600), 1, 8000, 20261018, t=1, c_values=(1.0,))
    for point in run_sweep(spec):
        exact = exact_success_one_round(point.n, threshold_p(point.n, 1, 1), 1)
        z = (point.p_hat - exact) / math.sqrt(exact * (1.0 - exact) / point.trials)
        assert abs(z) <= 4.0, (point.n, point.p_hat, exact, z)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_four_by_four_sweeps_match_the_exact_decode(r):
    # Sampler, decoder (rows first for odd r, columns first for even r) and
    # aggregation end to end against the exact 2^16-pattern enumeration.
    # Points, trial count and seed were fixed before the first run.
    for p in (0.2, 0.35):
        success, mean, var = exact_four_by_four(r, 1, p)
        if r == 1:
            assert math.isclose(success, exact_success_one_round(4, p, 1), rel_tol=1e-12)
        spec = ExperimentSpec(SINGLE_POINT, (4,), r, 4000, 20261018, t=1, p_values=(p,))
        (point,) = run_sweep(spec)
        z_success = (point.p_hat - success) / math.sqrt(success * (1.0 - success) / point.trials)
        z_residual = (point.mean_residual_edges - mean) / math.sqrt(var / point.trials)
        assert abs(z_success) <= 4.0 and abs(z_residual) <= 4.0, (p, z_success, z_residual)


# -------------------------------------------------------------------- wilson

def test_wilson_boundaries():
    assert wilson_interval(0, 20)[0] == 0.0
    assert wilson_interval(20, 20)[1] == 1.0


def test_wilson_frozen_value():
    lo, hi = wilson_interval(50, 100, 0.95)
    assert lo < 0.5 < hi
    assert abs((hi - lo) - 0.192337) < 1e-6


def test_wilson_matches_direct_formula():
    z = 1.9599639845400545  # standard normal 97.5% quantile
    for successes, trials in ((3, 10), (50, 100), (990, 1000)):
        phat = successes / trials
        z2 = z * z
        denom = 1.0 + z2 / trials
        center = (phat + z2 / (2 * trials)) / denom
        margin = z / denom * math.sqrt(phat * (1 - phat) / trials + z2 / (4 * trials * trials))
        lo, hi = wilson_interval(successes, trials, 0.95)
        assert math.isclose(lo, max(0.0, center - margin), rel_tol=1e-9)
        assert math.isclose(hi, min(1.0, center + margin), rel_tol=1e-9)


def test_wilson_validation():
    with pytest.raises(ValueError):
        wilson_interval(5, 0)
    with pytest.raises(ValueError):
        wilson_interval(7, 5)
    with pytest.raises(ValueError):
        wilson_interval(1, 5, confidence=1.0)


# ------------------------------------------------------------ spec validation

def test_spec_constant_mode_needs_c_values():
    with pytest.raises(ValueError):
        ExperimentSpec(CONSTANT_T_SWEEP, (10,), 1, 10, 0, t=1)
    with pytest.raises(ValueError):
        ExperimentSpec(CONSTANT_T_SWEEP, (10,), 1, 10, 0, t=1,
                       c_values=(1.0,), p_values=(0.1,))
    with pytest.raises(ValueError):
        ExperimentSpec(CONSTANT_T_SWEEP, (10,), 1, 10, 0, c_values=(1.0,))  # no t
    with pytest.raises(ValueError):
        ExperimentSpec(CONSTANT_T_SWEEP, (10,), 1, 10, 0, t=1, c_values=(0.0,))


def test_spec_linear_mode_constraints():
    with pytest.raises(ValueError):
        ExperimentSpec(LINEAR_REGIME_SWEEP, (10,), 1, 10, 0, alpha=1.5, p_values=(0.1,))
    with pytest.raises(ValueError):
        ExperimentSpec(LINEAR_REGIME_SWEEP, (10,), 1, 10, 0, alpha=0.3,
                       t=2, p_values=(0.1,))
    with pytest.raises(ValueError):
        ExperimentSpec(LINEAR_REGIME_SWEEP, (10,), 1, 10, 0, alpha=0.3, p_values=(1.2,))


def test_spec_single_point_constraints():
    ExperimentSpec(SINGLE_POINT, (10,), 1, 5, 0, t=1, p_values=(0.1,))
    ExperimentSpec(SINGLE_POINT, (10,), 1, 5, 0, t=1, c_values=(1.0,))
    with pytest.raises(ValueError):
        ExperimentSpec(SINGLE_POINT, (10, 20), 1, 5, 0, t=1, p_values=(0.1,))
    with pytest.raises(ValueError):
        ExperimentSpec(SINGLE_POINT, (10,), 1, 5, 0, t=1, p_values=(0.1, 0.2))
    with pytest.raises(ValueError):
        ExperimentSpec(SINGLE_POINT, (10,), 1, 5, 0, t=1)


@pytest.mark.parametrize("mode,values", [
    (CONSTANT_T_SWEEP, {"c_values": (1.0,)}),
    (SINGLE_POINT, {"p_values": (0.1,)}),
])
def test_spec_threshold_modes_need_positive_r_and_t(mode, values):
    # Both modes evaluate threshold_p(n, r, t) per point; reject at load time.
    with pytest.raises(ValueError, match="r >= 1"):
        ExperimentSpec(mode, (10,), 0, 5, 0, t=1, **values)
    with pytest.raises(ValueError, match="t >= 1"):
        ExperimentSpec(mode, (10,), 1, 5, 0, t=0, **values)


def test_spec_common_constraints():
    with pytest.raises(ValueError):
        ExperimentSpec("WRONG", (10,), 1, 5, 0, t=1, c_values=(1.0,))
    with pytest.raises(ValueError):
        ExperimentSpec(CONSTANT_T_SWEEP, (), 1, 5, 0, t=1, c_values=(1.0,))
    with pytest.raises(ValueError):
        ExperimentSpec(CONSTANT_T_SWEEP, (1,), 1, 5, 0, t=1, c_values=(1.0,))
    with pytest.raises(ValueError):
        ExperimentSpec(CONSTANT_T_SWEEP, (10,), 1, 0, 0, t=1, c_values=(1.0,))
    with pytest.raises(ValueError):
        ExperimentSpec(CONSTANT_T_SWEEP, (10,), 1, 5, -1, t=1, c_values=(1.0,))
    with pytest.raises(ValueError):
        ExperimentSpec(CONSTANT_T_SWEEP, (10,), 1, 5, 0, t=1, c_values=(1.0,),
                       confidence=0.0)


# ------------------------------------------------------------------- sweeps

def test_sweep_points_sorted_and_themed():
    results = run_sweep(SMALL_SWEEP)
    keys = [(p.n, p.c_or_p) for p in results]
    assert keys == sorted(keys) == [(8, 0.5), (8, 1.0), (16, 0.5), (16, 1.0)]
    for p in results:
        assert p.trials == 64
        assert 0.0 <= p.ci_low <= p.p_hat <= p.ci_high <= 1.0
        assert p.theory == asymptotic_success(p.c_or_p, 1, 1)
        assert p.mean_residual_edges >= 0.0
        assert p.mean_rounds_to_fixpoint >= 0.0
        assert 0.0 <= p.one_round_fraction <= 1.0


def test_sweep_deterministic_and_worker_independent():
    a = write_results(run_sweep(SMALL_SWEEP), "csv")
    b = write_results(run_sweep(SMALL_SWEEP), "csv")
    c = write_results(run_sweep(SMALL_SWEEP, workers=3), "csv")
    assert a == b == c


# ------------------------------------------------------------ trial ranges

def _single_point(trials):
    return ExperimentSpec(mode=SINGLE_POINT, n_values=(20,), r=2, t=1, c_values=(1.5,),
                          trials_per_point=trials, master_seed=11)


class _FakePool:
    """Stands in for ProcessPoolExecutor: records its size and the shares of
    ranges submitted, and runs each share in this process when submitted."""

    def __init__(self, max_workers, initializer=None):
        self.max_workers = max_workers
        self.initializer = initializer
        self.shares = []
        _FakePool.made.append(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, share):
        self.shares.append([(task["point_index"], start, stop) for _, task, start, stop in share])
        future = Future()
        future.set_result(fn(share))
        return future


@pytest.fixture
def fake_pool(monkeypatch):
    _FakePool.made = []
    monkeypatch.setattr(experiment, "ProcessPoolExecutor", _FakePool)
    return _FakePool.made


@pytest.fixture
def ranges_run(monkeypatch):
    """Every range run, in the caller or in a fake pool, as (point, start, stop)."""
    ran = []
    run_range = experiment._run_range

    def recording_range(args):
        _, task, start, stop = args
        ran.append((task["point_index"], start, stop))
        return run_range(args)

    monkeypatch.setattr(experiment, "_run_range", recording_range)
    return ran


# A trial patched in this process reaches the pool's workers only when they
# are forked from it.
needs_fork = pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                                reason="patched trials reach workers only by fork")


@pytest.mark.parametrize("trials", [1, 7])
def test_sweep_bytes_are_equal_at_one_two_and_three_workers(monkeypatch, trials):
    # Enough CPUs that three workers really cut a point three ways.
    monkeypatch.setattr(experiment, "_available_cpus", lambda: 8)
    spec = _single_point(trials)
    outputs = [(write_results(res, "csv"), write_results(res, "json"))
               for res in (run_sweep(spec, workers=w) for w in (1, 2, 3))]
    assert outputs[0] == outputs[1] == outputs[2]


@pytest.mark.parametrize("trials,workers,ranges", [
    (7, 2, [(0, 3), (3, 7)]),
    (7, 3, [(0, 2), (2, 4), (4, 7)]),
    (2, 3, [(0, 1), (1, 2)]),
])
def test_pool_gets_contiguous_nonempty_ranges(monkeypatch, fake_pool, ranges_run,
                                              trials, workers, ranges):
    monkeypatch.setattr(experiment, "_available_cpus", lambda: 8)
    expected = write_results(run_sweep(_single_point(trials)), "csv")
    ranges_run.clear()
    heap = []
    monkeypatch.setattr(experiment, "_keep_heap_resident", lambda: heap.append("caller"))
    assert write_results(run_sweep(_single_point(trials), workers=workers), "csv") == expected
    (pool,) = fake_pool
    # One process per range, the caller among them: one worker fewer.
    assert pool.max_workers == len(ranges) - 1
    assert pool.initializer is experiment._keep_heap_resident
    assert heap == ["caller"]
    # Every range is cut as before and runs once: the caller runs the
    # first, and each pool worker gets one task holding one other range.
    ranges = [(0, *cut) for cut in ranges]
    assert sorted(ranges_run) == ranges and len(ranges_run) == len(ranges)
    assert pool.shares == [[cut] for cut in ranges[1:]]
    assert ranges_run[-1] == ranges[0]


def test_one_trial_per_point_starts_no_pool(monkeypatch, fake_pool):
    monkeypatch.setattr(experiment, "_available_cpus", lambda: 8)
    run_sweep(_single_point(1), workers=3)
    assert fake_pool == []


def test_pool_size_is_capped_by_cpus_and_ranges(monkeypatch, fake_pool, ranges_run):
    # Under fork the real executor starts every max_workers process at once,
    # so a huge worker count is only ever handed to the fake.
    monkeypatch.setattr(experiment, "_available_cpus", lambda: 3)
    run_sweep(SMALL_SWEEP, workers=5000)
    (pool,) = fake_pool
    assert pool.max_workers == 3 - 1
    # Each of the 4 points is cut three ways, and process j runs cut j of
    # every point; every range runs exactly once.
    cuts = [(0, 21), (21, 42), (42, 64)]
    ranges = [(k, *cut) for k in range(4) for cut in cuts]
    assert sorted(ranges_run) == ranges and len(ranges_run) == len(ranges)
    assert pool.shares == [ranges[1::3], ranges[2::3]]
    assert ranges_run[-4:] == ranges[0::3]
    monkeypatch.setattr(experiment, "_available_cpus", lambda: 1)
    run_sweep(SMALL_SWEEP, workers=5000)
    assert len(fake_pool) == 1  # one CPU: the sweep ran in this process


@needs_fork
def test_two_process_sweep_runs_trials_in_the_caller_and_one_child(monkeypatch, tmp_path):
    monkeypatch.setattr(experiment, "_available_cpus", lambda: 2)
    pids = tmp_path / "pids"

    def recording_trial(*args):
        with open(pids, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return run_trial(*args)

    spec = _single_point(8)
    expected = write_results(run_sweep(spec), "csv")
    monkeypatch.setattr(experiment, "run_trial", recording_trial)
    assert write_results(run_sweep(spec, workers=2), "csv") == expected
    ran_in = pids.read_text().split()
    assert len(ran_in) == 8
    assert len(set(ran_in)) == 2 and str(os.getpid()) in ran_in
    assert multiprocessing.active_children() == []


@needs_fork
def test_error_in_the_callers_share_leaves_no_child(monkeypatch):
    monkeypatch.setattr(experiment, "_available_cpus", lambda: 2)
    caller = os.getpid()

    def failing_trial(*args):
        if os.getpid() == caller:
            raise RuntimeError("trial failed in the caller")
        return run_trial(*args)

    monkeypatch.setattr(experiment, "run_trial", failing_trial)
    with pytest.raises(RuntimeError, match="trial failed in the caller"):
        run_sweep(_single_point(8), workers=2)
    assert multiprocessing.active_children() == []


@needs_fork
def test_dead_worker_stops_the_callers_share_early(monkeypatch, tmp_path):
    # The worker dies at its first trial, as under the OOM killer, while
    # each of the caller's trials waits for that death and then takes a
    # while: checked only after the caller's whole share, the sweep would
    # run all six of the caller's ranges before it failed.
    monkeypatch.setattr(experiment, "_available_cpus", lambda: 2)
    caller = os.getpid()
    died = tmp_path / "died"
    ran = []

    def trial(*args):
        if os.getpid() != caller:
            died.touch()
            os._exit(3)
        for _ in range(600):  # the worker dies within 30 s, or the test fails
            if died.exists():
                break
            time.sleep(0.05)
        time.sleep(0.3)
        ran.append(args[-1])
        return run_trial(*args)

    monkeypatch.setattr(experiment, "run_trial", trial)
    spec = dataclasses.replace(SMALL_SWEEP, n_values=(8, 16, 24), trials_per_point=2)
    with pytest.raises(BrokenProcessPool):
        run_sweep(spec, workers=2)
    assert died.exists()
    assert 1 <= len(ran) < 6
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers", [0, -3, 1.5, True])
def test_sweep_rejects_bad_worker_counts(workers):
    with pytest.raises(ValueError, match="workers"):
        run_sweep(_single_point(2), workers=workers)


def test_serial_sweep_runs_trials_point_major_in_order(monkeypatch):
    seeds = []

    def recording_trial(n, p, params, seed):
        seeds.append(seed)
        return run_trial(n, p, params, seed)

    monkeypatch.setattr(experiment, "run_trial", recording_trial)
    spec = SMALL_SWEEP
    run_sweep(spec)
    assert seeds == [trial_seed(spec.master_seed, k, i, spec.trials_per_point)
                     for k in range(4) for i in range(spec.trials_per_point)]


def test_serial_sweep_keeps_its_own_heap_resident(monkeypatch, fake_pool):
    # With one process the trials run here, so this process pins the
    # thresholds itself, once per sweep and before its first trial.
    events = []
    monkeypatch.setattr(experiment, "_keep_heap_resident", lambda: events.append("heap"))
    monkeypatch.setattr(experiment, "run_trial", lambda *args: events.append("trial") or run_trial(*args))
    run_sweep(_single_point(3))
    assert fake_pool == []
    assert events == ["heap", "trial", "trial", "trial"]


class _Libc:
    def __init__(self, returns):
        self.calls = []
        self._returns = returns

        # A plain function, not a method: the initializer sets argtypes on it.
        def mallopt(param, value):
            self.calls.append((param, value))
            return self._returns

        self.mallopt = mallopt


def test_heap_initializer_is_quiet_without_mallopt():
    assert experiment._keep_heap_resident(libc=object()) is False


def test_heap_initializer_is_quiet_when_mallopt_refuses():
    libc = _Libc(returns=0)
    assert experiment._keep_heap_resident(libc=libc) is False
    assert len(libc.calls) == 1  # stops at the first refusal


def test_heap_initializer_pins_both_thresholds():
    libc = _Libc(returns=1)
    assert experiment._keep_heap_resident(libc=libc) is True
    assert [param for param, _ in libc.calls] == [experiment._M_MMAP_THRESHOLD, experiment._M_TRIM_THRESHOLD]
    assert libc.calls[0][1] <= 32 * 2**20


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt thresholds are glibc's")
def test_heap_initializer_takes_in_a_pool_worker():
    with ProcessPoolExecutor(max_workers=1) as pool:
        assert pool.submit(experiment._keep_heap_resident).result(timeout=60) is True


def test_linear_sweep_theory_column():
    spec = ExperimentSpec(
        mode=LINEAR_REGIME_SWEEP,
        n_values=(40,),
        r=1,
        alpha=0.3,
        p_values=(0.4, 0.2),
        trials_per_point=32,
        master_seed=9,
    )
    results = run_sweep(spec)
    assert [p.c_or_p for p in results] == [0.2, 0.4]
    assert results[0].theory == linear_regime_prediction(0.2, 0.3)
    assert results[1].theory == linear_regime_prediction(0.4, 0.3)
    assert results[0].t_or_alpha == 0.3
    # p below alpha peels in one round nearly always at this size.
    assert results[0].p_hat > results[1].p_hat


def test_single_point_modes():
    by_p = run_sweep(ExperimentSpec(SINGLE_POINT, (12,), 1, 16, 3, t=1, p_values=(0.02,)))
    assert len(by_p) == 1 and by_p[0].c_or_p == 0.02
    by_c = run_sweep(ExperimentSpec(SINGLE_POINT, (12,), 1, 16, 3, t=1, c_values=(1.0,)))
    assert len(by_c) == 1 and by_c[0].theory == asymptotic_success(1.0, 1, 1)


# ----------------------------------------------------------------- writers

def test_csv_header_only():
    assert write_results([], "csv") == CSV_COLUMNS + "\n"


def test_csv_one_point_round_trip():
    results = run_sweep(ExperimentSpec(SINGLE_POINT, (12,), 1, 16, 3, t=1, p_values=(0.05,)))
    text = write_results(results, "csv")
    lines = text.strip().split("\n")
    assert len(lines) == 2
    assert lines[0] == CSV_COLUMNS
    fields = lines[1].split(",")
    assert len(fields) == 13
    assert fields[0] == SINGLE_POINT
    assert int(fields[1]) == 12 and int(fields[5]) == 16
    assert float(fields[7]) == results[0].p_hat or abs(float(fields[7]) - results[0].p_hat) < 1e-6


def test_csv_float_formatting():
    results = run_sweep(SMALL_SWEEP)
    for line in write_results(results, "csv").strip().split("\n")[1:]:
        for field in line.split(","):
            # 6 significant digits: no float field may carry more
            if "." in field and "e" not in field:
                digits = field.replace("-", "").replace(".", "").lstrip("0")
                assert len(digits) <= 6


def test_json_round_trip():
    results = run_sweep(SMALL_SWEEP)
    rows = json.loads(write_results(results, "json"))
    assert len(rows) == len(results)
    for row, point in zip(rows, results):
        assert row["mode"] == point.mode
        assert row["n"] == point.n
        assert row["p_hat"] == point.p_hat
        assert row["theory"] == point.theory
        assert row["mean_rounds"] == point.mean_rounds_to_fixpoint


# SHA-256 of the CSV and JSON of one small sweep per mode: any change to the
# columns, their formatting or the point order shows here.  Unsorted n
# values and a repeated c or p value are included on purpose.
GOLDEN_SWEEPS = [
    (dict(mode=CONSTANT_T_SWEEP, n_values=(16, 8), r=1, t=1, c_values=(1.0, 0.5, 1.0)),
     "76b4aea5bd88950ebc86cfdfcb185681720c916b5409cbd4a6b5eab948f74b4f",
     "e5676a895eda807a5667ebca08bd97c1a8be5a67181ce6c7d92b72868236648b"),
    (dict(mode=LINEAR_REGIME_SWEEP, n_values=(30, 10), r=2, alpha=0.3, p_values=(0.4, 0.2, 0.2)),
     "dc219f946c7010550edb9bc506040f3490fe52401a1ee8c2a59116d42937e63f",
     "2b1a65516cc765ee37f9d74b5d8f3ebb8d44c97c139e69158aaedd31e3981561"),
    (dict(mode=SINGLE_POINT, n_values=(12,), r=2, t=1, c_values=(1.0,)),
     "c9394b0437107eaa0b55e9d8b14ba216280a226f66dd2f305d30013c5293395f",
     "3bb3a165bf579cf46d0c1f66557d272d513decf35797e4fc5710fa7890e70b56"),
]


@pytest.mark.parametrize("fields,csv_sha,json_sha", GOLDEN_SWEEPS)
def test_results_bytes_are_pinned(fields, csv_sha, json_sha):
    results = run_sweep(ExperimentSpec(trials_per_point=20, master_seed=5, **fields))
    for fmt, sha in (("csv", csv_sha), ("json", json_sha)):
        assert hashlib.sha256(write_results(results, fmt).encode()).hexdigest() == sha, fmt


def test_writer_rejects_unknown_format():
    with pytest.raises(ValueError):
        write_results([], "xml")


def test_json_writer_rejects_non_finite_floats():
    # Strict JSON has no Infinity or NaN; the spec keeps them out of the
    # results, and the writer refuses any that get there.
    (point,) = run_sweep(_single_point(2))
    with pytest.raises(ValueError):
        write_results([dataclasses.replace(point, c_or_p=math.inf)], "json")


# ---------------------------------------------------------------- spec files

KV_SPEC = """
# threshold sweep at c=1
mode = CONSTANT_T_SWEEP
n_values = 8, 16
r = 1
t = 1
c_values = 1.0
trials_per_point = 4
master_seed = 11
"""


def test_load_spec_key_value():
    spec = load_spec(KV_SPEC)
    assert spec.mode == CONSTANT_T_SWEEP
    assert spec.n_values == (8, 16)
    assert spec.c_values == (1.0,)
    assert spec.master_seed == 11


def test_load_spec_json():
    text = json.dumps({
        "mode": LINEAR_REGIME_SWEEP, "n_values": [20], "r": 1,
        "alpha": 0.3, "p_values": [0.2, 0.4], "trials_per_point": 2,
    })
    spec = load_spec(text)
    assert spec.alpha == 0.3
    assert spec.master_seed == 0  # default when unspecified


def test_load_spec_overrides():
    spec = load_spec(KV_SPEC, overrides={"trials_per_point": 9, "master_seed": None})
    assert spec.trials_per_point == 9
    assert spec.master_seed == 11  # None overrides are ignored


def test_load_spec_errors():
    with pytest.raises(ValueError, match="unknown spec field"):
        load_spec("mode = CONSTANT_T_SWEEP\nbogus = 1\n")
    with pytest.raises(ValueError, match="incomplete spec"):
        load_spec("mode = CONSTANT_T_SWEEP\n")
    with pytest.raises(ValueError, match="line 2"):
        load_spec("mode = CONSTANT_T_SWEEP\nnot a pair\n")
    with pytest.raises(ValueError, match="JSON must be an object"):
        load_spec("[1, 2]")


JSON_SPEC = {
    "mode": CONSTANT_T_SWEEP, "n_values": [8, 16], "r": 1, "t": 1,
    "c_values": [1.0], "trials_per_point": 4, "master_seed": 11,
}


@pytest.mark.parametrize("bad", [1.5, True])
@pytest.mark.parametrize("field", ["r", "t", "n_values", "trials_per_point", "master_seed"])
def test_load_spec_rejects_inexact_integers(field, bad):
    raw = {**JSON_SPEC, field: [8, bad] if field == "n_values" else bad}
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        load_spec(json.dumps(raw))


@pytest.mark.parametrize("line,message", [
    ("r = 1.5", "r must be an integer, got '1.5'"),
    ("n_values = 8, x", "n_values must be an integer, got 'x'"),
])
def test_load_spec_names_the_field_of_bad_integer_text(line, message):
    with pytest.raises(ValueError, match=message):
        load_spec(KV_SPEC + line + "\n")


@pytest.mark.parametrize("field", ["alpha", "c_values", "p_values", "confidence"])
def test_load_spec_rejects_bool_numbers(field):
    raw = {**JSON_SPEC, field: [True] if field.endswith("_values") else True}
    with pytest.raises(ValueError, match=f"{field} must be a number"):
        load_spec(json.dumps(raw))


@pytest.mark.parametrize("field,bad", [
    ("n_values", 8), ("c_values", 1.0), ("p_values", None), ("n_values", {"8": 1}),
])
def test_load_spec_rejects_scalar_list_fields(field, bad):
    with pytest.raises(ValueError, match=f"{field} must be a list or a comma-separated string"):
        load_spec(json.dumps({**JSON_SPEC, field: bad}))


@pytest.mark.parametrize("field,bad", [("r", None), ("n_values", [[8]]), ("c_values", [None])])
def test_load_spec_rejects_non_scalar_values(field, bad):
    with pytest.raises(ValueError, match=f"{field} must be"):
        load_spec(json.dumps({**JSON_SPEC, field: bad}))


@pytest.mark.parametrize("field,bad,message", [
    ("trials_per_point", 2.5, "trials_per_point must be an integer"),
    ("n_values", (20.7,), "n_values must be an integer"),
    ("r", True, "r must be an integer"),
    ("c_values", (math.nan,), "every c must be positive"),
])
def test_spec_built_in_python_is_validated_like_a_loaded_one(field, bad, message):
    fields = {"mode": CONSTANT_T_SWEEP, "n_values": (8,), "r": 1, "t": 1,
              "c_values": (1.0,), "trials_per_point": 4, "master_seed": 0, field: bad}
    with pytest.raises(ValueError, match=message):
        ExperimentSpec(**fields)


def test_spec_built_in_python_takes_numpy_integers():
    spec = ExperimentSpec(CONSTANT_T_SWEEP, (np.int64(8),), np.int64(1), 4, 0, t=1, c_values=(1,))
    assert spec.n_values == (8,) and type(spec.n_values[0]) is int and type(spec.r) is int
    assert spec.c_values == (1.0,) and type(spec.c_values[0]) is float


@pytest.mark.parametrize("text", [
    json.dumps({**JSON_SPEC, "c_values": "nan"}),
    "mode = SINGLE_POINT\nn_values = 8\nr = 1\nt = 1\nc_values = nan\ntrials_per_point = 4\n",
    json.dumps({**JSON_SPEC, "c_values": "1.0, inf"}),
    json.dumps({**JSON_SPEC, "c_values": [1.0, 2.0]}).replace("2.0", "1e400"),
    "mode = SINGLE_POINT\nn_values = 8\nr = 1\nt = 1\nc_values = inf\ntrials_per_point = 4\n",
    "mode = SINGLE_POINT\nn_values = 8\nr = 1\nt = 1\nc_values = 1e400\ntrials_per_point = 4\n",
])
def test_load_spec_rejects_nan_c(text):
    with pytest.raises(ValueError, match="every c must be positive and finite"):
        load_spec(text)


def test_load_spec_accepts_integral_floats():
    spec = load_spec(json.dumps({**JSON_SPEC, "r": 2.0, "n_values": [8.0]}))
    assert spec.r == 2 and isinstance(spec.r, int)
    assert spec.n_values == (8,)
