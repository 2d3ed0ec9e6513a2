import dataclasses
import hashlib
import json
import math
import os
import platform
import random
import signal
import threading
import time

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

from helpers import TwoArgError, assert_no_child, exact_four_by_four, exact_success_one_round

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
    assert rec.fixpoint_rounds == 0


def test_trial_p_one_fails():
    rec = run_trial(10, 1.0, DecodeParams(1, 1), seed=3)
    assert not rec.success
    assert rec.residual_edges == 100


def test_trial_determinism():
    a = run_trial(30, 0.05, DecodeParams(2, 1), seed=77)
    b = run_trial(30, 0.05, DecodeParams(2, 1), seed=77)
    assert a == b


def test_one_round_trial_succeeds_when_every_row_is_within_capability():
    # A one-round trial succeeds exactly when every row of its pattern is
    # within capability; check it against the row degrees of the same
    # sampled graph, without the decoder.
    for n in (12, 30):
        for t in range(4):
            for c in (0.5, 1.0, 2.0, 4.0):
                p = min(1.0, c * threshold_p(n, 1, max(t, 1)))
                for seed in range(10):
                    g = sample_bipartite(n, n, p, seed)
                    expect = g.edge_count == 0 or np.bincount(g.u).max() <= t
                    assert run_trial(n, p, DecodeParams(1, t), seed).success == expect, (n, t, c, seed)


def _reference_trial(n, p, params, seed):
    # The trial composed from the public decoders' outcomes.
    g = sample_bipartite(n, n, p, seed)
    limited = decode(g, params)
    fix = decode_fixpoint(g, params.t)
    return TrialRecord(
        success=limited.success,
        residual_edges=limited.residual.edge_count,
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
    # 0.5 + confidence / 2 rounds to 1.0, whose normal quantile is infinite.
    with pytest.raises(ValueError, match="confidence must lie in"):
        wilson_interval(1, 5, confidence=1 - 2**-53)
    assert wilson_interval(1, 5, confidence=1 - 2**-52)[0] > 0.0


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
    with pytest.raises(ValueError, match="r must be >= 0"):
        ExperimentSpec(LINEAR_REGIME_SWEEP, (10,), -1, 10, 0, alpha=0.3, p_values=(0.1,))
    with pytest.raises(ValueError, match="exactly one non-empty list, p_values"):
        ExperimentSpec(LINEAR_REGIME_SWEEP, (10,), 1, 10, 0, alpha=0.3, c_values=(1.0,))
    # r = 0 is a valid round count when t comes from alpha.
    ExperimentSpec(LINEAR_REGIME_SWEEP, (10,), 0, 10, 0, alpha=0.3, p_values=(0.1,))


def test_spec_single_point_constraints():
    ExperimentSpec(SINGLE_POINT, (10,), 1, 5, 0, t=1, p_values=(0.1,))
    ExperimentSpec(SINGLE_POINT, (10,), 1, 5, 0, t=1, c_values=(1.0,))
    with pytest.raises(ValueError):
        ExperimentSpec(SINGLE_POINT, (10, 20), 1, 5, 0, t=1, p_values=(0.1,))
    with pytest.raises(ValueError):
        ExperimentSpec(SINGLE_POINT, (10,), 1, 5, 0, t=1, p_values=(0.1, 0.2))
    with pytest.raises(ValueError):
        ExperimentSpec(SINGLE_POINT, (10,), 1, 5, 0, t=1)
    for p in (1.5, -0.1):
        with pytest.raises(ValueError, match=r"every p must lie in \[0, 1\]"):
            ExperimentSpec(SINGLE_POINT, (10,), 1, 5, 0, t=1, p_values=(p,))


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
    with pytest.raises(ValueError, match="no alpha"):
        ExperimentSpec(mode, (10,), 1, 5, 0, t=1, alpha=0.3, **values)


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
    with pytest.raises(ValueError, match=r"2\*\*61 cells"):
        ExperimentSpec(CONSTANT_T_SWEEP, (200, 3_000_000_000), 1, 5, 0, t=1, c_values=(1.0,))


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
        assert p.mean_rounds >= 0.0


def test_raw_p_trials_sample_the_same_patterns_at_every_r(monkeypatch):
    # Trial seeds do not depend on r, and neither does a raw p, so a raw-p
    # sweep samples the same patterns at every r; a c sweep does not, since
    # its p moves with r through the threshold.
    calls = []

    def recording_sample(*args):
        calls.append(args)
        return sample_bipartite(*args)

    monkeypatch.setattr(experiment, "sample_bipartite", recording_sample)

    def sampled(spec, r):
        del calls[:]
        run_sweep(dataclasses.replace(spec, r=r))
        return [(n, p, seed) for n, _, p, seed in calls]

    linear = ExperimentSpec(LINEAR_REGIME_SWEEP, (30, 20), 1, 6, 4, alpha=0.3, p_values=(0.35, 0.2))
    single = ExperimentSpec(SINGLE_POINT, (25,), 1, 6, 4, t=2, p_values=(0.1,))
    for spec, r in ((linear, 8), (single, 3)):
        assert len(sampled(spec, 1)) == 6 * len(spec.n_values) * len(spec.p_values)
        assert sampled(spec, r) == sampled(spec, 1)
    by_c = dataclasses.replace(single, p_values=None, c_values=(1.0,))
    one, two = sampled(by_c, 1), sampled(by_c, 2)
    assert [seed for *_, seed in one] == [seed for *_, seed in two]
    assert {p for _, p, _ in one}.isdisjoint(p for _, p, _ in two)


def test_sweep_deterministic_and_worker_independent():
    a = write_results(run_sweep(SMALL_SWEEP), "csv")
    b = write_results(run_sweep(SMALL_SWEEP), "csv")
    c = write_results(run_sweep(SMALL_SWEEP, workers=3), "csv")
    assert a == b == c


# ------------------------------------------------------------ trial shares

def _single_point(trials):
    return ExperimentSpec(mode=SINGLE_POINT, n_values=(20,), r=2, t=1, c_values=(1.5,),
                          trials_per_point=trials, master_seed=11)


def _three_points(trials):
    return ExperimentSpec(mode=CONSTANT_T_SWEEP, n_values=(20,), r=2, t=1, c_values=(0.5, 1.0, 1.5),
                          trials_per_point=trials, master_seed=11)


class _SweepLog:
    """What a sweep forked and which process ran which share and trial.

    procs lists the process count of each forking sweep, as the calling
    process saw it.  Every process, forked ones included, appends its
    events to one file, one short line each: ("fork", caller pid) just
    before the caller forks, ("share", pid, first, step) as a share starts
    and ("trial", pid, first, seed) for each trial."""

    def __init__(self, path):
        self.path = path
        self.procs = []
        self.clear()

    def clear(self):
        self.path.write_text("")
        self.procs.clear()

    def write(self, *event):
        with open(self.path, "a") as fh:
            fh.write(" ".join(map(str, event)) + "\n")

    def events(self):
        return [(kind, *map(int, rest)) for kind, *rest in map(str.split, self.path.read_text().splitlines())]

    def trials(self):
        """(first, seed) of every trial run, in any process."""
        return [event[2:] for event in self.events() if event[0] == "trial"]


@pytest.fixture
def sweep_log(monkeypatch, tmp_path):
    """Logs forks, shares and trials (see _SweepLog), and refuses, before
    any fork, a sweep of more than three processes."""
    log = _SweepLog(tmp_path / "sweep.log")
    run_forked, run_share, fork = experiment._run_forked, experiment._run_share, os.fork
    share = [None]  # this process's current share, inherited by a fork

    def forked(spec, points, procs):
        assert procs <= 3, f"a test sweep asked for {procs} processes"
        log.procs.append(procs)
        return run_forked(spec, points, procs)

    def logged_fork():
        log.write("fork", os.getpid())
        return fork()

    def logged_share(spec, points, first, step, *args):
        share[0] = first
        log.write("share", os.getpid(), first, step)
        return run_share(spec, points, first, step, *args)

    def logged_trial(*args):
        log.write("trial", os.getpid(), share[0], args[-1])
        return run_trial(*args)

    monkeypatch.setattr(experiment, "_run_forked", forked)
    monkeypatch.setattr(experiment, "_run_share", logged_share)
    monkeypatch.setattr(experiment, "run_trial", logged_trial)
    monkeypatch.setattr(os, "fork", logged_fork)
    return log


def _strided(trials_run, spec, procs):
    """Every trial ran once, and share j ran the trials g = j mod procs of
    the point-major sequence g = point * trials_per_point + trial."""
    tpp = spec.trials_per_point
    points = len(spec.n_values) * len(spec.c_values)
    place = {trial_seed(spec.master_seed, k, i, tpp): k * tpp + i
             for k in range(points) for i in range(tpp)}
    assert sorted(place[seed] for _, seed in trials_run) == list(range(points * tpp))
    assert all(place[seed] % procs == first for first, seed in trials_run)


def _forked_shares(events, procs):
    """The caller forked procs - 1 children and then ran share 0 itself,
    and each child ran one share j in 1..procs-1, a different one each."""
    caller = os.getpid()
    own = [event for event in events if event[1] == caller and event[0] != "trial"]
    assert own == [("fork", caller)] * (procs - 1) + [("share", caller, 0, procs)]
    children = {event[1]: event[2:] for event in events if event[0] == "share" and event[1] != caller}
    assert sorted(children.values()) == [(j, procs) for j in range(1, procs)]


# A trial patched in this process reaches the workers only when they are
# forked from it.
needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="patched trials reach workers only by fork")


@pytest.mark.parametrize("spec", [
    pytest.param(_single_point(1), id="1"),
    pytest.param(_single_point(7), id="7"),
    # Fewer trials per point than workers: the shares cross points.
    pytest.param(_three_points(1), id="3-points-1"),
    pytest.param(_three_points(2), id="3-points-2"),
])
def test_sweep_bytes_are_equal_at_one_two_and_three_workers(monkeypatch, spec):
    # Enough CPUs that three workers really run three shares.
    monkeypatch.setattr(experiment, "_available_cpus", lambda: 8)
    outputs = [(write_results(res, "csv"), write_results(res, "json"))
               for res in (run_sweep(spec, workers=w) for w in (1, 2, 3))]
    assert outputs[0] == outputs[1] == outputs[2]


@needs_fork
@pytest.mark.parametrize("spec,workers,procs", [
    (_single_point(7), 2, 2),
    (_single_point(7), 3, 3),
    (_single_point(2), 3, 2),
    (_three_points(1), 3, 3),
    (_three_points(2), 3, 3),
], ids=["1x7-2", "1x7-3", "1x2-3", "3x1-3", "3x2-3"])  # points x trials-workers
def test_each_forked_worker_runs_one_strided_share(monkeypatch, sweep_log, spec, workers, procs):
    monkeypatch.setattr(experiment, "_available_cpus", lambda: 8)
    expected = write_results(run_sweep(spec), "csv")
    sweep_log.clear()
    heap = []
    monkeypatch.setattr(experiment, "_keep_heap_resident", lambda: heap.append("caller"))
    assert write_results(run_sweep(spec, workers=workers), "csv") == expected
    # One share per process, the caller among them: one child fewer.  The
    # children inherit the heap thresholds, set once, before the forks.
    assert sweep_log.procs == [procs]
    assert heap == ["caller"]
    _forked_shares(sweep_log.events(), procs)
    _strided(sweep_log.trials(), spec, procs)
    assert_no_child()


def test_a_single_trial_forks_no_worker(monkeypatch, sweep_log):
    monkeypatch.setattr(experiment, "_available_cpus", lambda: 8)
    run_sweep(_single_point(1), workers=3)
    assert sweep_log.procs == []
    assert [event for event in sweep_log.events() if event[0] == "fork"] == []


@needs_fork
def test_process_count_is_capped_by_cpus_and_trials(monkeypatch, sweep_log):
    # Each sweep would fork all but one of its processes at once, so the
    # log refuses more than three, before any fork.
    monkeypatch.setattr(experiment, "_available_cpus", lambda: 3)
    run_sweep(SMALL_SWEEP, workers=5000)
    assert sweep_log.procs == [3]
    _forked_shares(sweep_log.events(), 3)
    _strided(sweep_log.trials(), SMALL_SWEEP, 3)
    # Three trials in all: three processes, however many CPUs.
    monkeypatch.setattr(experiment, "_available_cpus", lambda: 8)
    sweep_log.clear()
    run_sweep(_three_points(1), workers=5000)
    assert sweep_log.procs == [3]
    _forked_shares(sweep_log.events(), 3)
    _strided(sweep_log.trials(), _three_points(1), 3)
    monkeypatch.setattr(experiment, "_available_cpus", lambda: 1)
    sweep_log.clear()
    run_sweep(SMALL_SWEEP, workers=5000)
    assert sweep_log.procs == []  # one CPU: the sweep ran in this process
    assert {event[1] for event in sweep_log.events()} == {os.getpid()}
    assert_no_child()


def test_sweep_without_fork_runs_serially(monkeypatch, sweep_log):
    # Where os.fork does not exist, procs is 1, whatever the CPUs and workers.
    monkeypatch.setattr(experiment, "_available_cpus", lambda: 8)
    expected = write_results(run_sweep(_three_points(2)), "csv")
    sweep_log.clear()
    monkeypatch.delattr(os, "fork")
    assert write_results(run_sweep(_three_points(2), workers=3), "csv") == expected
    assert sweep_log.procs == []
    assert [event[:2] for event in sweep_log.events() if event[0] == "share"] == [("share", os.getpid())]


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
    assert_no_child()


@needs_fork
@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_error_in_the_callers_share_leaves_no_child(monkeypatch, error):
    monkeypatch.setattr(experiment, "_available_cpus", lambda: 2)
    caller = os.getpid()

    def failing_trial(*args):
        if os.getpid() == caller:
            raise error("trial failed in the caller")
        return run_trial(*args)

    monkeypatch.setattr(experiment, "run_trial", failing_trial)
    with pytest.raises(error, match="trial failed in the caller"):
        run_sweep(_single_point(8), workers=2)
    assert_no_child()


@needs_fork
def test_error_in_the_callers_share_stops_the_workers(monkeypatch, tmp_path):
    # Each of the worker's 40 trials takes 0.1 s, so its share alone takes
    # 4 s; the caller fails at its first trial and kills the worker, so the
    # error comes out at once.
    monkeypatch.setattr(experiment, "_available_cpus", lambda: 2)
    caller = os.getpid()
    ran = tmp_path / "ran"
    ran.touch()

    def trial(*args):
        if os.getpid() == caller:
            raise RuntimeError("trial failed in the caller")
        with open(ran, "a") as fh:
            fh.write("trial\n")
        time.sleep(0.1)
        return run_trial(*args)

    monkeypatch.setattr(experiment, "run_trial", trial)
    start = time.perf_counter()
    with pytest.raises(RuntimeError, match="trial failed in the caller"):
        run_sweep(_single_point(80), workers=2)
    assert time.perf_counter() - start < 1.0
    assert len(ran.read_text().split()) < 5  # of the worker's 40
    assert_no_child()


@needs_fork
def test_late_error_in_a_worker_stops_the_other_workers(monkeypatch, tmp_path):
    # Three shares of 40 trials.  The caller's trials are quick, so it has
    # run its share and waits on the workers when share 1 fails, after
    # 0.3 s; each of share 2's trials takes 0.1 s, so its share alone takes
    # 4 s.  The failed result kills share 2's worker, so the error comes out
    # at once.
    monkeypatch.setattr(experiment, "_available_cpus", lambda: 8)
    spec = _single_point(120)
    share = {trial_seed(spec.master_seed, 0, i, 120): i % 3 for i in range(120)}
    ran = tmp_path / "ran"
    ran.touch()

    def trial(*args):
        if share[args[-1]] == 1:
            time.sleep(0.3)
            raise RuntimeError("trial failed in share 1")
        if share[args[-1]] == 2:
            with open(ran, "a") as fh:
                fh.write("trial\n")
            time.sleep(0.1)
        return run_trial(*args)

    monkeypatch.setattr(experiment, "run_trial", trial)
    start = time.perf_counter()
    with pytest.raises(RuntimeError, match="trial failed in share 1"):
        run_sweep(spec, workers=3)
    assert time.perf_counter() - start < 1.0
    assert len(ran.read_text().split()) < 5  # of share 2's 40
    assert_no_child()


def _wait_for(path):
    for _ in range(600):  # path appears within 30 s, or the test fails
        if path.exists():
            return
        time.sleep(0.05)


@needs_fork
def test_dead_worker_stops_the_callers_share_early(monkeypatch, tmp_path):
    # The worker dies at its first trial, as under the OOM killer, once the
    # caller has entered its own first trial (so past its first poll), while
    # each of the caller's trials waits for that death and then takes a
    # while: checked only after the caller's whole share, the sweep would
    # run all six of the caller's trials, one per point, before it failed.
    monkeypatch.setattr(experiment, "_available_cpus", lambda: 2)
    caller = os.getpid()
    started, died = tmp_path / "started", tmp_path / "died"
    ran = []

    def trial(*args):
        if os.getpid() != caller:
            _wait_for(started)
            died.touch()
            os._exit(3)
        started.touch()
        _wait_for(died)
        time.sleep(0.3)
        ran.append(args[-1])
        return run_trial(*args)

    monkeypatch.setattr(experiment, "run_trial", trial)
    spec = dataclasses.replace(SMALL_SWEEP, n_values=(8, 16, 24), trials_per_point=2)
    with pytest.raises(ChildProcessError) as info:
        run_sweep(spec, workers=2)
    assert str(info.value) == "a worker process died before finishing its trials (exit code 3)"
    assert info.value.__cause__ is None
    assert died.exists()
    assert 1 <= len(ran) < 6
    assert_no_child()


@needs_fork
def test_a_worker_killed_by_a_signal_is_named(monkeypatch):
    monkeypatch.setattr(experiment, "_available_cpus", lambda: 2)
    caller = os.getpid()

    def trial(*args):
        if os.getpid() != caller:
            os.kill(os.getpid(), signal.SIGKILL)
        return run_trial(*args)

    monkeypatch.setattr(experiment, "run_trial", trial)
    with pytest.raises(ChildProcessError, match=rf"trials \(signal {int(signal.SIGKILL)}\)$"):
        run_sweep(_single_point(8), workers=2)
    assert_no_child()


@needs_fork
def test_failed_worker_stops_the_callers_share_within_a_point(monkeypatch, tmp_path):
    # One point of 80 trials.  The worker raises at its first trial, once
    # the caller has entered its own first trial (so past its first poll),
    # and each of the caller's 40 trials takes 0.05 s once that has
    # happened: checked only after the point, the sweep would run all 40 of
    # them, for 2 s, before it failed.
    monkeypatch.setattr(experiment, "_available_cpus", lambda: 2)
    caller = os.getpid()
    started, failed = tmp_path / "started", tmp_path / "failed"
    ran = []

    def trial(*args):
        if os.getpid() != caller:
            _wait_for(started)
            failed.touch()
            raise RuntimeError("trial failed in the worker")
        started.touch()
        _wait_for(failed)
        time.sleep(0.05)
        ran.append(args[-1])
        return run_trial(*args)

    monkeypatch.setattr(experiment, "run_trial", trial)
    start = time.perf_counter()
    with pytest.raises(RuntimeError, match="trial failed in the worker"):
        run_sweep(_single_point(80), workers=2)
    assert time.perf_counter() - start < 1.0
    assert failed.exists()
    assert 1 <= len(ran) < 5  # of the caller's 40
    assert_no_child()


def _fail_in_the_worker(monkeypatch, error):
    """Patch run_trial to raise error() in every forked worker."""
    monkeypatch.setattr(experiment, "_available_cpus", lambda: 2)
    caller = os.getpid()

    def trial(*args):
        if os.getpid() != caller:
            raise error()
        return run_trial(*args)

    monkeypatch.setattr(experiment, "run_trial", trial)


@needs_fork
def test_a_worker_error_that_does_not_pickle_is_named(monkeypatch):
    # The lock does not pickle, so the worker sends a ChildProcessError
    # that names the error instead of dying with it unsent.
    def locked_error():
        exc = RuntimeError("worker failed with a lock")
        exc.lock = threading.Lock()
        return exc

    _fail_in_the_worker(monkeypatch, locked_error)
    with pytest.raises(ChildProcessError) as info:
        run_sweep(_single_point(4), workers=2)
    assert str(info.value) == "a worker process failed: RuntimeError: worker failed with a lock"
    assert_no_child()


@needs_fork
def test_a_worker_error_that_does_not_unpickle_is_named(monkeypatch):
    # Sent as it is, TwoArgError would raise a TypeError from pickle.loads
    # in the caller.
    _fail_in_the_worker(monkeypatch, lambda: TwoArgError("bad", "thing"))
    with pytest.raises(ChildProcessError) as info:
        run_sweep(_single_point(4), workers=2)
    assert str(info.value) == "a worker process failed: helpers.TwoArgError: bad: thing"
    assert_no_child()


@needs_fork
def test_a_worker_error_carries_the_workers_traceback(monkeypatch):
    def raise_in_the_worker():
        raise ValueError("trial failed in the worker")

    def error():
        try:
            raise_in_the_worker()
        except ValueError as exc:
            return exc

    _fail_in_the_worker(monkeypatch, error)
    with pytest.raises(ValueError, match="^trial failed in the worker$") as info:
        run_sweep(_single_point(4), workers=2)
    cause = str(info.value.__cause__)
    assert cause.startswith("Traceback (most recent call last):")
    assert "in raise_in_the_worker" in cause
    assert cause.endswith("ValueError: trial failed in the worker\n")
    assert_no_child()


@pytest.mark.parametrize("workers", [0, -3, 1.5, True])
def test_sweep_rejects_bad_worker_counts(workers):
    with pytest.raises(ValueError, match="workers"):
        run_sweep(_single_point(2), workers=workers)


def test_serial_sweep_runs_trials_point_major_in_order(monkeypatch):
    seeds, records, shares = [], [], []
    run_share = experiment._run_share

    def recording_trial(n, p, params, seed):
        seeds.append(seed)
        records.append(run_trial(n, p, params, seed))
        return records[-1]

    monkeypatch.setattr(experiment, "run_trial", recording_trial)
    monkeypatch.setattr(experiment, "_run_share", lambda *args: shares.append(run_share(*args)) or shares[-1])
    # At r = 1 a trial succeeds exactly when its first round does; at r = 2
    # the three totals of each point differ, so a mixed-up total would show.
    for spec in (SMALL_SWEEP, dataclasses.replace(SMALL_SWEEP, r=2)):
        del seeds[:], records[:], shares[:]
        tpp = spec.trials_per_point
        results = run_sweep(spec)
        assert seeds == [trial_seed(spec.master_seed, k, i, tpp) for k in range(4) for i in range(tpp)]
        # Each point's totals are its trials' records summed field by field,
        # and its estimate reads each total as the field it sums.
        totals = [[sum(getattr(rec, name) for rec in records[k * tpp:(k + 1) * tpp])
                   for name in TrialRecord._fields] for k in range(4)]
        assert shares == [totals]
        assert all(type(total) is int for point in totals for total in point)
        for point, (successes, residual, rounds) in zip(results, totals):
            assert point.successes == successes
            assert point.mean_residual_edges == residual / tpp
            assert point.mean_rounds == rounds / tpp


def test_serial_sweep_keeps_its_own_heap_resident(monkeypatch):
    # With one process the trials run here, so this process pins the
    # thresholds itself, once per sweep and before its first trial.
    events = []
    monkeypatch.setattr(experiment, "_run_forked", lambda *args: pytest.fail("a serial sweep forked"))
    monkeypatch.setattr(experiment, "_keep_heap_resident", lambda: events.append("heap"))
    monkeypatch.setattr(experiment, "run_trial", lambda *args: events.append("trial") or run_trial(*args))
    run_sweep(_single_point(3))
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


@needs_fork
@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt thresholds are glibc's")
def test_heap_initializer_takes_in_a_forked_worker():
    # A sweep's forked worker, whose thresholds the caller set before the
    # fork, can still set them itself.
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.write(write_end, b"1" if experiment._keep_heap_resident() else b"0")
        finally:
            os._exit(0)
    os.close(write_end)
    with open(read_end, "rb") as pipe:
        took = pipe.read()
    assert os.waitpid(pid, 0)[1] == 0
    assert took == b"1"


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
        assert row["mean_rounds"] == point.mean_rounds


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
    ("alpha = x", "alpha must be a number, got 'x'"),
])
def test_load_spec_names_the_field_of_bad_integer_text(line, message):
    with pytest.raises(ValueError, match=message):
        load_spec(KV_SPEC + line + "\n")


@pytest.mark.parametrize("field", ["alpha", "c_values", "p_values", "confidence"])
def test_load_spec_rejects_bool_numbers(field):
    raw = {**JSON_SPEC, field: [True] if field.endswith("_values") else True}
    with pytest.raises(ValueError, match=f"{field} must be a number"):
        load_spec(json.dumps(raw))


def test_load_spec_refuses_a_confidence_with_an_infinite_quantile():
    # At 1 - 2**-53, 0.5 + confidence / 2 rounds to 1.0: refused when the
    # spec is loaded, not when the first interval is computed.
    with pytest.raises(ValueError, match="confidence must lie in"):
        load_spec(json.dumps({**JSON_SPEC, "confidence": 1 - 2**-53}))
    with pytest.raises(ValueError, match="confidence must lie in"):
        load_spec(KV_SPEC + "confidence = 0.9999999999999999\n")


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
