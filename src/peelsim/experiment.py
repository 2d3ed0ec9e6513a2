"""Monte Carlo harness for peeling over sampled erasure patterns.

Reproducibility contract: every trial's seed is derived from
(master_seed, point_index, trial_index) by SplitMix64, so results are a
pure function of the experiment spec.  Points are processed in sorted
(n, c_or_p) order.  With k processes, process j runs every k-th trial of
the point-major sequence from trial j, and returns integer sums per point
that are added before any float is formed, so the output is byte-identical
at any worker count.  The k - 1 processes besides the caller are forked
directly with os.fork and report through a pipe each; no process pool is
involved.
"""

from __future__ import annotations

import ctypes
import json
import math
import numbers
import os
from dataclasses import MISSING, dataclass, field, fields
from typing import NamedTuple

# decode and decode_fixpoint are not called here, but stay importable from
# this module: the benchmark's traced replay (perfbench/workloads.py) wraps
# them by name.
from .decode import ROWS, DecodeParams, _first_side, _MaskEngine, decode, decode_fixpoint  # noqa: F401
from .graph import _MAX_CELLS, _integer, sample_bipartite
from .theory import asymptotic_success, linear_regime_prediction, threshold_p

__all__ = [
    "CONSTANT_T_SWEEP",
    "CSV_COLUMNS",
    "LINEAR_REGIME_SWEEP",
    "SINGLE_POINT",
    "ExperimentSpec",
    "PointEstimate",
    "TrialRecord",
    "load_spec",
    "run_sweep",
    "run_trial",
    "trial_seed",
    "wilson_interval",
    "write_results",
]

CONSTANT_T_SWEEP = "CONSTANT_T_SWEEP"
LINEAR_REGIME_SWEEP = "LINEAR_REGIME_SWEEP"
SINGLE_POINT = "SINGLE_POINT"

# The value lists each mode takes; a spec gives exactly one, non-empty.
_AXES = {
    CONSTANT_T_SWEEP: ("c_values",),
    LINEAR_REGIME_SWEEP: ("p_values",),
    SINGLE_POINT: ("c_values", "p_values"),
}
_MODES = tuple(_AXES)

_MASK64 = 2**64 - 1
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(x: int) -> int:
    """SplitMix64 finalizer; a bijection on 64-bit words."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def trial_seed(master_seed: int, point_index: int, trial_index: int, trials_per_point: int) -> int:
    """Derive the per-trial 64-bit seed.

    The trial's global counter k = point_index * trials_per_point +
    trial_index is pushed through the SplitMix64 stream seeded by
    master_seed: seed_k = mix(master_seed + (k + 1) * golden).  Both the
    golden-ratio step and the mix are bijections mod 2**64, so seeds are
    collision-free within any sweep of fewer than 2**64 trials.
    """
    k = point_index * trials_per_point + trial_index
    return splitmix64(master_seed + (k + 1) * _GOLDEN)


class TrialRecord(NamedTuple):
    """Outcome of one sampled pattern.

    success and residual_edges are those of ``decode`` with the trial's
    params; fixpoint_rounds is the effective round count of
    ``decode_fixpoint`` on the same pattern.  ``run_trial`` computes all
    three without building either outcome.  A sweep point's totals are
    these fields summed over its trials, in this order, which is the order
    of the PointEstimate columns they feed.
    """

    success: bool
    residual_edges: int
    fixpoint_rounds: int


def _strict_int(key, value):
    # int() would truncate 1.7 to 1 and accept True as 1.
    if not isinstance(value, bool) and (isinstance(value, (numbers.Integral, str))
                                        or isinstance(value, float) and value.is_integer()):
        try:
            return int(value)
        except ValueError:  # text that is not an integer, such as "1.5"
            pass
    raise ValueError(f"{key} must be an integer, got {value!r}")


def _strict_float(key, value):
    # float() would accept True as 1.0.
    if isinstance(value, bool) or not isinstance(value, (numbers.Real, str)):
        raise ValueError(f"{key} must be a number, got {value!r}")
    try:
        return float(value)
    except ValueError:
        raise ValueError(f"{key} must be a number, got {value!r}") from None


def _spec_field(convert, default=MISSING, many=False):
    """A spec field whose value, however it is given, is parsed by
    convert(name, value); many marks a list field, given as a list or as
    comma-separated text."""
    return field(default=default, metadata={"convert": convert, "many": many})


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative sweep description.

    CONSTANT_T_SWEEP: fixed t >= 1 and r >= 1; each point n in n_values, c
    in c_values runs at p = c * threshold_p(n, r, t) (clamped to 1).
    LINEAR_REGIME_SWEEP: alpha in (0, 1) and no t; capability scales as
    t = floor(alpha * n), and each point runs the raw erasure
    probabilities in p_values with r rounds.
    SINGLE_POINT: fixed t >= 1 and r >= 1, one n and one value, a c or a
    raw p.
    Only LINEAR_REGIME_SWEEP takes alpha.  Exactly one of c_values and
    p_values is given, non-empty; every c is positive and finite and every
    p lies in [0, 1].  master_seed defaults to 0.
    Each field but mode carries its parser, declared with it: every value
    given, from Python or from load_spec, is converted by that one rule.
    """

    mode: str
    n_values: tuple[int, ...] = _spec_field(_strict_int, many=True)
    r: int = _spec_field(_strict_int)
    trials_per_point: int = _spec_field(_strict_int)
    master_seed: int = _spec_field(_strict_int, 0)
    t: int | None = _spec_field(_strict_int, None)
    alpha: float | None = _spec_field(_strict_float, None)
    c_values: tuple[float, ...] | None = _spec_field(_strict_float, None, many=True)
    p_values: tuple[float, ...] | None = _spec_field(_strict_float, None, many=True)
    confidence: float = _spec_field(_strict_float, 0.95)

    def __post_init__(self):
        # None leaves an optional field unset; every other value passes its
        # field's parser.
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None or f.default is not None:
                object.__setattr__(self, f.name, _coerce_field(f, value))
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if not self.n_values:
            raise ValueError("n_values must be non-empty")
        if any(n < 2 for n in self.n_values):
            raise ValueError("every n must be >= 2")
        # sample_bipartite would refuse such an n only at its point's first
        # trial, after every earlier point had run.
        if any(n * n > _MAX_CELLS for n in self.n_values):
            raise ValueError("every n must give an n x n grid of at most 2**61 cells")
        if self.r < 0:
            raise ValueError(f"r must be >= 0, got {self.r}")
        if self.trials_per_point < 1:
            raise ValueError(f"trials_per_point must be >= 1, got {self.trials_per_point}")
        if not 0 <= self.master_seed < 2**64:
            raise ValueError("master_seed must be a 64-bit unsigned integer")
        _quantile_point(self.confidence)
        # Capability: a fraction alpha of n, or a constant t, for which
        # threshold_p and asymptotic_success need r, t >= 1.
        if self.mode == LINEAR_REGIME_SWEEP:
            if self.t is not None or self.alpha is None or not 0.0 < self.alpha < 1.0:
                raise ValueError(f"{self.mode} takes alpha in (0, 1) and no t,"
                                 f" got alpha={self.alpha!r}, t={self.t!r}")
        elif self.t is None or self.t < 1 or self.r < 1 or self.alpha is not None:
            raise ValueError(f"{self.mode} takes t >= 1, r >= 1 and no alpha,"
                             f" got t={self.t!r}, r={self.r}, alpha={self.alpha!r}")
        # Value axis: exactly one non-empty list, of a kind the mode takes.
        by_c = self.c_values is not None
        axis, values = ("c_values", self.c_values) if by_c else ("p_values", self.p_values)
        axes = _AXES[self.mode]
        if not values or by_c and self.p_values is not None or axis not in axes:
            raise ValueError(f"{self.mode} takes exactly one non-empty list, {' or '.join(axes)}")
        if self.mode == SINGLE_POINT and (len(self.n_values) != 1 or len(values) != 1):
            raise ValueError("SINGLE_POINT takes one n and one c or p value")
        if not by_c and any(not 0.0 <= p <= 1.0 for p in values):
            raise ValueError("every p must lie in [0, 1]")
        # An infinite c would reach the results as a non-finite float.
        if by_c and any(not 0.0 < c < math.inf for c in values):
            raise ValueError("every c must be positive and finite")


@dataclass(frozen=True)
class PointEstimate:
    """Aggregated estimate for one sweep point: one results row.

    The fields are the result columns, in column order; the CSV header and
    rows and the JSON keys are read off them.  theory carries the
    asymptotic success probability (constant-capability modes) or the
    linear-regime verdict string.
    """

    mode: str
    n: int
    r: int
    t_or_alpha: int | float
    c_or_p: float
    trials: int
    successes: int
    p_hat: float
    ci_low: float
    ci_high: float
    theory: float | str
    mean_residual_edges: float
    mean_rounds: float


_COLUMN_NAMES = tuple(f.name for f in fields(PointEstimate))
CSV_COLUMNS = ",".join(_COLUMN_NAMES)


def run_trial(n: int, p: float, params: DecodeParams, seed: int) -> TrialRecord:
    """Sample G(n, n, p) with the given seed and decode it both with the
    round-limited schedule and to fixpoint.

    The last scheduled round decodes rows, so for odd r the schedule starts
    with rows, as the fixpoint run does, and is exactly that run's first r
    rounds: one engine serves both, read after round r and again at the
    fixpoint.  For even r (or 0) the schedule starts with columns, and the
    fixpoint run takes an engine of its own once a round has removed an
    edge.  If none has, it reuses the engine: either no round ran, so the
    engine is still fresh, or both sides came up idle on the untouched
    pattern, which is then a fixpoint under every schedule.  Either run
    stops at its fixpoint, since later rounds are no-ops, so a huge r
    costs no more than the fixpoint.
    """
    g = sample_bipartite(n, n, p, seed)
    run = _MaskEngine(g, params.t)
    first = _first_side(params.rounds)
    run.peel(first, params.rounds)
    residual_edges = run.live_edges
    if first != ROWS and run.last_removal:
        run = _MaskEngine(g, params.t)
    run.peel(ROWS)
    return TrialRecord(
        success=residual_edges == 0,
        residual_edges=residual_edges,
        fixpoint_rounds=run.last_removal,
    )


def _point_tasks(spec: ExperimentSpec) -> list[dict]:
    by_c = spec.c_values is not None
    values = spec.c_values if by_c else spec.p_values
    tasks = []
    for n, x in sorted((n, x) for n in spec.n_values for x in values):
        t, p = spec.t, x
        if spec.mode == LINEAR_REGIME_SWEEP:
            t = int(math.floor(spec.alpha * n))
            theory = linear_regime_prediction(x, spec.alpha)
        elif by_c:
            p = min(1.0, x * threshold_p(n, spec.r, spec.t))
            theory = asymptotic_success(x, spec.r, spec.t)
        else:
            thr = threshold_p(n, spec.r, spec.t)
            theory = asymptotic_success(x / thr, spec.r, spec.t) if x > 0 else 1.0
        tasks.append({"n": n, "t": t, "c_or_p": x, "p": p, "theory": theory})
    return tasks


def _run_share(spec: ExperimentSpec, points: list[dict], first: int, step: int,
               poll=None) -> list[list[int]]:
    """Trials g = first, first + step, ... of the point-major sequence
    g = point_index * trials_per_point + trial_index, in order, as integer
    sums per point: TrialRecord's fields, each summed over the trials run,
    in TrialRecord's order.  poll, if given, is called before each trial;
    the calling process of a forked sweep passes one that raises the error
    of any worker that has failed."""
    tpp = spec.trials_per_point
    per_point = []
    for point_index, task in enumerate(points):
        params = DecodeParams(rounds=spec.r, t=task["t"])
        sums = [0] * len(TrialRecord._fields)
        for trial_index in range((first - point_index * tpp) % step, tpp, step):
            if poll is not None:
                poll()
            seed = trial_seed(spec.master_seed, point_index, trial_index, tpp)
            rec = run_trial(task["n"], task["p"], params, seed)
            sums = [total + x for total, x in zip(sums, rec)]
        per_point.append(sums)
    return per_point


def _estimate(spec: ExperimentSpec, task: dict, sums) -> PointEstimate:
    successes, residual_sum, fixpoint_sum = sums
    trials = spec.trials_per_point
    ci_low, ci_high = wilson_interval(successes, trials, spec.confidence)
    return PointEstimate(
        mode=spec.mode,
        n=task["n"],
        r=spec.r,
        t_or_alpha=spec.t if spec.alpha is None else spec.alpha,
        c_or_p=task["c_or_p"],
        trials=trials,
        successes=successes,
        p_hat=successes / trials,
        ci_low=ci_low,
        ci_high=ci_high,
        theory=task["theory"],
        mean_residual_edges=residual_sum / trials,
        mean_rounds=fixpoint_sum / trials,
    )


def _available_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# glibc mallopt parameters (malloc.h).  Pinning the mmap threshold keeps
# arrays up to 32 MB on the heap, and a trim threshold far above a trial's
# working set (a few MB) keeps freed trial arrays resident, so the next
# trial reuses them instead of faulting fresh pages in.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 32 * 2**20
_TRIM_THRESHOLD = 512 * 2**20


def _keep_heap_resident(libc=None) -> bool:
    """Stop glibc from trimming freed trial arrays in this process.

    Returns whether both thresholds took; where libc has no mallopt, or
    mallopt refuses a value, it changes nothing more and returns False.
    """
    if libc is None:
        try:
            libc = ctypes.CDLL(None)  # the C library this interpreter links
        except (OSError, TypeError):  # Windows has no such handle
            return False
    mallopt = getattr(libc, "mallopt", None)
    if mallopt is None:
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return (mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD) == 1
            and mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD) == 1)


def run_sweep(spec: ExperimentSpec, workers: int = 1) -> tuple[PointEstimate, ...]:
    """Run every point of the sweep; identical output for any worker count.

    The sweep runs on procs = min(workers, its trial count, CPUs available
    to this process) processes, the calling one included; where os.fork
    does not exist, procs is 1.  Process j runs trials j, j + procs, ... of
    the point-major sequence (see _run_share), and the calling process runs
    share 0.  Integer sums per point are added over the shares, so the
    result does not depend on who ran a trial, and with one process
    run_trial is called in point-major, trial-ascending order.  With more,
    see _run_forked: a worker's error is raised in the caller before its
    next trial, and no worker outlives the call.

    The calling process keeps freed trial arrays resident, setting its
    glibc mmap and trim thresholds for the rest of its life (see
    _keep_heap_resident) before it forks, so its workers inherit them.
    """
    workers = _integer(workers, 1, "workers must be an integer >= 1, got {!r}")
    points = _point_tasks(spec)
    procs = min(workers, _available_cpus(), len(points) * spec.trials_per_point)
    _keep_heap_resident()
    if procs > 1 and hasattr(os, "fork"):
        shares = _run_forked(spec, points, procs)
    else:
        shares = [_run_share(spec, points, 0, 1)]
    return tuple(_estimate(spec, task, map(sum, zip(*sums))) for task, *sums in zip(points, *shares))


def _run_forked(spec: ExperimentSpec, points: list[dict], procs: int) -> list[list[list[int]]]:
    """Every share's sums, in share order, with share j forked for j >= 1.

    Each child inherits spec and points by the fork, runs its share and
    writes pickle.dumps((ok, sums or (exception, traceback text))) to its
    own pipe (see _portable_error), then leaves with os._exit, so it never
    returns into the caller's stack.
    The caller runs share 0.  Before each of its trials it polls every
    child's pipe at once (select.poll, which takes fds past 1024), and
    once its share is done it waits on them, in whatever order they
    finish.  A readable pipe is read to EOF and its child reaped: a
    child's exception is re-raised from a _WorkerTraceback that holds the
    child's traceback, and a child that ended without a result raises
    ChildProcessError.  On any error, including a failed os.fork, every
    child not yet collected is killed with SIGKILL; every child forked is
    reaped and every pipe closed.
    """
    import pickle
    import select
    import signal

    shares = [None] * procs
    pending = {}  # read end -> (share, pid), for the children not yet collected
    try:
        for j in range(1, procs):
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(read_end)
                os.close(write_end)
                raise
            if pid == 0:
                code = 1
                try:
                    try:
                        result = (True, _run_share(spec, points, j, procs))
                    except BaseException as exc:
                        result = (False, _portable_error(exc))
                    with open(write_end, "wb") as pipe:
                        pipe.write(pickle.dumps(result))
                    code = 0
                finally:
                    os._exit(code)
            os.close(write_end)
            pending[read_end] = j, pid
        poller = select.poll()
        for fd in pending:
            poller.register(fd, select.POLLIN)

        def poll(timeout=0):
            for fd, _ in poller.poll(timeout):
                with open(fd, "rb", closefd=False) as pipe:
                    data = pipe.read()
                j, pid = pending[fd]
                status = os.waitpid(pid, 0)[1]
                del pending[fd]
                poller.unregister(fd)
                os.close(fd)
                if status or not data:
                    code = os.waitstatus_to_exitcode(status)
                    how = f"signal {-code}" if code < 0 else f"exit code {code}"
                    raise ChildProcessError(f"a worker process died before finishing its trials ({how})")
                ok, value = pickle.loads(data)
                if not ok:
                    exc, trace = value
                    raise exc from _WorkerTraceback(trace)
                shares[j] = value

        shares[0] = _run_share(spec, points, 0, procs, poll)
        while pending:
            poll(None)
        return shares
    finally:
        for fd, (_, pid) in pending.items():
            os.kill(pid, signal.SIGKILL)
            os.close(fd)
            os.waitpid(pid, 0)


class _WorkerTraceback(Exception):
    """The traceback of a worker's exception, as text; the caller raises
    that exception from this one."""


def _portable_error(exc: BaseException) -> tuple[BaseException, str]:
    """(exc, its traceback text), for a worker to send to the caller.  An
    exception that does not come back whole through pickle, such as one
    that holds a lock or whose __init__ takes other arguments than its
    args, is sent as a ChildProcessError that names its type and message.
    The caller runs the same code, so what unpickles here unpickles there.
    """
    import pickle
    import traceback  # only on this path: a sweep that runs clean never loads it

    trace = "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        what = "".join(traceback.format_exception_only(type(exc), exc)).strip()
        exc = ChildProcessError(f"a worker process failed: {what}")
    return exc, trace


def _quantile_point(confidence: float) -> float:
    """0.5 + confidence / 2, where a two-sided interval takes the normal
    quantile.  Within 2**-53 of 1 that sum rounds to 1.0, whose quantile is
    infinite, so such a confidence is refused, as is one outside (0, 1)."""
    point = 0.5 + confidence / 2.0
    if not (0.0 < confidence and point < 1.0):
        raise ValueError(f"confidence must lie in (0, 1) with 0.5 + confidence/2 < 1, got {confidence}")
    return point


def wilson_interval(successes: int, trials: int, confidence: float = 0.95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    # Imported here, where it is used, so that a process that finishes no
    # point does not load statistics (with decimal and fractions).
    from statistics import NormalDist

    trials = _integer(trials, 1, "trials must be an integer >= 1, got {!r}")
    successes = _integer(successes, 0, "successes must be a non-negative integer, got {!r}")
    if successes > trials:
        raise ValueError(f"successes must lie in [0, {trials}], got {successes}")
    z = NormalDist().inv_cdf(_quantile_point(confidence))
    phat = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2.0 * trials)) / denom
    margin = (z / denom) * math.sqrt(phat * (1.0 - phat) / trials + z2 / (4.0 * trials * trials))
    return max(0.0, center - margin), min(1.0, center + margin)


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, int):
        return str(x)
    return format(x, ".6g")


def write_results(results, fmt: str = "csv") -> str:
    """Serialize point estimates; CSV floats carry 6 significant digits, the
    JSON mirror keeps full precision."""
    if fmt == "csv":
        rows = (",".join(_fmt(getattr(r, name)) for name in _COLUMN_NAMES) for r in results)
        return "\n".join([CSV_COLUMNS, *rows]) + "\n"
    if fmt == "json":
        rows = [{name: getattr(r, name) for name in _COLUMN_NAMES} for r in results]
        return json.dumps(rows, indent=2, allow_nan=False) + "\n"
    raise ValueError(f"unknown results format {fmt!r}")


def load_spec(text: str, overrides: dict | None = None) -> ExperimentSpec:
    """Build an ExperimentSpec from JSON or key=value text.

    key=value files take one field per line ('#' starts a comment); list
    fields are comma-separated.  Entries in overrides (same key space)
    replace file values; None overrides are ignored.  A field that nothing
    gives takes the ExperimentSpec default.  Each value, text or JSON, file
    entry or override, is parsed by the rule its ExperimentSpec field
    carries.
    """
    stripped = text.strip()
    raw: dict = {}
    if stripped.startswith(("{", "[")):
        try:
            parsed = json.loads(stripped)
        except RecursionError:
            raise ValueError("spec JSON is nested too deeply") from None
        if not isinstance(parsed, dict):
            raise ValueError("spec JSON must be an object")
        raw.update(parsed)
    elif stripped:
        for lineno, line in enumerate(stripped.splitlines(), start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"spec line {lineno}: expected key=value, got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            raw[key] = value
    if overrides:
        raw.update({k: v for k, v in overrides.items() if v is not None})
    spec_fields = {f.name: f for f in fields(ExperimentSpec)}
    for key, value in raw.items():
        if key not in spec_fields:
            raise ValueError(f"unknown spec field {key!r}")
        if value is None:
            # The spec reads None as "not given", so a JSON null would pass
            # unchecked; the field's parser rejects it.
            _coerce_field(spec_fields[key], value)
    try:
        return ExperimentSpec(**raw)
    except TypeError as exc:
        raise ValueError(f"incomplete spec: {exc}") from None


def _coerce_field(f, value):
    convert = f.metadata.get("convert")
    if convert is None:  # mode: checked against _MODES, not converted
        return value
    if f.metadata["many"]:
        if isinstance(value, str):
            value = [p.strip() for p in value.split(",") if p.strip()]
        elif not isinstance(value, (list, tuple)):
            raise ValueError(f"{f.name} must be a list or a comma-separated string, got {value!r}")
        return tuple(convert(f.name, v) for v in value)
    return convert(f.name, value)
