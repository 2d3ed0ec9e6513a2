"""The benchmark's workloads: specs made from the seed, timed loops and
traced replays.

Every workload is a peelsim spec.  The three sweeps go through the public
command, ``peelsim.cli.main(["sweep", "--config", FILE, "--workers", k,
"--output", FILE])``, in-process.  witness_census reads its spec as a
SINGLE_POINT (n, r, t, c) with trials_per_point graphs and certifies each
graph through the public witness calls.  Inputs depend on the seed alone;
how many repetitions fit in a run depends on the machine.
"""

from __future__ import annotations

import importlib
import math
import resource
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from types import SimpleNamespace

import peelsim
from peelsim import DecodeParams, trial_seed

import gate
from tracing import Tracer

cli = importlib.import_module("peelsim.cli")
experiment = importlib.import_module("peelsim.experiment")


@dataclass(frozen=True)
class Workload:
    name: str
    spec: dict
    workers: int = 1
    census: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("threshold_small", {
            "mode": "CONSTANT_T_SWEEP", "n_values": "2000", "r": 1, "t": 1,
            "c_values": "0.5,1,2", "trials_per_point": 40,
        }),
        Workload("threshold_large", {
            "mode": "CONSTANT_T_SWEEP", "n_values": "100000", "r": 2, "t": 2,
            "c_values": "1", "trials_per_point": 10,
        }),
        Workload("dense_stuck", {
            "mode": "LINEAR_REGIME_SWEEP", "n_values": "500", "alpha": 0.3,
            "p_values": "0.2,0.4", "r": 8, "trials_per_point": 10,
        }, workers=2),
        Workload("witness_census", {
            "mode": "SINGLE_POINT", "n_values": "300", "r": 2, "t": 1,
            "c_values": "1.5", "trials_per_point": 1000,
        }, census=True),
    )
}

# Graphs certified by a traced census replay (and by its untraced twin).
TRACED_CENSUS = 1000
# A traced sweep replays the timed spec with this many times its trials, so
# that per-call medians rest on enough calls.
TRACE_TRIALS_FACTOR = 5
CYCLE_MAX_LEN = 6
# At this many samples p99 has at least ten samples beyond it.
P99_MIN_SAMPLES = 1000
# Census graphs timed between two certifications of the reference graph
# (see measure_census).
CENSUS_BLOCK = 8
# Every sweep run starts with a reference call: the workload's spec at this
# seed and trial count, whatever --seed and --scale are.  Its CSV must match
# the digest recorded in digests.json, so a change to the sampling stream or
# the decoders fails the gate at any seed.  It doubles as the warm-up.
REFERENCE_SEED = 0
REFERENCE_TRIALS = 100


def spec_text(w: Workload, seed: int, scale: float = 1.0, trials: int | None = None) -> str:
    fields = dict(w.spec)
    fields["trials_per_point"] = trials or max(2, round(fields["trials_per_point"] * scale))
    fields["master_seed"] = seed
    return "".join(f"{k} = {v}\n" for k, v in fields.items())


def reference_spec(w: Workload) -> str:
    return spec_text(w, REFERENCE_SEED, trials=REFERENCE_TRIALS)


@dataclass
class Outcome:
    values: dict = field(default_factory=dict)
    samples: dict = field(default_factory=dict)  # metric name -> sample count
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    raw: dict = field(default_factory=dict)  # timed samples, for the run record
    tracer: Tracer | None = None


def _median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def _tail(xs) -> float:
    """p99 once ten samples lie beyond it; below that, the slowest sample."""
    if len(xs) >= P99_MIN_SAMPLES:
        return statistics.quantiles(xs, n=100)[98]
    return max(xs)


class PeakRss:
    """Peak resident memory of this process plus its live pool workers.

    Each sweep call starts a fresh pool, so worker peaks (VmHWM, read from
    /proc on Linux every 20 ms) are summed over the workers alive at one
    poll, and the largest such sum counts."""

    def __init__(self, watch_children: bool):
        self._children_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._poll, daemon=True) if watch_children else None

    def __enter__(self):
        if self._thread:
            self._thread.start()
        return self

    def __exit__(self, *exc):
        if self._thread:
            self._stop.set()
            self._thread.join()

    def _poll(self):
        import multiprocessing

        while not self._stop.wait(0.02):
            live = sum(_vm_hwm_kb(child.pid) for child in multiprocessing.active_children())
            self._children_kb = max(self._children_kb, live)

    def mb(self) -> float:
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return (own + self._children_kb) / 1024.0


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


# ---------------------------------------------------------------- sweeps


def _points(spec) -> int:
    return len(spec.n_values) * len(spec.c_values or spec.p_values)


def _sweep(cfg, out, workers, main=None):
    argv = ["sweep", "--config", str(cfg), "--workers", str(workers), "--output", str(out)]
    main = main or cli.main
    t0 = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - t0
    if code != 0:
        raise RuntimeError(f"peelsim sweep exited with code {code}")
    return elapsed, out.read_text()


def reference_csv(w, tmp) -> str:
    cfg = tmp / "reference.cfg"
    cfg.write_text(reference_spec(w))
    return _sweep(cfg, tmp / "reference.csv", w.workers)[1]


def _sweep_setup(w, seed, scale, tmp, out):
    """The spec file for (seed, scale), after the reference call, checked."""
    text = spec_text(w, seed, scale)
    cfg = tmp / "spec.cfg"
    cfg.write_text(text)
    spec = peelsim.load_spec(text)
    ops = _points(spec) * REFERENCE_TRIALS
    bad = gate.check_sweep_csv(reference_csv(w, tmp), peelsim.CSV_COLUMNS, _points(spec), REFERENCE_TRIALS,
                               gate.load_digests()[w.name])
    out.attempted += ops
    out.failed += ops if bad else 0
    out.problems.extend(f"reference sweep: {p}" for p in bad)
    return cfg, spec


def measure_sweep(w, seed, seconds, scale, tmp, between) -> Outcome:
    """Whole sweep calls for `seconds`, with between() after each."""
    out = Outcome()
    cfg, spec = _sweep_setup(w, seed, scale, tmp, out)
    per_call = _points(spec) * spec.trials_per_point
    times, first = [], None
    with PeakRss(watch_children=w.workers > 1) as rss:
        start = time.perf_counter()
        while not times or time.perf_counter() - start < seconds:
            out.attempted += per_call
            try:
                elapsed, csv = _sweep(cfg, tmp / "out.csv", w.workers)
            except Exception as exc:  # counted as failed, then reported
                out.failed += per_call
                out.problems.append(f"sweep call raised {exc!r}")
                break
            if first is None:
                first = csv
                bad = gate.check_sweep_csv(csv, peelsim.CSV_COLUMNS, _points(spec), spec.trials_per_point)
            else:
                bad = ["CSV bytes differ between repeated calls"] if csv != first else []
            if bad:
                out.failed += per_call
                out.problems.extend(bad)
            times.append(elapsed)
            between()
    if times:
        # The call's work is the same every time and machine noise only ever
        # adds time, so the fastest call is the sweep's latency.
        out.values.update(_latency_metrics([min(times)], per_call))
        out.values["peak_rss_mb"] = rss.mb()
        out.samples.update(dict.fromkeys(("ops_per_s", "op_p50_ms", "op_tail_ms"), len(times)))
        out.raw["sweep_call_s"] = times
        out.notes.append(f"sweep calls: fastest {min(times):.4f} s, median {statistics.median(times):.4f} s,"
                         f" slowest {max(times):.4f} s; {per_call} trials per call, {w.workers} worker(s)")
    return out


def _latency_metrics(latency, ops_per_input=1) -> dict:
    """End-to-end metrics from the latency of each distinct input; percentiles
    run across distinct inputs."""
    return {
        "ops_per_s": ops_per_input * len(latency) / sum(latency),
        "op_p50_ms": statistics.median(latency) * 1e3,
        "op_tail_ms": _tail(latency) * 1e3,
    }


class _Counts:
    def __init__(self):
        self.samples = self.edges = 0
        self.rounds = self.noop = self.cleared = 0
        self.success: list[bool] = []
        self.found = self.cycles = self.trees = 0

    def graph(self, g):
        self.samples += 1
        self.edges += g.edge_count

    def decode(self, outcome):
        for rec in outcome.trace:
            self.rounds += 1
            self.noop += rec.edges_removed == 0
            self.cleared += len(rec.cleared)

    def trial(self, rec):
        self.success.append(rec.success)

    def config(self, cfg):
        self.found += cfg is not None

    def cycle(self, cyc):
        self.cycles += cyc is not None

    def tree_count(self, k):
        self.trees += k


@contextmanager
def _patched(tracer, counts):
    """Wrap the public calls cli and experiment make, for one traced call."""
    swaps = [
        (cli, "run_sweep", "experiment.run_sweep", None, False),
        (cli, "load_spec", "experiment.load_spec", None, False),
        (cli, "write_results", "experiment.write_results", None, False),
        (experiment, "run_trial", "experiment.run_trial", counts.trial, True),
        (experiment, "sample_bipartite", "graph.sample_bipartite", counts.graph, False),
        (experiment, "decode", "decode.decode", counts.decode, False),
        (experiment, "decode_fixpoint", "decode.decode_fixpoint", counts.decode, False),
        (experiment, "threshold_p", "theory.threshold_p", None, False),
        (experiment, "asymptotic_success", "theory.asymptotic_success", None, False),
        (experiment, "linear_regime_prediction", "theory.linear_regime_prediction", None, False),
    ]
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, *_ in swaps]
    for mod, attr, name, after, new_trial in swaps:
        setattr(mod, attr, tracer.wrap(name, getattr(mod, attr), after, new_trial))
    try:
        yield
    finally:
        for mod, attr, original in saved:
            setattr(mod, attr, original)


def _traced_sweep(cfg, tmp):
    tracer, counts = Tracer(), _Counts()
    with _patched(tracer, counts):
        seconds, csv = _sweep(cfg, tmp / "traced.csv", 1, main=tracer.wrap("cli.main", cli.main))
    return tracer, counts, seconds, csv


def trace_sweep(w, seed, scale, tmp) -> Outcome:
    out = Outcome()
    cfg, spec = _sweep_setup(w, seed, scale * TRACE_TRIALS_FACTOR, tmp, out)
    points, tpp = _points(spec), spec.trials_per_point
    ops = points * tpp

    def check(bad):
        out.attempted += ops
        out.failed += ops if bad else 0
        out.problems.extend(bad)

    # Untraced and traced calls alternate twice; the faster call of each kind
    # times the tracing overhead, since machine noise only ever adds time.
    untraced_s, csv = _sweep(cfg, tmp / "untraced.csv", 1)
    check(gate.check_sweep_csv(csv, peelsim.CSV_COLUMNS, points, tpp))
    tracer, counts, traced_s, traced_csv = _traced_sweep(cfg, tmp)
    per_point = [sum(counts.success[k * tpp:(k + 1) * tpp]) for k in range(points)]
    check((["traced CSV differs from untraced CSV"] if traced_csv != csv else [])
          + gate.check_traced_successes(csv, peelsim.CSV_COLUMNS, per_point))
    again_s, again_csv = _sweep(cfg, tmp / "untraced.csv", 1)
    check(["repeated untraced CSV differs"] if again_csv != csv else [])
    *_, traced_again_s, traced_again_csv = _traced_sweep(cfg, tmp)
    check(["repeated traced CSV differs"] if traced_again_csv != csv else [])

    trial = tracer.durations("experiment.run_trial")
    sample = tracer.durations("graph.sample_bipartite")
    dec = tracer.durations("decode.decode")
    fix = tracer.durations("decode.decode_fixpoint")
    busy = sum(trial)
    v = out.values
    v.update({
        "graph.sample_us": _median(sample) * 1e6,
        "graph.sample_share": sum(sample) / busy,
        "graph.edges_per_trial": counts.edges / counts.samples,
        "decode.decode_us": _median(dec) * 1e6,
        "decode.fixpoint_us": _median(fix) * 1e6,
        "decode.share": (sum(dec) + sum(fix)) / busy,
        "experiment.trial_us": _median(trial) * 1e6,
        "experiment.trial_overhead_us": tracer.self_time("experiment.run_trial") / len(trial) * 1e6,
        "experiment.aggregate_s": sum(tracer.durations("experiment.run_sweep")) - busy,
        "experiment.pool_overhead_s": 0.0,
        "experiment.pool_idle_frac": 0.0,
    })
    _decode_counts(v, counts)
    out.samples.update({"graph.sample_us": len(sample), "decode.decode_us": len(dec),
                        "decode.fixpoint_us": len(fix), "experiment.trial_us": len(trial)})

    if w.workers > 1:
        # The faster of two untraced pool calls, against each point's busy
        # time: its share of the traced replay times the faster untraced
        # serial call, so that tracing overhead does not count as busy time.
        pool_s = math.inf
        for _ in range(2):
            t0 = time.perf_counter()
            results = peelsim.run_sweep(spec, workers=w.workers)
            pool_s = min(pool_s, time.perf_counter() - t0)
            check([f"CSV at --workers {w.workers} differs from --workers 1"]
                  if peelsim.write_results(results) != csv else [])
        serial_s = min(untraced_s, again_s)
        point_busy = [serial_s * sum(trial[k * tpp:(k + 1) * tpp]) / busy for k in range(points)]
        v["experiment.pool_overhead_s"] = pool_s - max(point_busy)
        v["experiment.pool_idle_frac"] = 1.0 - serial_s / (w.workers * pool_s)
        out.notes.append(f"pool run_sweep {pool_s:.4f} s at {w.workers} workers; serial {serial_s:.4f} s;"
                         f" point busy s {[round(b, 4) for b in point_busy]}")

    _trace_summary(out, tracer, traced_s, ops / min(untraced_s, again_s), ops / min(traced_s, traced_again_s),
                   "trials_per_s")
    return out


def _decode_counts(v, counts):
    v["decode.rounds"] = counts.rounds
    v["decode.noop_round_frac"] = counts.noop / counts.rounds if counts.rounds else 0.0
    v["decode.vertices_cleared"] = counts.cleared


def _trace_summary(out, tracer, wall, untraced_rate, traced_rate, rate_name):
    layers = tracer.layer_self()
    program = sum(s for layer, s in layers.items() if layer not in ("bench", "trace"))
    for layer in ("graph", "decode", "experiment", "witness", "theory", "cli"):
        out.values[f"{layer}.self_s"] = layers.get(layer, 0.0)
    out.values["trace.overhead_frac"] = untraced_rate / traced_rate - 1.0
    out.values["trace.accounted_frac"] = program / wall
    out.tracer = tracer
    out.notes += [
        f"tracing overhead: untraced {rate_name} {untraced_rate:.2f}, traced {traced_rate:.2f}",
        "self time by layer (s): " + ", ".join(f"{k}={s:.4f}" for k, s in sorted(layers.items()))
        + f"; traced wall {wall:.4f} s",
    ]


# ---------------------------------------------------------------- census


@dataclass(frozen=True)
class Cert:
    success: bool
    config: object
    witness: object
    verified: bool | None
    trees: int
    cycle: object


RAW_API = SimpleNamespace(
    decode=peelsim.decode,
    find_config=peelsim.find_config,
    extract_config=peelsim.extract_config,
    verify_config=peelsim.verify_config,
    count_exact_trees=peelsim.count_exact_trees,
    find_short_cycle=peelsim.find_short_cycle,
)


def certify(g, api, params, max_len=CYCLE_MAX_LEN) -> Cert:
    """What `peelsim detect --kind config|trees|cycle` computes, plus the
    decode verdict the config search must agree with."""
    r, t = params.rounds, params.t
    success = api.decode(g, params).success
    config = api.find_config(g, r, t)
    witness = verified = None
    if not success:
        witness = api.extract_config(g, params)
        verified = witness is not None and api.verify_config(g, witness, r, t)
    return Cert(success, config, witness, verified, api.count_exact_trees(g, r, t), api.find_short_cycle(g, max_len))


def _census_setup(w, seed, scale):
    spec = peelsim.load_spec(spec_text(w, seed, scale))
    n, params = spec.n_values[0], DecodeParams(rounds=spec.r, t=spec.t)
    p = min(1.0, spec.c_values[0] * peelsim.threshold_p(n, spec.r, spec.t))
    k = spec.trials_per_point

    def graph(i, sample=peelsim.sample_bipartite):
        return sample(n, n, p, trial_seed(seed, 0, i, k))

    return spec, params, graph


def _certify_timed(g, api, params, out, run=certify):
    """Certify g with run(g, api, params), check it, and return the seconds it took."""
    t0 = time.perf_counter()
    try:
        cert = run(g, api, params)
    except Exception as exc:  # counted as failed, then reported
        out.failed += 1
        out.problems.append(f"certify raised {exc!r}")
        return time.perf_counter() - t0
    elapsed = time.perf_counter() - t0
    bad = gate.check_cert(g, cert, CYCLE_MAX_LEN)
    if bad:
        out.failed += 1
        out.problems.extend(bad)
    return elapsed


def measure_census(w, seed, seconds, scale, tmp, between) -> Outcome:
    """Passes over the census graphs for `seconds`, in blocks of CENSUS_BLOCK
    graphs, with between() after each block.

    Machine noise slows everything this process runs, by up to 1.9x over
    stretches of seconds, but hardly changes within a few milliseconds.  So
    every block is bracketed by certifications of a reference graph (census
    graph 0), and each graph's time is taken as a ratio to the mean of the
    two around it.  A graph's latency is the median of its ratios over all
    passes times the reference's fastest certification: the ratio cancels
    the slowdown of its moment, and with thousands of repetitions the
    reference's fastest one falls in a quiet moment.  Timing each graph by
    its own fastest pass would need every graph to meet a quiet moment,
    which the fifteen-odd passes of a run do not ensure.
    """
    spec, params, graph = _census_setup(w, seed, scale)
    graphs = [graph(i) for i in range(spec.trials_per_point)]
    out = Outcome()

    def cert(g):
        out.attempted += 1
        return _certify_timed(g, RAW_API, params, out)

    for g in graphs[:20]:  # warm-up, checked but not timed
        cert(g)
    ratios: list[list[float]] = [[] for _ in graphs]
    ref_times, done = [], 0
    with PeakRss(watch_children=False) as rss:
        deadline = time.perf_counter() + seconds
        before = None
        while done < len(graphs) or time.perf_counter() < deadline:
            if before is None:
                before = cert(graphs[0])
                ref_times.append(before)
            first = done % len(graphs)
            block = range(first, min(first + CENSUS_BLOCK, len(graphs)))
            times = [cert(graphs[i]) for i in block]
            after = cert(graphs[0])
            ref_times.append(after)
            for i, t in zip(block, times):
                ratios[i].append(2 * t / (before + after))
            done += len(block)
            # A fresh set-up spawn between blocks leaves the caches cold, so
            # the next block gets its own leading reference.
            before = None if between() else after
    latency = [statistics.median(r) * min(ref_times) for r in ratios]
    out.values.update(_latency_metrics(latency))
    out.values["peak_rss_mb"] = rss.mb()
    out.samples.update(dict.fromkeys(("ops_per_s", "op_p50_ms", "op_tail_ms"), len(latency)))
    out.raw["certify_latency_s"] = latency
    out.raw["reference_certify_s"] = ref_times
    tail = "p99" if len(latency) >= P99_MIN_SAMPLES else "slowest"
    out.notes.append(f"{len(graphs)} distinct graphs, {done} timed certifications, {len(ref_times)} of the"
                     f" reference graph (fastest {min(ref_times) * 1e3:.4f} ms); ops_per_s is certs_per_s,"
                     f" op_tail_ms the {tail}")
    return out


def _traced_census_pass(count, graph, params, out):
    tracer, counts = Tracer(), _Counts()
    api = SimpleNamespace(
        decode=tracer.wrap("decode.decode", peelsim.decode, counts.decode),
        find_config=tracer.wrap("witness.find_config", peelsim.find_config, counts.config),
        extract_config=tracer.wrap("witness.extract_config", peelsim.extract_config),
        verify_config=tracer.wrap("witness.verify_config", peelsim.verify_config),
        count_exact_trees=tracer.wrap("witness.count_exact_trees", peelsim.count_exact_trees, counts.tree_count),
        find_short_cycle=tracer.wrap("witness.find_short_cycle", peelsim.find_short_cycle, counts.cycle),
    )
    sample = tracer.wrap("graph.sample_bipartite", peelsim.sample_bipartite, counts.graph)
    certify_span = tracer.wrap("bench.certify", certify)
    start = time.perf_counter()
    for i in range(count):
        tracer.trial = i
        _certify_timed(graph(i, sample), api, params, out, run=certify_span)
    out.attempted += count
    return tracer, counts, time.perf_counter() - start


def trace_census(w, seed, scale, tmp) -> Outcome:
    spec, params, graph = _census_setup(w, seed, scale)
    count = min(spec.trials_per_point, max(10, round(TRACED_CENSUS * scale)))
    out = Outcome()

    def untraced_pass():
        out.attempted += count
        return [_certify_timed(graph(i), RAW_API, params, out) for i in range(count)]

    # Untraced and traced passes alternate twice; each graph's faster pass of
    # each kind times the tracing overhead, since machine noise only adds time.
    untraced = untraced_pass()
    tracer, counts, wall = _traced_census_pass(count, graph, params, out)
    untraced = [min(a, b) for a, b in zip(untraced, untraced_pass())]
    again, *_ = _traced_census_pass(count, graph, params, out)
    first, second = tracer.by_trial("bench.certify"), again.by_trial("bench.certify")
    traced = [min(d, second[i]) for i, d in first.items() if i in second]

    samp = tracer.durations("graph.sample_bipartite")
    cert_d = tracer.durations("bench.certify")
    dec = tracer.durations("decode.decode")
    busy = sum(samp) + sum(cert_d)
    wit = {key: tracer.durations(f"witness.{call}") for key, call in (
        ("find_config", "find_config"), ("extract_config", "extract_config"),
        ("verify_config", "verify_config"), ("count_trees", "count_exact_trees"),
        ("short_cycle", "find_short_cycle"))}
    v = out.values
    v.update({
        "graph.sample_us": _median(samp) * 1e6,
        "graph.sample_share": sum(samp) / busy,
        "graph.edges_per_trial": counts.edges / counts.samples,
        "decode.decode_us": _median(dec) * 1e6,
        "decode.share": sum(dec) / busy,
        "witness.found_ratio": counts.found / len(wit["find_config"]),
        "witness.cycle_found_ratio": counts.cycles / len(wit["short_cycle"]),
        "witness.trees_total": counts.trees,
    })
    for key, ds in wit.items():
        v[f"witness.{key}_us"] = _median(ds) * 1e6
        out.samples[f"witness.{key}_us"] = len(ds)
    _decode_counts(v, counts)
    out.samples.update({"graph.sample_us": len(samp), "decode.decode_us": len(dec)})
    _trace_summary(out, tracer, wall, len(untraced) / sum(untraced), len(traced) / sum(traced), "certs_per_s")
    return out


# ---------------------------------------------------------------- theory


def trace_theory(n: int) -> dict:
    """Closed forms over r, t <= 6: the table, and threshold_p at size n."""
    tracer = Tracer()
    threshold = tracer.wrap("theory.threshold_p", peelsim.threshold_p)
    ps = [threshold(n, r, t) for r in range(1, 7) for t in range(1, 7)]

    def table():
        for (r, t), p in zip(((r, t) for r in range(1, 7) for t in range(1, 7)), ps):
            peelsim.tree_stats(r, t)
            peelsim.asymptotic_success(1.0, r, t)
            peelsim.expected_tree_count(n, p, r, t)

    tracer.wrap("theory.table", table)()
    return {
        "theory.threshold_p_us": _median(tracer.durations("theory.threshold_p")) * 1e6,
        "theory.table_ms": tracer.durations("theory.table")[0] * 1e3,
    }


