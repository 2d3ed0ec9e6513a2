"""peelsim benchmark: end-to-end and per-layer timings over four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/`` of that checkout, never from an installed copy.  With ``--trace 0``
the run measures the end-to-end metrics of BENCHMARK.json with tracing off;
with ``--trace 1`` it replays the workload with spans around every public
call and reports the per-layer metrics.  Human-readable lines come first;
the last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Every output is checked (see gate.py); the exit
code is 0 when all checks pass, 1 when any failed, 2 on usage errors or when
the program is missing.  ``--scale`` shrinks the work for smoke tests.

The full record of a run (machine, spec, metrics with sample counts, checks,
and for traced runs the spans) is written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("threshold_small", "threshold_large", "dense_stuck", "witness_census")
# Fresh interpreters timed for setup_s, spread over the timed loop.
SETUP_SPAWNS = 12

SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import peelsim; "
    "assert peelsim.__file__.startswith(sys.argv[1]); "
    "peelsim.load_spec(open(sys.argv[2]).read())"
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", type=float, default=1.0, help="work multiplier; below 1 for smoke tests")
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        ap.error("--seed must be a 64-bit unsigned integer")
    if args.seconds <= 0 or not 0 < args.scale <= 1:
        ap.error("--seconds must be positive and --scale in (0, 1]")
    return args


def _spawn(argv, env=None) -> float:
    """Wall time of one fresh interpreter running argv.

    wait() without a timeout blocks in waitpid, so the time is exact (with a
    timeout, Popen polls in steps of up to 50 ms); a timer kills a child that
    hangs.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL)
    killer = threading.Timer(120, proc.kill)
    killer.start()
    try:
        code = proc.wait()
    finally:
        killer.cancel()
    elapsed = time.perf_counter() - t0
    if code != 0:
        raise subprocess.CalledProcessError(code, argv)
    return elapsed


class SpreadSpawns:
    """Times `count` fresh interpreters spread evenly over `seconds`.

    The timed loop calls tick() between its operations; tick starts every
    spawn that is due by then, so spawns never overlap the timed work.
    finish() starts any spawn the loop left over.  One untimed spawn comes
    first, to warm the file cache.  Spread out, the spawns sample the
    machine over the whole run rather than one burst of noise; their median
    counts.
    """

    def __init__(self, argv, count, seconds, env=None):
        self.argv, self.count, self.seconds, self.env = argv, count, seconds, env
        self.times: list[float] = []
        _spawn(argv, env)
        self.start = time.perf_counter()

    def tick(self) -> bool:
        """Start the spawns that are due; True if there were any."""
        due = len(self.times)
        while (len(self.times) < self.count
               and time.perf_counter() - self.start >= len(self.times) * self.seconds / self.count):
            self.times.append(_spawn(self.argv, self.env))
        return len(self.times) > due

    def finish(self) -> list[float]:
        while len(self.times) < self.count:
            self.times.append(_spawn(self.argv, self.env))
        return self.times


def machine_record(peelsim, numpy) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, check=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = "unknown"
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "nproc": nproc, "cpu": cpu, "python": platform.python_version(),
        "numpy": numpy.__version__, "peelsim": peelsim.__version__, "commit": commit,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "peelsim" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"perfbench: no peelsim source under {SRC} or no BENCHMARK.json; nothing to measure",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import numpy
    import peelsim

    if not Path(peelsim.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported peelsim from {peelsim.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = declared["per_layer" if args.trace else "end_to_end"]
    w = workloads.WORKLOADS[args.workload]
    machine = machine_record(peelsim, numpy)
    small = args.scale < 1
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            trace = workloads.trace_census if w.census else workloads.trace_sweep
            out = trace(w, args.seed, args.scale, tmp)
            n = int(w.spec["n_values"])
            out.values.update(workloads.trace_theory(n))
            env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
            startup = SpreadSpawns([sys.executable, "-m", "peelsim", "theory", "-r", "1", "-t", "1"],
                                   2 if small else 5, 0, env).finish()
            out.values["cli.startup_s"] = statistics.median(startup)
            out.samples["cli.startup_s"] = len(startup)
            unknown = set(out.values) - {m["name"] for m in metrics}
            if unknown:
                raise RuntimeError(f"undeclared metrics {sorted(unknown)}")
            # Layers a workload never calls read 0.
            out.values = {m["name"]: out.values.get(m["name"], 0.0) for m in metrics}
        else:
            cfg = tmp / "setup.cfg"
            cfg.write_text(workloads.spec_text(w, args.seed, args.scale))
            spawns = SpreadSpawns([sys.executable, "-c", SETUP_CODE, str(SRC), str(cfg)],
                                  2 if small else SETUP_SPAWNS, args.seconds)
            measure = workloads.measure_census if w.census else workloads.measure_sweep
            out = measure(w, args.seed, args.seconds, args.scale, tmp, spawns.tick)
            setup = spawns.finish()
            out.values["setup_s"] = statistics.median(setup)
            out.samples["setup_s"] = len(setup)
            out.raw["setup_s"] = setup
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    correct = out.failed == 0 and not out.problems
    result = {
        "correct": correct,
        "attempted": max(1, out.attempted),
        "failed": out.failed if correct else max(1, out.failed),
        "metrics": {
            m["name"]: {"value": out.values[m["name"]], "unit": m["unit"]}
            for m in metrics if m["name"] in out.values
        },
    }
    print("machine " + json.dumps(machine, sort_keys=True))
    print(f"workload {w.name} seed {args.seed} seconds {args.seconds:g} trace {args.trace} scale {args.scale:g}")
    for m in metrics:
        if m["name"] in out.values:
            n = out.samples.get(m["name"])
            print(f"metric {m['name']} = {out.values[m['name']]:.6g} {m['unit']}" + (f" (n={n})" if n else ""))
    print(f"metric failed_frac = {result['failed'] / result['attempted']:.6g} ratio "
          f"({result['failed']} of {result['attempted']} operations failed)")
    for note in out.notes:
        print("note " + note)
    for problem in out.problems[:20]:
        print("FAILED " + problem)

    stem = f"{w.name}-seed{args.seed}-trace{args.trace}" + (f"-scale{args.scale:g}" if small else "")
    record = dict(result, machine=machine, workload=w.name, seed=args.seed, seconds=args.seconds,
                  scale=args.scale, spec=workloads.spec_text(w, args.seed, args.scale),
                  samples=out.samples, notes=out.notes, problems=out.problems, raw=out.raw)
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if out.tracer is not None:
        out.tracer.dump(OUT / f"{stem}.spans.jsonl")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
