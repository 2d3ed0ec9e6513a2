"""Command-line front end.

Subcommands: gen (sample a pattern), decode (peel a pattern), detect
(witnesses, short cycles, exact-tree counts), theory (closed forms),
sweep (Monte Carlo).  Each takes only the flags it reads.  Exit codes: 0
on success, 1 when --strict decoding fails, 2 on usage errors (argparse
rejects unknown flags, bad choices and conflicting or missing flag
pairs), on an --output path in a missing directory or naming a directory
(checked before any work), on input-format errors, on inputs too large
to fit in memory, on a sweep worker process that dies and on theory
tables of more than 10,000 rows.  Only gen and sweep draw random
numbers, and all of them flow from --seed (gen: default 0; sweep: the
spec's master_seed, default 0); nothing reads the clock.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .decode import DecodeParams, decode, decode_fixpoint
from .experiment import ExperimentSpec, load_spec, run_sweep, write_results
from .graph import parse_graph, parse_grid, sample_bipartite, serialize_graph
from .theory import asymptotic_success, threshold_p, tree_stats
from .witness import count_exact_trees, find_config, find_short_cycle, serialize_config

__all__ = ["build_parser", "main"]

# A theory table is built in memory before any row is printed.
_MAX_THEORY_ROWS = 10_000


class _Subcommand(argparse.ArgumentParser):
    """A subcommand's parser.  It reports a flag it does not take itself,
    under its own usage line, instead of passing it up to the top-level
    parser."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extra = super().parse_known_args(args, namespace)
        if extra:
            self.error(f"unrecognized arguments: {' '.join(extra)}")
        return namespace, extra


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="peelsim", description=__doc__)
    # Each subparser names its handler; dest gives main its error prefix.
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Subcommand)

    p_gen = sub.add_parser("gen", help="sample a random erasure pattern")
    p_gen.set_defaults(handler=_cmd_gen)
    p_gen.add_argument("-n", "--n-left", type=int, required=True)
    p_gen.add_argument("--n-right", type=int, default=None, help="defaults to n-left")
    p_gen.add_argument("-p", type=float, required=True, help="per-cell erasure probability")
    p_gen.add_argument("--seed", type=int, default=0, help="64-bit seed (default 0)")

    p_dec = sub.add_parser("decode", help="run the peeling decoder")
    p_dec.set_defaults(handler=_cmd_decode)
    _input_flags(p_dec)
    steps = p_dec.add_mutually_exclusive_group(required=True)
    steps.add_argument("-r", "--rounds", type=int)
    steps.add_argument("--fixpoint", action="store_true", help="peel until nothing moves")
    p_dec.add_argument("-t", type=int, required=True)
    p_dec.add_argument("--strict", action="store_true", help="exit 1 when decoding fails")

    p_det = sub.add_parser("detect", help="find failure witnesses")
    p_det.set_defaults(handler=_cmd_detect)
    _input_flags(p_det)
    p_det.add_argument("--kind", choices=("config", "cycle", "trees"), default="config")
    p_det.add_argument("-r", "--rounds", type=int, default=None)
    p_det.add_argument("-t", type=int, default=None)
    p_det.add_argument("--max-len", type=int, default=4, help="cycle length bound (even, >= 4)")

    p_thy = sub.add_parser("theory", help="closed-form predictions")
    p_thy.set_defaults(handler=_cmd_theory)
    p_thy.add_argument("-r", type=int, required=True)
    p_thy.add_argument("-t", type=int, required=True)
    p_thy.add_argument("--r-max", type=int, default=None, help="table up to this r")
    p_thy.add_argument("--t-max", type=int, default=None, help="table up to this t")
    p_thy.add_argument("-c", type=float, default=None, help="also report asymptotic success at c")
    p_thy.add_argument("-n", type=int, default=None, help="also report threshold_p at n")

    p_swp = sub.add_parser("sweep", help="run a Monte Carlo sweep")
    p_swp.set_defaults(handler=_cmd_sweep)
    p_swp.add_argument("--config", default=None, help="spec file (JSON or key=value)")
    # Each spec field's flag has the field's name as dest and takes its
    # value as text, which load_spec parses by the field's rule, as it does
    # a spec file's (see _cmd_sweep).
    p_swp.add_argument("--mode", default=None)
    p_swp.add_argument("--n-values", default=None, help="comma-separated")
    p_swp.add_argument("-r", "--rounds", dest="r", metavar="ROUNDS", default=None)
    p_swp.add_argument("-t", default=None)
    p_swp.add_argument("--alpha", default=None)
    p_swp.add_argument("--c-values", default=None, help="comma-separated")
    p_swp.add_argument("--p-values", default=None, help="comma-separated")
    p_swp.add_argument("--trials", dest="trials_per_point", metavar="TRIALS", default=None)
    p_swp.add_argument("--confidence", default=None)
    p_swp.add_argument("--workers", type=_workers, default=1,
                       help="processes to run trials on, this one included (the rest are forked);"
                            " capped at the CPUs available (default 1: in-process)")
    p_swp.add_argument("--seed", dest="master_seed", metavar="SEED", default=None,
                       help="64-bit master seed (overrides the spec's)")
    p_swp.add_argument("--format", choices=("csv", "json"), default="csv")

    for p in (p_dec, p_det, p_thy):
        p.add_argument("--format", choices=("text", "json"), default="text")
    for p in sub.choices.values():
        p.add_argument("--output", default=None, help="write to this file instead of stdout")
    return parser


def _workers(text):
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def _input_flags(p):
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--edges", help="edge-list file")
    source.add_argument("--grid", help="grid file ('.'/'X')")


def _load_graph(args):
    if args.edges is not None:
        with open(args.edges) as fh:
            return parse_graph(fh.read())
    with open(args.grid) as fh:
        return parse_grid(fh.read())


def _emit(args, text: str):
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        # A sweep can run for hours, so every output path is checked first.
        if args.output is not None:
            _check_output(args.output)
        return args.handler(args)
    # OSError includes the ChildProcessError of a sweep's dead worker and
    # the BlockingIOError of a fork refused at the process limit.
    except (ValueError, OSError, MemoryError) as exc:
        print(f"peelsim {args.command}: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


def _cmd_gen(args) -> int:
    n_right = args.n_left if args.n_right is None else args.n_right
    g = sample_bipartite(args.n_left, n_right, args.p, args.seed)
    _emit(args, serialize_graph(g))
    return 0


def _cmd_decode(args) -> int:
    g = _load_graph(args)
    if args.fixpoint:
        outcome = decode_fixpoint(g, args.t)
    else:
        outcome = decode(g, DecodeParams(rounds=args.rounds, t=args.t))
    if args.format == "json":
        payload = {
            "success": outcome.success,
            "residual_edges": outcome.residual.edge_count,
            "rounds_executed": outcome.rounds_executed,
            "trace": [
                {"side": rec.side, "cleared": list(rec.cleared), "edges_removed": rec.edges_removed}
                for rec in outcome.trace
            ],
        }
        _emit(args, json.dumps(payload, indent=2) + "\n")
    else:
        lines = [
            f"{'SUCCESS' if outcome.success else 'FAILURE'} residual_edges={outcome.residual.edge_count}",
            f"rounds_executed={outcome.rounds_executed}",
        ]
        for i, rec in enumerate(outcome.trace, start=1):
            lines.append(
                f"round {i} side={rec.side} cleared={len(rec.cleared)} edges_removed={rec.edges_removed}"
            )
        _emit(args, "\n".join(lines) + "\n")
    return 1 if args.strict and not outcome.success else 0


def _cmd_detect(args) -> int:
    g = _load_graph(args)
    if args.kind != "cycle" and (args.rounds is None or args.t is None):
        raise ValueError(f"--kind {args.kind} needs --rounds and -t")
    if args.kind == "config":
        cfg = find_config(g, args.rounds, args.t)
        if args.format == "json":
            payload = None if cfg is None else {
                "root": cfg.root,
                "layers": [sorted(layer) for layer in cfg.layers],
                "edges": sorted(cfg.edges),
            }
            _emit(args, json.dumps({"config": payload}, indent=2) + "\n")
        elif cfg is None:
            _emit(args, "CONFIG ABSENT\n")
        else:
            _emit(args, "CONFIG PRESENT\n" + serialize_config(cfg, g.n_left, g.n_right))
    elif args.kind == "cycle":
        cycle = find_short_cycle(g, args.max_len)
        if args.format == "json":
            payload = None if cycle is None else [list(e) for e in cycle]
            _emit(args, json.dumps({"cycle": payload}, indent=2) + "\n")
        elif cycle is None:
            _emit(args, "CYCLE ABSENT\n")
        else:
            body = "\n".join(f"{i} {j}" for i, j in cycle)
            _emit(args, f"CYCLE PRESENT length={len(cycle)}\n{body}\n")
    else:
        count = count_exact_trees(g, args.rounds, args.t)
        if args.format == "json":
            _emit(args, json.dumps({"exact_trees": count}) + "\n")
        else:
            _emit(args, f"exact_trees={count}\n")
    return 0


def _cmd_theory(args) -> int:
    r_hi = args.r if args.r_max is None else args.r_max
    t_hi = args.t if args.t_max is None else args.t_max
    if r_hi < args.r:
        raise ValueError(f"--r-max must be at least -r ({args.r}), got {r_hi}")
    if t_hi < args.t:
        raise ValueError(f"--t-max must be at least -t ({args.t}), got {t_hi}")
    count = (r_hi - args.r + 1) * (t_hi - args.t + 1)
    if count > _MAX_THEORY_ROWS:
        raise ValueError(f"the table would have {count} rows; at most {_MAX_THEORY_ROWS} are allowed")
    rows = []
    for r in range(args.r, r_hi + 1):
        for t in range(args.t, t_hi + 1):
            row = dataclasses.asdict(tree_stats(r, t))
            row["threshold_exponent"] = -(1.0 + 1.0 / row["edges"])
            if args.n is not None:
                row["threshold_p"] = threshold_p(args.n, r, t)
            if args.c is not None:
                row["asymptotic_success"] = asymptotic_success(args.c, r, t)
            rows.append(row)
    if args.format == "json":
        # exact integers as decimal strings; floats stay floats
        enc = [
            {k: (str(v) if isinstance(v, int) and k != "r" and k != "t" else v) for k, v in row.items()}
            for row in rows
        ]
        _emit(args, json.dumps(enc, indent=2) + "\n")
    else:
        lines = []
        for row in rows:
            parts = [f"{k}={_fmt_theory(v)}" for k, v in row.items()]
            lines.append(" ".join(parts))
        _emit(args, "\n".join(lines) + "\n")
    return 0


def _fmt_theory(v):
    if isinstance(v, float):
        return format(v, ".6f") if 1e-4 <= abs(v) < 1e7 or v == 0 else format(v, ".6e")
    return str(v)


def _check_output(path: str):
    """Refuse an output path that cannot be written, before any work is
    done: a directory, or a file in a directory that does not exist.  The
    file is not opened here, so an existing one keeps its bytes if the work
    then fails."""
    if os.path.isdir(path):
        raise ValueError(f"--output {path!r} is a directory")
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise ValueError(f"--output {path!r}: no such directory {parent!r}")


def _cmd_sweep(args) -> int:
    overrides = {f.name: getattr(args, f.name) for f in dataclasses.fields(ExperimentSpec)}
    text = ""
    if args.config is not None:
        with open(args.config) as fh:
            text = fh.read()
    spec = load_spec(text, overrides)
    results = run_sweep(spec, workers=args.workers)
    _emit(args, write_results(results, args.format))
    return 0


if __name__ == "__main__":
    sys.exit(main())
