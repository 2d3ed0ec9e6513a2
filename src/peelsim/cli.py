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

`peelsim NAME ...` builds only NAME's parser; any other command line
(none, -h, an unknown word, --) builds the whole tree.  Both are made from
one declaration per subcommand, so each prints the same help, usage and
errors either way.  No parser is kept between calls.
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


def build_parser() -> argparse.ArgumentParser:
    """The whole command tree: the top-level parser and each subcommand's."""
    # The help shows the docstring up to its last paragraph, which says how
    # parsers are built (under -OO there is no docstring).
    description = __doc__ and __doc__.rsplit("\n\n", 1)[0]
    parser = argparse.ArgumentParser(prog="peelsim", description=description)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, _, _) in _SUBCOMMANDS.items():
        _declare(sub.add_parser(name, help=summary), name)
    return parser


def _subcommand_parser(name: str) -> argparse.ArgumentParser:
    """NAME's parser alone.  It prints the same help, usage and errors as
    NAME's subparser in build_parser's tree, at a fraction of the tree's
    cost."""
    return _declare(argparse.ArgumentParser(prog=f"peelsim {name}"), name)


def _declare(p, name):
    _, flags, formats = _SUBCOMMANDS[name]
    flags(p)
    if formats:
        p.add_argument("--format", choices=formats, default=formats[0])
    p.add_argument("--output", default=None, help="write to this file instead of stdout")
    # command gives main its error prefix.
    p.set_defaults(command=name)
    return p


def _gen_flags(p):
    p.set_defaults(handler=_cmd_gen)
    p.add_argument("-n", "--n-left", type=int, required=True)
    p.add_argument("--n-right", type=int, default=None, help="defaults to n-left")
    p.add_argument("-p", type=float, required=True, help="per-cell erasure probability")
    p.add_argument("--seed", type=int, default=0, help="64-bit seed (default 0)")


def _decode_flags(p):
    p.set_defaults(handler=_cmd_decode)
    _input_flags(p)
    steps = p.add_mutually_exclusive_group(required=True)
    steps.add_argument("-r", "--rounds", type=int)
    steps.add_argument("--fixpoint", action="store_true", help="peel until nothing moves")
    p.add_argument("-t", type=int, required=True)
    p.add_argument("--strict", action="store_true", help="exit 1 when decoding fails")


def _detect_flags(p):
    p.set_defaults(handler=_cmd_detect)
    _input_flags(p)
    p.add_argument("--kind", choices=("config", "cycle", "trees"), default="config")
    p.add_argument("-r", "--rounds", type=int, default=None)
    p.add_argument("-t", type=int, default=None)
    p.add_argument("--max-len", type=int, default=4, help="cycle length bound (even, >= 4)")


def _theory_flags(p):
    p.set_defaults(handler=_cmd_theory)
    p.add_argument("-r", type=int, required=True)
    p.add_argument("-t", type=int, required=True)
    p.add_argument("--r-max", type=int, default=None, help="table up to this r")
    p.add_argument("--t-max", type=int, default=None, help="table up to this t")
    p.add_argument("-c", type=float, default=None, help="also report asymptotic success at c")
    p.add_argument("-n", type=int, default=None, help="also report threshold_p at n")


def _sweep_flags(p):
    p.set_defaults(handler=_cmd_sweep)
    p.add_argument("--config", default=None, help="spec file (JSON or key=value)")
    # Each spec field's flag has the field's name as dest and takes its
    # value as text, which load_spec parses by the field's rule, as it does
    # a spec file's (see _cmd_sweep).
    p.add_argument("--mode", default=None)
    p.add_argument("--n-values", default=None, help="comma-separated")
    p.add_argument("-r", "--rounds", dest="r", metavar="ROUNDS", default=None)
    p.add_argument("-t", default=None)
    p.add_argument("--alpha", default=None)
    p.add_argument("--c-values", default=None, help="comma-separated")
    p.add_argument("--p-values", default=None, help="comma-separated")
    p.add_argument("--trials", dest="trials_per_point", metavar="TRIALS", default=None)
    p.add_argument("--confidence", default=None)
    p.add_argument("--workers", type=int, default=1,
                   help="processes to run trials on, this one included (the rest are forked);"
                        " capped at the CPUs available (default 1: in-process)")
    p.add_argument("--seed", dest="master_seed", metavar="SEED", default=None,
                   help="64-bit master seed (overrides the spec's)")


# Each subcommand, in help order: its one-line summary, the function that
# declares its own flags and handler, and its --format choices (the first
# is the default), if it has any.
_SUBCOMMANDS = {
    "gen": ("sample a random erasure pattern", _gen_flags, ()),
    "decode": ("run the peeling decoder", _decode_flags, ("text", "json")),
    "detect": ("find failure witnesses", _detect_flags, ("text", "json")),
    "theory": ("closed-form predictions", _theory_flags, ("text", "json")),
    "sweep": ("run a Monte Carlo sweep", _sweep_flags, ("csv", "json")),
}


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
    argv = sys.argv[1:] if argv is None else list(argv)
    # `peelsim NAME ...` builds NAME's parser alone; any other argv (none,
    # -h, an unknown word, --) gets the whole tree and its top-level errors.
    if argv and argv[0] in _SUBCOMMANDS:
        parser, argv = _subcommand_parser(argv[0]), argv[1:]
    else:
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
