import dataclasses
import pickle
import subprocess
import sys

import numpy as np
import pytest

from peelsim import (
    BipartiteGraph,
    DecodeParams,
    RoundRecord,
    decode,
    decode_fixpoint,
)
from peelsim.decode import COLS, ROWS, _first_side, _MaskEngine

from helpers import (
    cap_address_space,
    complete_graph,
    mask_to_graph,
    path_graph,
    random_graph,
    ref_decode,
    ref_fixpoint_stop,
    star_graph,
)

K22 = complete_graph(2, 2)
EMPTY = BipartiteGraph(2, 2)


def corpus(n=300, seed=99, max_side=5):
    rng = np.random.default_rng(seed)
    return [random_graph(rng, max_side=max_side) for _ in range(n)]


def mid_size_graph(t, seed):
    # About 1.5k edges at mean degree t + 1/2: rounds clear hundreds of
    # vertices while many others stay over capability.
    n = 2000 // (t + 1)
    rng = np.random.default_rng(seed)
    return mask_to_graph(rng.random((n, n)) < (t + 0.5) / n)


# ----------------------------------------------------------------- schedule

def assert_schedule(trace, rounds):
    # The trace is a prefix of the r-round schedule, whose last round
    # decodes rows.
    sides = [rec.side for rec in trace]
    assert len(sides) <= rounds
    assert sides == [ROWS if (rounds - k) % 2 == 0 else COLS for k in range(1, len(sides) + 1)]


def test_trace_sides_alternate_and_end_on_rows():
    # A 40-edge path loses at most two edges a round, so it never reaches
    # a fixpoint within 8 rounds and every round is peeled.
    g = path_graph(40)
    for r in range(9):
        out = decode(g, DecodeParams(rounds=r, t=1))
        assert len(out.trace) == r
        assert_schedule(out.trace, r)
        assert out.residual.edge_count > 0


@pytest.mark.parametrize("rounds", [10**18, 10**18 + 1])
def test_trace_stops_at_the_fixpoint(rounds):
    # K22 is a fixpoint at t=1: the first two rounds, one per side, are
    # no-ops, and the trace ends there however many rounds are scheduled.
    # In a child capped at 1 GiB, so that a trace of one record per round
    # fails with MemoryError instead of taking the machine's memory.
    code = ("import sys, tracemalloc; from peelsim import BipartiteGraph, DecodeParams, decode; "
            "g = BipartiteGraph(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)]); tracemalloc.start(); "
            "out = decode(g, DecodeParams(int(sys.argv[1]), 1)); "
            "print(tracemalloc.get_traced_memory()[1], out.rounds_executed, out.residual is g, "
            "[(rec.side, rec.cleared, rec.edges_removed) for rec in out.trace])")
    proc = subprocess.run([sys.executable, "-c", code, str(rounds)], capture_output=True, text=True,
                          timeout=10, preexec_fn=cap_address_space)
    assert proc.returncode == 0, proc.stderr
    peak, executed, same, trace = proc.stdout.split(maxsplit=3)
    assert int(peak) < 100_000
    assert int(executed) == rounds and same == "True"
    first, second = (ROWS, COLS) if rounds % 2 else (COLS, ROWS)
    assert trace.strip() == repr([(first, (), 0), (second, (), 0)])


# ------------------------------------------------------------ frozen examples

def test_empty_graph_succeeds():
    # An empty graph is already a fixpoint: no round is run or recorded.
    out = decode(EMPTY, DecodeParams(rounds=1, t=1))
    assert out.success
    assert out.residual.edge_count == 0
    assert out.rounds_executed == 1
    assert out.trace == ()


def test_k22_is_a_fixed_point():
    out = decode(K22, DecodeParams(rounds=10, t=1))
    assert not out.success
    assert out.residual is K22
    assert all(rec.edges_removed == 0 for rec in out.trace)


@pytest.mark.parametrize("t", [1, 2, 3])
def test_star_depends_on_round_count(t):
    star = star_graph(t)
    # r=1 decodes rows first: the center holds t+1 > t edges and stays.
    assert not decode(star, DecodeParams(rounds=1, t=t)).success
    # r=2 starts on columns: every leaf has degree 1 <= t.
    assert decode(star, DecodeParams(rounds=2, t=t)).success


def test_zero_rounds():
    assert decode(EMPTY, DecodeParams(rounds=0, t=1)).success
    out = decode(K22, DecodeParams(rounds=0, t=1))
    assert not out.success and out.trace == () and out.rounds_executed == 0


def test_zero_capability_nonempty_always_fails():
    g = BipartiteGraph(2, 2, [(0, 1)])
    for r in range(4):
        assert not decode(g, DecodeParams(rounds=r, t=0)).success


def test_params_validation():
    for rounds, t in ((-1, 1), (1, -1), (True, 1), (1, True), (2.0, 1)):
        with pytest.raises(ValueError, match="must be a non-negative integer"):
            DecodeParams(rounds=rounds, t=t)


def test_params_store_numpy_integers_as_int():
    params = DecodeParams(rounds=np.int64(2), t=np.int32(1))
    assert params == DecodeParams(rounds=2, t=1)
    assert type(params.rounds) is int and type(params.t) is int
    out = decode(K22, params)
    assert type(out.rounds_executed) is int and out.rounds_executed == 2


# ----------------------------------------------------------------- fixpoint

def test_fixpoint_empty_graph():
    out = decode_fixpoint(EMPTY, t=1)
    assert out.success and out.rounds_executed == 0 and out.trace == ()
    assert out.residual is EMPTY


def test_fixpoint_k22_stalls():
    out = decode_fixpoint(K22, t=1)
    assert not out.success
    assert out.residual is K22
    assert out.rounds_executed == 0


def test_fixpoint_consumes_path():
    # The 4-edge path defeats 2 scheduled rounds when rooted on the left,
    # but unlimited peeling eats it from the leaves inward.  The
    # right-centered orientation wastes round 1 (both rows have degree 2).
    out = decode_fixpoint(path_graph(4, start_left=True), t=1)
    assert out.success and out.rounds_executed == 2
    out = decode_fixpoint(path_graph(4, start_left=False), t=1)
    assert out.success and out.rounds_executed == 3


def test_fixpoint_rejects_bad_t():
    for t in (-1, True, 1.0):
        with pytest.raises(ValueError, match="t must be a non-negative integer"):
            decode_fixpoint(K22, t=t)


def test_fixpoint_accepts_numpy_integer():
    assert decode_fixpoint(path_graph(4), np.int64(1)) == decode_fixpoint(path_graph(4), 1)


def test_fixpoint_counts_effective_rounds():
    # Star: row round removes nothing, column round clears the leaves.
    out = decode_fixpoint(star_graph(1), t=1)
    assert out.success
    assert out.rounds_executed == 2
    assert out.trace[0].edges_removed == 0


# ------------------------------------------------------- reference decoder

# t = 0 and t = 48 (at least every degree here) make isolated vertices
# qualify in every round: they are not listed as cleared and the rounds in
# which only they qualify remove nothing.
@pytest.mark.parametrize("rounds,t", [(1, 1), (2, 1), (3, 2), (4, 1), (8, 1), (11, 2),
                                      (1, 0), (4, 0), (1, 48), (2, 48)])
def test_matches_reference_decoder(rounds, t):
    seed = rounds * 10 + t
    for g in corpus(150, seed=seed) + [mid_size_graph(t, seed)]:
        out = decode(g, DecodeParams(rounds=rounds, t=t))
        ok, residual, cleared, removed = ref_decode(g, rounds, t)
        assert out.success == ok
        assert frozenset(out.residual.edges()) == residual
        # The trace is the reference's run up to the fixpoint; every
        # reference round after it is idle.
        steps = len(out.trace)
        assert steps == ref_fixpoint_stop(g.edge_count, removed)
        assert_schedule(out.trace, rounds)
        assert [rec.cleared for rec in out.trace] == cleared[:steps]
        assert [rec.edges_removed for rec in out.trace] == removed[:steps]
        assert not any(cleared[steps:]) and not any(removed[steps:])
        assert out.rounds_executed == rounds


def test_round_record_contract():
    # At r = 4 the path's first round, on columns, is a no-op; the rows
    # round after it clears.
    g = path_graph(4)
    out = decode(g, DecodeParams(rounds=4, t=1))
    assert out.trace[0].cleared == () and out.trace[1].cleared  # a no-op and a clearing round
    for rec in out.trace:
        built = RoundRecord(rec.side, tuple(rec.cleared), rec.edges_removed)
        assert type(rec.cleared) is tuple
        assert all(type(i) is int for i in rec.cleared)
        assert list(rec.cleared) == sorted(rec.cleared)
        assert rec == built and hash(rec) == hash(built)
        assert repr(rec) == (f"RoundRecord(side={rec.side!r}, cleared={rec.cleared!r}, "
                             f"edges_removed={rec.edges_removed!r})")
        assert pickle.loads(pickle.dumps(rec)) == built
        with pytest.raises(dataclasses.FrozenInstanceError):
            rec.cleared = ()
        with pytest.raises(dataclasses.FrozenInstanceError):
            rec.edges_removed = 0
    # Fresh decodes compare and hash equal to the first.
    again = decode(g, DecodeParams(rounds=4, t=1))
    assert again.trace == out.trace
    assert hash(decode(g, DecodeParams(rounds=4, t=1)).trace) == hash(out.trace)
    fresh = decode(g, DecodeParams(rounds=4, t=1)).trace[1]
    assert repr(fresh) == "RoundRecord(side='rows', cleared=(0, 2), edges_removed=2)"


def test_sequential_sweep_equivalence():
    # Clearing a row changes only column degrees, so snapshot and in-order
    # sequential sweeps must agree exactly.
    for g in corpus(200, seed=17):
        for rounds, t in ((1, 1), (2, 1), (3, 2)):
            snap = ref_decode(g, rounds, t, sequential=False)
            seq = ref_decode(g, rounds, t, sequential=True)
            assert snap == seq
            out = decode(g, DecodeParams(rounds=rounds, t=t))
            assert out.success == snap[0]


def test_fixpoint_matches_reference_decoder():
    # An odd schedule starts on rows like the fixpoint does; once the
    # fixpoint has stopped, the reference's extra rounds remove nothing.
    for t in (1, 2):
        for g in corpus(200, seed=23, max_side=7) + [mid_size_graph(t, 23)]:
            fix = decode_fixpoint(g, t)
            steps = len(fix.trace)
            rounds = steps if steps % 2 else steps + 1
            ok, residual, cleared, removed = ref_decode(g, rounds, t)
            assert fix.success == ok
            assert frozenset(fix.residual.edges()) == residual
            assert [rec.side for rec in fix.trace] == [
                ROWS if k % 2 else COLS for k in range(1, steps + 1)]
            assert [rec.cleared for rec in fix.trace] == cleared[:steps]
            assert [rec.edges_removed for rec in fix.trace] == removed[:steps]
            assert not any(removed[steps:])
            assert fix.rounds_executed == max(
                (k for k, m in enumerate(removed, start=1) if m), default=0)


def test_fixpoint_stops_after_an_idle_pair_or_when_empty():
    # The trace ends on the round that empties the graph, or else on the
    # second of two rounds in a row, one per side, that removed nothing; a
    # longer reference run places that stop independently.
    for t in (1, 2):
        for g in corpus(200, seed=29, max_side=7) + [mid_size_graph(t, 29)]:
            fix = decode_fixpoint(g, t)
            _, _, _, removed = ref_decode(g, 2 * len(fix.trace) + 3, t)
            assert len(fix.trace) == ref_fixpoint_stop(g.edge_count, removed) < len(removed)


# ------------------------------------------------------------------- engine

def _owner(a):
    # The array that holds a's buffer.
    while a.base is not None:
        a = a.base
    return a


def test_engine_arrays_are_the_live_edges_in_order():
    compacted = 0
    for t in (1, 2):
        for g in corpus(100, seed=61, max_side=7) + [mid_size_graph(t, 61)]:
            for rounds in range(1, 6):
                run = _MaskEngine(g, t)
                run.peel(_first_side(rounds), rounds)
                u, v = run.u, run.v
                assert len(u) == len(v) == run.live_edges
                assert np.all((u[1:] > u[:-1]) | ((u[1:] == u[:-1]) & (v[1:] > v[:-1])))
                assert frozenset(zip(u.tolist(), v.tolist())) == ref_decode(g, rounds, t)[1]
                compacted += 0 < run.live_edges < g.edge_count
    assert compacted > 100


def test_emptied_engine_lets_go_of_the_pattern():
    # The columns round clears every leaf of the star at once.
    g = star_graph(2)
    out = decode(g, DecodeParams(rounds=2, t=2))
    assert out.success and out.residual.edge_count == 0
    for mine, theirs in ((out.residual.u, g.u), (out.residual.v, g.v)):
        assert not np.shares_memory(mine, theirs)
        # A zero-length view shares no bytes, but would still hold g's buffer.
        assert _owner(mine) is not _owner(theirs)


@pytest.mark.parametrize("g, t", [
    (EMPTY, 1),
    (K22, 1),
    (BipartiteGraph(5, 5, [(0, 0), (1, 1), (1, 2)]), 0),  # sparse: every round gathers
    (complete_graph(6, 6), 2),  # dense: the idle test fires on both sides
    # K22 beside an isolated row and column: degree 0 fails the idle test,
    # and the gather removes nothing.
    (BipartiteGraph(3, 3, [(0, 0), (0, 1), (1, 0), (1, 1)]), 1),
])
def test_residual_is_the_pattern_when_nothing_was_removed(g, t):
    for rounds in range(5):
        assert decode(g, DecodeParams(rounds=rounds, t=t)).residual is g
    assert decode_fixpoint(g, t).residual is g


# ---------------------------------------------------------------- properties

def test_conservation():
    for g in corpus(200, seed=31):
        for params in (DecodeParams(2, 1), DecodeParams(3, 2)):
            out = decode(g, params)
            assert sum(rec.edges_removed for rec in out.trace) + out.residual.edge_count == g.edge_count
            assert out.success == (out.residual.edge_count == 0)
        fix = decode_fixpoint(g, 1)
        assert sum(rec.edges_removed for rec in fix.trace) + fix.residual.edge_count == g.edge_count


def test_monotone_in_t():
    for g in corpus(150, seed=41):
        for r in (1, 2, 3):
            if decode(g, DecodeParams(r, 1)).success:
                assert decode(g, DecodeParams(r, 2)).success


def test_monotone_in_rounds():
    for g in corpus(150, seed=43):
        for r in (1, 2, 3):
            if decode(g, DecodeParams(r, 1)).success:
                assert decode(g, DecodeParams(r + 1, 1)).success


def test_monotone_under_edge_subsets():
    rng = np.random.default_rng(47)
    for g in corpus(150, seed=53):
        if g.edge_count == 0:
            continue
        keep = rng.random(g.edge_count) < 0.6
        sub = BipartiteGraph(g.n_left, g.n_right,
                             [e for e, k in zip(g.edges(), keep) if k])
        for params in (DecodeParams(1, 1), DecodeParams(2, 1), DecodeParams(3, 2)):
            if decode(g, params).success:
                assert decode(sub, params).success


def test_decode_success_implies_fixpoint_success():
    for g in corpus(150, seed=59):
        for r in (1, 2, 3):
            if decode(g, DecodeParams(r, 1)).success:
                assert decode_fixpoint(g, 1).success
