"""Property checks with hypothesis: the decoders, the Monte Carlo trial and
the witness searches against the independent reference peeler and subset
enumeration, and the text formats against their parsers.

Every test runs derandomized and without an example database, so the
examples are the same on each run and no failure is replayed from disk.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peelsim import (
    BipartiteGraph,
    DecodeParams,
    count_exact_trees,
    decode,
    decode_fixpoint,
    find_config,
    parse_graph,
    parse_grid,
    serialize_graph,
    verify_config,
    write_grid,
)
from peelsim import experiment
from peelsim.decode import COLS, ROWS

from helpers import complete_graph, mask_to_graph, naive_tree_count, ref_decode, ref_fixpoint_stop

fixed = settings(derandomize=True, database=None, deadline=None)


@st.composite
def grids(draw, max_side=8):
    # Cell by cell, so about half the cells are erased: sets of cells
    # would mostly come out empty or nearly so.
    n_rows = draw(st.integers(1, max_side))
    n_cols = draw(st.integers(1, max_side))
    row = st.lists(st.booleans(), min_size=n_cols, max_size=n_cols)
    return mask_to_graph(np.array(draw(st.lists(row, min_size=n_rows, max_size=n_rows)), dtype=bool))


def graphs(max_side=6):
    return grids(max_side)


# Each capability gets its own examples: drawn, t would mostly be 0, where
# only the empty graph decodes.
capabilities = pytest.mark.parametrize("t", range(4))
per_capability = settings(fixed, max_examples=50)


@capabilities
@per_capability
@given(graphs(), st.integers(0, 8))
def test_decode_matches_reference(t, g, rounds):
    out = decode(g, DecodeParams(rounds=rounds, t=t))
    ok, residual, cleared, removed = ref_decode(g, rounds, t)
    assert out.success == ok
    assert frozenset(out.residual.edges()) == residual
    # The trace is the schedule up to the fixpoint, and every reference
    # round after it is idle.
    steps = len(out.trace)
    assert steps == ref_fixpoint_stop(g.edge_count, removed) <= rounds
    assert [rec.side for rec in out.trace] == [
        ROWS if (rounds - k) % 2 == 0 else COLS for k in range(1, steps + 1)]
    assert [rec.cleared for rec in out.trace] == cleared[:steps]
    assert [rec.edges_removed for rec in out.trace] == removed[:steps]
    assert not any(cleared[steps:]) and not any(removed[steps:])
    assert out.rounds_executed == rounds


@capabilities
@per_capability
@given(graphs())
def test_fixpoint_matches_reference(t, g):
    fix = decode_fixpoint(g, t)
    steps = len(fix.trace)
    # Odd reference schedules start on rows, as the fixpoint does.
    ok, residual, cleared, removed = ref_decode(g, steps + 3 - steps % 2, t)
    assert fix.success == ok
    assert frozenset(fix.residual.edges()) == residual
    assert [rec.side for rec in fix.trace] == [ROWS if k % 2 else COLS for k in range(1, steps + 1)]
    assert [rec.cleared for rec in fix.trace] == cleared[:steps]
    assert [rec.edges_removed for rec in fix.trace] == removed[:steps]
    assert not any(removed[steps:])
    # The run ends once the graph is empty or after two idle rounds in a row.
    assert steps == ref_fixpoint_stop(g.edge_count, removed) < len(removed)
    assert fix.rounds_executed == max((k for k, m in enumerate(removed, start=1) if m), default=0)


def check_trial(g, rounds, t):
    # run_trial on g itself, against the public decoders and the reference.
    params = DecodeParams(rounds=rounds, t=t)
    with mock.patch.object(experiment, "sample_bipartite", lambda *args: g):
        rec = experiment.run_trial(g.n_left, 0.5, params, 0)
    limited = decode(g, params)
    fix = decode_fixpoint(g, t)
    ok, residual, _, _ = ref_decode(g, rounds, t)
    # Each removing round takes an edge, and two idle rounds end the run.
    _, _, _, removed = ref_decode(g, 2 * g.edge_count + 3, t)
    assert rec.success == limited.success == ok
    assert rec.residual_edges == limited.residual.edge_count == len(residual)
    assert rec.one_round_success == (fix.success and fix.rounds_executed <= 1) == ref_decode(g, 1, t)[0]
    assert rec.fixpoint_rounds == fix.rounds_executed == max(
        (k for k, m in enumerate(removed, start=1) if m), default=0)


@capabilities
@per_capability
@given(graphs(), st.integers(0, 8))
def test_trial_matches_the_decoders_and_reference(t, g, rounds):
    check_trial(g, rounds, t)


# K_{4,4} at t = 1 never peels, so at even r the fixpoint run reuses the
# engine.  THIN_ROW has columns of degree 3 and 2 and a row of degree 1:
# at even r the columns round is idle and the rows round removes, so the
# fixpoint run needs a fresh engine.
THIN_ROW = BipartiteGraph(3, 2, [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0)])


@pytest.mark.parametrize("g", [complete_graph(4, 4), THIN_ROW], ids=["k44", "thin_row"])
@pytest.mark.parametrize("rounds", [0, 2, 4])
def test_trial_reuses_the_engine_only_when_nothing_was_removed(g, rounds):
    check_trial(g, rounds, 1)


@capabilities
@settings(fixed, max_examples=250)
@given(graphs(9), st.integers(1, 6))
def test_find_config_exists_exactly_when_decoding_fails(t, g, rounds):
    # Deeper than the acceptance check's r <= 3: every survival level from
    # 2 up is taken from the survivors of the level before.  Grids up to
    # 9x9 and 250 examples per t: a certificate that builds its layers by
    # walking from the root failed the local check in about 4 of 1000
    # failing cases at sides up to 7, which these examples missed, and in
    # about 9 of 1000 at sides up to 9, which they catch.
    ok, *_ = ref_decode(g, rounds, t)
    cfg = find_config(g, rounds, t)
    assert (cfg is None) == ok
    if cfg is not None:
        # The certificate passes the local check, decoding fails on its
        # own edges, and it is rooted at the decoder's smallest residual row.
        assert verify_config(g, cfg, rounds, t)
        assert not ref_decode(BipartiteGraph(g.n_left, g.n_right, sorted(cfg.edges)), rounds, t)[0]
        assert cfg.root == int(decode(g, DecodeParams(rounds, t)).residual.u.min())


@pytest.mark.parametrize("t", range(1, 4))
@per_capability
@given(graphs(max_side=4), st.integers(1, 3))
def test_tree_count_matches_subset_enumeration(t, g, r):
    # At r = 3 the count prunes an inner vertex's children by a level
    # other than 0 and r.
    assert count_exact_trees(g, r, t) == naive_tree_count(g, r, t)


@fixed
@given(graphs(max_side=12))
def test_edge_list_round_trip(g):
    assert parse_graph(serialize_graph(g)) == g


@fixed
@given(grids())
def test_grid_round_trip(g):
    assert parse_grid(write_grid(g)) == g
