"""Property checks with hypothesis: the decoders against the independent
reference peeler, and the text formats against their parsers.

Every test runs derandomized and without an example database, so the
examples are the same on each run and no failure is replayed from disk.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peelsim import (
    DecodeParams,
    ErasureGrid,
    decode,
    decode_fixpoint,
    from_grid,
    parse_graph,
    parse_grid,
    serialize_graph,
    write_grid,
)
from peelsim.decode import COLS, ROWS

from helpers import ref_decode

fixed = settings(derandomize=True, database=None, deadline=None)


@st.composite
def grids(draw, max_side=8):
    # Cell by cell, so about half the cells are erased: sets of cells
    # would mostly come out empty or nearly so.
    n_rows = draw(st.integers(1, max_side))
    n_cols = draw(st.integers(1, max_side))
    row = st.lists(st.booleans(), min_size=n_cols, max_size=n_cols)
    return ErasureGrid(np.array(draw(st.lists(row, min_size=n_rows, max_size=n_rows)), dtype=bool))


def graphs(max_side=6):
    return grids(max_side).map(from_grid)


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
    assert [rec.side for rec in out.trace] == [
        ROWS if (rounds - k) % 2 == 0 else COLS for k in range(1, rounds + 1)]
    assert [rec.cleared for rec in out.trace] == cleared
    assert [rec.edges_removed for rec in out.trace] == removed
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
    # The run ends once the graph is empty or after a whole idle pair.
    assert fix.success or (steps % 2 == 0 and steps >= 2 and removed[steps - 2:steps] == [0, 0])
    assert fix.rounds_executed == max((k for k, m in enumerate(removed, start=1) if m), default=0)


@fixed
@given(graphs(max_side=12))
def test_edge_list_round_trip(g):
    assert parse_graph(serialize_graph(g)) == g


@fixed
@given(grids())
def test_grid_round_trip(grid):
    assert parse_grid(write_grid(grid)) == grid
