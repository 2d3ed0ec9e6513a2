"""Round-limited peeling decoder for bipartite erasure patterns.

Each round works on one side of the graph.  A row (left vertex) can be
corrected when it holds at most t erased symbols, i.e. current degree <= t;
correcting it removes all its incident edges.  Rounds alternate sides and
are scheduled backward from the last round, which always decodes rows:
with r rounds total, round i decodes rows when (r - i) is even and columns
otherwise.  Within a round every qualifying vertex is cleared against the
degrees observed at the start of the round (snapshot semantics).

Decoding succeeds when no edges remain after the final round.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import BipartiteGraph

__all__ = [
    "DecodeOutcome",
    "DecodeParams",
    "RoundRecord",
    "decode",
    "decode_fixpoint",
    "side_schedule",
]

ROWS = "rows"
COLS = "cols"


@dataclass(frozen=True)
class DecodeParams:
    """rounds: total peeling rounds (r >= 0); t: per-vertex correction capability."""

    rounds: int
    t: int

    def __post_init__(self):
        if not isinstance(self.rounds, int) or self.rounds < 0:
            raise ValueError(f"rounds must be a non-negative integer, got {self.rounds!r}")
        if not isinstance(self.t, int) or self.t < 0:
            raise ValueError(f"t must be a non-negative integer, got {self.t!r}")


@dataclass(frozen=True)
class RoundRecord:
    """One executed round: which side ran, which vertices with at least one
    edge were cleared (ascending), and how many edges that removed."""

    side: str
    cleared: tuple[int, ...]
    edges_removed: int


@dataclass(frozen=True)
class DecodeOutcome:
    success: bool
    residual: BipartiteGraph
    trace: tuple[RoundRecord, ...]
    rounds_executed: int


def side_schedule(rounds: int) -> tuple[str, ...]:
    """Sides for rounds 1..rounds; the final round always decodes rows."""
    if rounds < 0:
        raise ValueError("rounds must be non-negative")
    return tuple(ROWS if (rounds - i) % 2 == 0 else COLS for i in range(1, rounds + 1))


def decode(g: BipartiteGraph, params: DecodeParams) -> DecodeOutcome:
    """Run exactly params.rounds peeling rounds on g.

    Returns the outcome with a per-round trace; rounds_executed equals
    params.rounds.
    """
    run = _MaskEngine(g, params.t)
    trace = tuple(run.round(side) for side in side_schedule(params.rounds))
    return DecodeOutcome(run.live_edges == 0, run.residual(), trace, params.rounds)


def decode_fixpoint(g: BipartiteGraph, t: int) -> DecodeOutcome:
    """Peel with unlimited rounds, starting with rows, until the graph is
    empty or a full row+column double-round removes nothing.

    rounds_executed counts effective rounds: the position of the last round
    that removed an edge (0 when nothing was ever removed).  The trace keeps
    every executed round, including the final no-op ones.
    """
    if not isinstance(t, int) or t < 0:
        raise ValueError(f"t must be a non-negative integer, got {t!r}")
    if g.edge_count == 0:
        return DecodeOutcome(True, g, (), 0)
    run = _MaskEngine(g, t)
    trace: list[RoundRecord] = []
    while True:
        removed_pair = 0
        for side in (ROWS, COLS):
            rec = run.round(side)
            trace.append(rec)
            removed_pair += rec.edges_removed
            if run.live_edges == 0:
                break
        if run.live_edges == 0 or removed_pair == 0:
            break
    executed = 0
    for k, rec in enumerate(trace, start=1):
        if rec.edges_removed > 0:
            executed = k
    return DecodeOutcome(run.live_edges == 0, run.residual(), tuple(trace), executed)


class _MaskEngine:
    """Peeling over the parallel edge arrays: a live-edge mask plus its
    running count.  Each round bincounts the live ends on its side, so
    clearing follows the degrees seen at the start of the round."""

    def __init__(self, g: BipartiteGraph, t: int):
        self.g = g
        self.t = t
        self.alive = np.ones(g.edge_count, dtype=bool)
        self.live_edges = g.edge_count

    def round(self, side: str) -> RoundRecord:
        g = self.g
        ends, n = (g.u, g.n_left) if side == ROWS else (g.v, g.n_right)
        deg = np.bincount(ends[self.alive], minlength=n)
        qualifies = (deg > 0) & (deg <= self.t)
        if not qualifies.any():
            return RoundRecord(side, (), 0)
        kill = self.alive & qualifies[ends]
        self.alive &= ~kill
        removed = int(np.count_nonzero(kill))
        self.live_edges -= removed
        return RoundRecord(side, tuple(np.nonzero(qualifies)[0].tolist()), removed)

    def residual(self) -> BipartiteGraph:
        """The live edges; g itself when the rounds removed nothing."""
        if self.live_edges == self.g.edge_count:
            return self.g
        return self.g._masked(self.alive)
