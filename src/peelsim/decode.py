"""Round-limited peeling decoder for bipartite erasure patterns.

Each round works on one side of the graph.  A row (left vertex) can be
corrected when it holds at most t erased symbols, i.e. current degree <= t;
correcting it removes all its incident edges.  Rounds alternate sides and
are scheduled backward from the last round, which always decodes rows:
with r rounds total, round i decodes rows when (r - i) is even and columns
otherwise.  Within a round every qualifying vertex is cleared against the
degrees observed at the start of the round (snapshot semantics).

Decoding succeeds when no edges remain after the final round.

One loop, ``_MaskEngine.peel``, runs the rounds of ``decode``,
``decode_fixpoint`` and ``experiment.run_trial``.  Once the graph is empty,
or the last two rounds (one per side) removed nothing, the state is a
fixpoint and the loop stops: every later round would be a no-op, so a
trace records only the rounds run.  The engine holds only the live edges:
after a round removes edges, its edge arrays shrink to the survivors, so a
round costs one n-length degree count plus work in the edges still live.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import BipartiteGraph, _integer

__all__ = [
    "DecodeOutcome",
    "DecodeParams",
    "RoundRecord",
    "decode",
    "decode_fixpoint",
]

ROWS = "rows"
COLS = "cols"


@dataclass(frozen=True)
class DecodeParams:
    """rounds: total peeling rounds (r >= 0); t: per-vertex correction capability."""

    rounds: int
    t: int

    def __post_init__(self):
        # Stored as plain ints, so a numpy integer is not carried into
        # rounds_executed.
        rounds = _integer(self.rounds, 0, "rounds must be a non-negative integer, got {!r}")
        object.__setattr__(self, "rounds", rounds)
        object.__setattr__(self, "t", _integer(self.t, 0, "t must be a non-negative integer, got {!r}"))


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


def _first_side(rounds: int) -> str:
    """Side of round 1 of `rounds` rounds, the last of which decodes rows."""
    return ROWS if rounds % 2 else COLS


def decode(g: BipartiteGraph, params: DecodeParams) -> DecodeOutcome:
    """Run params.rounds peeling rounds on g; rounds_executed equals
    params.rounds.  The trace holds the rounds up to the fixpoint, a prefix
    of the schedule: the rounds_executed - len(trace) rounds after it are
    no-ops and are not recorded.
    """
    run = _MaskEngine(g, params.t)
    trace: list[RoundRecord] = []
    run.peel(_first_side(params.rounds), params.rounds, trace)
    return DecodeOutcome(run.live_edges == 0, run.residual(), tuple(trace), params.rounds)


def decode_fixpoint(g: BipartiteGraph, t: int) -> DecodeOutcome:
    """Peel with unlimited rounds, starting with rows, until the graph is
    empty or two rounds in a row remove nothing; the trace ends on that
    round.  rounds_executed is the number of the last round that removed
    an edge (0 when nothing was ever removed).
    """
    t = _integer(t, 0, "t must be a non-negative integer, got {!r}")
    run = _MaskEngine(g, t)
    trace: list[RoundRecord] = []
    run.peel(ROWS, trace=trace)
    return DecodeOutcome(run.live_edges == 0, run.residual(), tuple(trace), run.last_removal)


class _MaskEngine:
    """Peeling over the live edges alone: ``u`` and ``v`` start as the
    graph's edge arrays and, after each round that removes edges, become
    the survivors, still in lexicographic order.  A round costs one
    n-length ``bincount`` of its side's live ends plus work in the live
    edges, so rounds after the first bulk removal are cheap.  A round in
    which every vertex on its side holds more than t live edges is idle
    and stops after the ``bincount`` and its minimum (see ``_clear``).

    ``rounds`` counts every round run, no-ops included, and
    ``last_removal`` is the number of the last round that removed an edge
    (0 before any removal).  ``peel`` is the only round loop; it stops at a
    fixpoint, read off these two counts.
    """

    def __init__(self, g: BipartiteGraph, t: int):
        self.g = g
        self.t = t
        self.u = g.u
        self.v = g.v
        self.live_edges = g.edge_count
        self.rounds = 0
        self.last_removal = 0

    def peel(self, first: str, limit: float = math.inf, trace: list | None = None) -> None:
        """Run rounds with `first` on the odd-numbered ones and the other side
        on the even-numbered ones, until `limit` rounds have run in all or
        the state is a fixpoint, after which every round would be a no-op:
        the graph is empty, or ``rounds - last_removal`` reached 2, so each
        side has come up empty since the last removal.  Appends one
        ``RoundRecord`` per round run to `trace` when one is given."""
        other = COLS if first == ROWS else ROWS
        while self.live_edges and self.rounds - self.last_removal < 2 and self.rounds < limit:
            self._clear(other if self.rounds % 2 else first, trace)

    def _clear(self, side: str, trace: list | None) -> None:
        # One round on side.  Its arrays die on return, which keeps a trial's
        # peak heap down; a trace keeps only the cleared ids.
        self.rounds += 1
        live, t = self.live_edges, self.t
        ends, n = (self.u, self.g.n_left) if side == ROWS else (self.v, self.g.n_right)
        # The n-length pass that every round makes.  Degree-0 vertices
        # qualify too; they have no edge to remove.
        deg = np.bincount(ends, minlength=n)
        removed = 0
        # Idle test: when every vertex is over capability the round removes
        # nothing, so the gather over the live ends is skipped.  With fewer
        # live ends than vertices some vertex has degree 0 <= t and the
        # round is not idle, so the first clause is no size switch: it only
        # keeps the n-length min off sparse rounds.
        if not (live >= n and deg.min() > t):
            keep = deg[ends] > t
            removed = live - int(np.count_nonzero(keep))
            if removed:
                if removed == live:
                    # Every live edge went: two empty arrays spare the two
                    # selections over the whole mask.
                    self.u, self.v = np.empty(0, np.int64), np.empty(0, np.int64)
                else:
                    self.u, self.v = self.u[keep], self.v[keep]
                self.live_edges = live - removed
                self.last_removal = self.rounds
        if trace is not None:
            cleared = ((deg <= t) & (deg > 0)).nonzero()[0].tolist() if removed else ()
            trace.append(RoundRecord(side, tuple(cleared), removed))

    def residual(self) -> BipartiteGraph:
        """The live edges; g itself when the rounds removed nothing.  The
        engine's arrays are selections from g's, so they are still sorted."""
        if not self.last_removal:
            return self.g
        return BipartiteGraph._from_sorted(self.g.n_left, self.g.n_right, self.u, self.v)
