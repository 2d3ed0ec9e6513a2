"""Round-limited peeling decoder for bipartite erasure patterns.

Each round works on one side of the graph.  A row (left vertex) can be
corrected when it holds at most t erased symbols, i.e. current degree <= t;
correcting it removes all its incident edges.  Rounds alternate sides and
are scheduled backward from the last round, which always decodes rows:
with r rounds total, round i decodes rows when (r - i) is even and columns
otherwise.  Within a round every qualifying vertex is cleared against the
degrees observed at the start of the round (snapshot semantics).

Decoding succeeds when no edges remain after the final round.

A round costs only what it can change.  The vertices a round cleared stay
a numpy mask until ``RoundRecord.cleared`` is first read, so callers that
only look at the outcome never build their ids as Python ints.  Once the
graph is empty, or each side has found nothing to clear since the last
removal, the state is a fixpoint: the remaining rounds are recorded as
no-ops without touching the edge arrays.
"""

from __future__ import annotations

import math
from dataclasses import FrozenInstanceError, dataclass

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


class RoundRecord:
    """One executed round: which side ran, which vertices with at least one
    edge were cleared (ascending), and how many edges that removed.

    Immutable and compared, hashed and printed by (side, cleared,
    edges_removed).  The engine hands over the cleared vertices as a
    boolean mask over the side's vertex ids; ``cleared`` turns it into the
    ascending tuple of ints when first read.
    """

    def __init__(self, side: str, cleared: tuple[int, ...], edges_removed: int):
        object.__setattr__(self, "side", side)
        object.__setattr__(self, "_cleared", cleared)
        object.__setattr__(self, "edges_removed", edges_removed)

    @property
    def cleared(self) -> tuple[int, ...]:
        ids = self._cleared
        if isinstance(ids, np.ndarray):
            ids = tuple(np.flatnonzero(ids).tolist())
            object.__setattr__(self, "_cleared", ids)
        return ids

    def _key(self):
        return (self.side, self.cleared, self.edges_removed)

    def __eq__(self, other):
        if not isinstance(other, RoundRecord):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"RoundRecord(side={self.side!r}, cleared={self.cleared!r}, edges_removed={self.edges_removed!r})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


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

    The engine decides when to stop: a pair of rounds runs while edges
    remain and some side has not come up empty since the last removal, so
    the loop ends only after a whole pair (or once the graph is empty).
    rounds_executed counts effective rounds: the position of the last round
    that removed an edge (0 when nothing was ever removed).  The trace keeps
    every executed round, including the final no-op ones.
    """
    if not isinstance(t, int) or t < 0:
        raise ValueError(f"t must be a non-negative integer, got {t!r}")
    run = _MaskEngine(g, t)
    trace: list[RoundRecord] = []
    while run.live_edges and len(run.stuck) < 2:
        trace.append(run.round(ROWS))
        if run.live_edges:
            trace.append(run.round(COLS))
    return DecodeOutcome(run.live_edges == 0, run.residual(), tuple(trace), run.last_removal)


class _MaskEngine:
    """Peeling over the parallel edge arrays: a live-edge mask plus its
    running count.  Each round bincounts the live ends on its side, so
    clearing follows the degrees seen at the start of the round.

    The mask is None until the first removal, so a first round bincounts
    the edge arrays without a gather.  ``stuck`` holds the sides that found
    nothing to clear since the last removal: such a side would find
    nothing again, so its round returns a no-op at once.  ``rounds`` counts
    every round run, no-ops included, and ``last_removal`` is the number of
    the last round that removed an edge (0 before any removal).

    ``round`` runs one round and records it; ``peel`` runs alternating
    rounds without records, for callers that read only the counts.
    """

    def __init__(self, g: BipartiteGraph, t: int):
        self.g = g
        self.t = t
        self.alive = None
        self.live_edges = g.edge_count
        self.stuck: set[str] = set()
        self.rounds = 0
        self.last_removal = 0

    def round(self, side: str) -> RoundRecord:
        before = self.live_edges
        cleared = self._clear(side)
        return RoundRecord(side, () if cleared is None else cleared, before - self.live_edges)

    def peel(self, first: str, limit: float = math.inf) -> None:
        """Run rounds with `first` on the odd-numbered ones and the other side
        on the even-numbered ones, until `limit` rounds have run in all or
        the state is a fixpoint (graph empty or both sides stuck), after
        which every round would be a no-op."""
        other = COLS if first == ROWS else ROWS
        while self.live_edges and len(self.stuck) < 2 and self.rounds < limit:
            self._clear(other if self.rounds % 2 else first)

    def _clear(self, side: str):
        # One round on side: the mask of cleared vertices, or None when it
        # removed nothing.
        self.rounds += 1
        if self.live_edges == 0 or side in self.stuck:
            return None
        g = self.g
        ends, n = (g.u, g.n_left) if side == ROWS else (g.v, g.n_right)
        deg = np.bincount(ends if self.alive is None else ends[self.alive], minlength=n)
        # In place, so a round holds one n-length temporary fewer.
        qualifies = deg <= self.t
        qualifies &= deg > 0
        if not qualifies.any():
            self.stuck.add(side)
            return None
        # Every cleared vertex has a live edge, so this round removes some.
        kill = qualifies[ends]
        if self.alive is None:
            self.alive = ~kill
        else:
            kill &= self.alive
            self.alive ^= kill
        self.live_edges -= int(np.count_nonzero(kill))
        self.stuck.clear()
        self.last_removal = self.rounds
        return qualifies

    def residual(self) -> BipartiteGraph:
        """The live edges; g itself when the rounds removed nothing."""
        if self.alive is None:
            return self.g
        return self.g._masked(self.alive)
