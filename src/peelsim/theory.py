"""Closed-form predictions for peeling over random erasure patterns.

The central object is the exact (r, t)-tree: the minimal layered tree whose
presence in an erasure pattern defeats r rounds of capability-t peeling.
Its root has t+1 children, every internal vertex below the root has t
children, and leaves sit at depth r.  Everything here reduces to counting
that tree: its edge count fixes the decodability threshold, and its
automorphism count fixes the constant in the asymptotic success law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .graph import BipartiteGraph, _integer

__all__ = [
    "AT_THRESHOLD",
    "DECODABLE_ONE_ROUND",
    "TreeStats",
    "UNDECODABLE_ALL_ROUNDS",
    "asymptotic_success",
    "build_exact_tree",
    "expected_tree_count",
    "linear_regime_prediction",
    "threshold_p",
    "tree_stats",
]

DECODABLE_ONE_ROUND = "DECODABLE_ONE_ROUND"
UNDECODABLE_ALL_ROUNDS = "UNDECODABLE_ALL_ROUNDS"
AT_THRESHOLD = "AT_THRESHOLD"

# Exact automorphism counts stop at 10**4300, Python's default int -> str
# limit; past it the integer (about t!**(t**(r-1))) may never finish building.
_EXACT_LOG_AUTOMORPHISMS = 4300 * math.log(10.0)
# Trees with more than about 10**300 edges are refused: every float derived
# from their counts (log_automorphisms, threshold_p, ...) stays finite below.
_MAX_EDGES = 10**300
_LOG_MAX_EDGES = math.log(_MAX_EDGES)


@dataclass(frozen=True)
class TreeStats:
    """Exact counts for the exact (r, t)-tree.

    edges/vertices/left_vertices/right_vertices are exact integers, and so is
    automorphisms below 10**4300 (None above); log_automorphisms is the
    natural log computed in log space, safe far beyond float range.
    """

    r: int
    t: int
    edges: int
    vertices: int
    left_vertices: int
    right_vertices: int
    automorphisms: int | None
    log_automorphisms: float


def _check_rt(r: int, t: int) -> tuple[int, int]:
    return (_integer(r, 1, "r must be an integer >= 1, got {!r}"),
            _integer(t, 1, "t must be an integer >= 1, got {!r}"))


def _level_sizes(r: int, t: int) -> list[int]:
    # Depth 0 holds the root; depth i holds (t+1) * t**(i-1) vertices.
    return [1] + [(t + 1) * t ** (i - 1) for i in range(1, r + 1)]


def tree_stats(r: int, t: int) -> TreeStats:
    """Exact size and symmetry counts for the exact (r, t)-tree.

    Raises ValueError for trees with more than about 10**300 edges, before
    any count is built."""
    r, t = _check_rt(r, t)
    # edges = 2r at t = 1, else (t+1) * (t**r - 1) / (t-1): bounded in log
    # space, written as a bound on r, so that neither a big integer nor a
    # float too large for its range is built.
    if (2 * r > _MAX_EDGES if t == 1
            else r > (_LOG_MAX_EDGES - math.log((t + 1) / (t - 1))) / math.log(t)):
        raise ValueError(f"the exact tree for r={r}, t={t} has more than 10**300 edges; "
                         "its counts are out of range")
    if t == 1:
        # A path of 2r edges centred on the root; reversing it is the only
        # non-trivial automorphism.
        vertices = 2 * r + 1
        left = 1 + 2 * (r // 2)
        autos = 2
        log_autos = math.log(2.0)
    else:
        sizes = _level_sizes(r, t)
        vertices = sum(sizes)
        left = sum(sizes[0::2])
        # One (t+1)! for the root's subtrees, one t! per internal non-root vertex.
        internal_non_root = (t + 1) * (t ** (r - 1) - 1) // (t - 1)
        log_autos = math.lgamma(t + 2) + internal_non_root * math.lgamma(t + 1)
        autos = None
        if log_autos < _EXACT_LOG_AUTOMORPHISMS:
            autos = math.factorial(t + 1) * math.factorial(t) ** internal_non_root
    return TreeStats(r, t, vertices - 1, vertices, left, vertices - left, autos, log_autos)


def build_exact_tree(r: int, t: int) -> BipartiteGraph:
    """Build the exact (r, t)-tree explicitly.

    The root is left vertex 0; depth-i vertices occupy consecutive indices
    on their side (even depths left, odd depths right) in breadth-first
    order.  Used by brute-force oracles and demos; tree_stats uses closed
    forms and must agree with this construction.
    """
    r, t = _check_rt(r, t)
    sizes = _level_sizes(r, t)
    next_id = {"L": 0, "R": 0}
    level_ids = []
    for depth, size in enumerate(sizes):
        side = "L" if depth % 2 == 0 else "R"
        level_ids.append(list(range(next_id[side], next_id[side] + size)))
        next_id[side] += size
    edges = []
    for depth in range(r):
        parents = level_ids[depth]
        children = level_ids[depth + 1]
        per_parent = t + 1 if depth == 0 else t
        for k, child in enumerate(children):
            parent = parents[k // per_parent]
            if depth % 2 == 0:
                edges.append((parent, child))
            else:
                edges.append((child, parent))
    return BipartiteGraph(next_id["L"], next_id["R"], edges)


def threshold_p(n: int, r: int, t: int) -> float:
    """Decodability threshold for G(n, n, p): p* = n ** -(1 + 1/e) where e is
    the exact-tree edge count.  Below p* decoding almost always succeeds,
    above it almost always fails (as n grows)."""
    e = tree_stats(r, t).edges
    n = _integer(n, 2, "n must be an integer >= 2, got {!r}")
    return math.exp(-(1.0 + 1.0 / e) * math.log(n))


def asymptotic_success(c: float, r: int, t: int) -> float:
    """Limit success probability at p = c * threshold_p(n, r, t): the count of
    exact trees is asymptotically Poisson with mean c**e / a, so success
    tends to exp(-c**e / a)."""
    s = tree_stats(r, t)
    if not c > 0.0:
        raise ValueError(f"c must be positive, got {c!r}")
    x = s.edges * math.log(c) - s.log_automorphisms
    if x > 700.0:
        return 0.0
    return math.exp(-math.exp(x))


def expected_tree_count(n: int, p: float, r: int, t: int) -> float:
    """Expected number of exact (r, t)-tree placements in G(n, n, p).

    Each of the falling(n, v_L) * falling(n, v_R) / a ordered placements is
    present with probability p**e; evaluated in log space."""
    s = tree_stats(r, t)
    n = _integer(n, 1, "n must be an integer >= 1, got {!r}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if s.left_vertices > n or s.right_vertices > n:
        return 0.0
    if p == 0.0:
        return 0.0
    try:
        log_mean = (
            _log_falling(n, s.left_vertices)
            + _log_falling(n, s.right_vertices)
            - s.log_automorphisms
            + s.edges * math.log(p)
        )
    except OverflowError:
        raise _n_too_large(n) from None
    return math.exp(log_mean)


# From here on the three-term tail of Stirling's series is off by less than
# 1 / (1680 x**7), about 1e-17.
_STIRLING_FROM = 100


def _log_falling(n: int, v: int) -> float:
    """log(n (n-1) ... (n-v+1)) for 0 <= v <= n.

    lgamma(n + 1) - lgamma(n - v + 1) subtracts two values of size about
    n log n and loses their digits for large n.  Once m = n - v reaches
    _STIRLING_FROM, Stirling's series for both factorials is used instead:
    its leading terms combine into v log n - v - (m + 1/2) log1p(-v/n),
    which cancels only about v, and its tail terms are small.  Below that,
    lgamma(m + 1) is small and the difference keeps its digits."""
    m = n - v
    if m < _STIRLING_FROM:
        return math.lgamma(n + 1) - math.lgamma(m + 1)
    return v * math.log(n) - v - (m + 0.5) * math.log1p(-v / n) + _stirling_tail(n) - _stirling_tail(m)


def _stirling_tail(x: int) -> float:
    # log(x!) - (x + 1/2) log(x) + x - log(2 pi) / 2, to three terms.
    x2 = float(x) * x
    return (1.0 / 12.0 - (1.0 / 360.0 - 1.0 / (1260.0 * x2)) / x2) / x


def _n_too_large(n: int) -> ValueError:
    # Formulas evaluated in floats cannot take n past float (or lgamma) range.
    return ValueError(f"n is too large for float arithmetic: an integer of {n.bit_length()} bits")


def linear_regime_prediction(p: float, alpha: float) -> str:
    """Verdict when capability scales linearly, t = floor(alpha * n).

    With p below alpha a single row round almost always finishes the whole
    pattern; with p above alpha no number of rounds helps.  Comparison is
    exact; p == alpha returns AT_THRESHOLD, where this model predicts
    nothing."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if p < alpha:
        return DECODABLE_ONE_ROUND
    if p > alpha:
        return UNDECODABLE_ALL_ROUNDS
    return AT_THRESHOLD
