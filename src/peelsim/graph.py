"""Bipartite erasure-pattern graphs: construction, sampling, text formats.

An erasure pattern of a product code is stored as a bipartite graph: left
vertices are rows, right vertices are columns, and an edge (u, v) marks an
erased symbol in cell (u, v).  Graphs are immutable once built, so they can
be shared freely between threads.  It is the one pattern type: both text
formats, the '.'/'X' grid and the edge list, read into and write from it.
"""

from __future__ import annotations

import math
import numbers
import threading

import numpy as np

__all__ = [
    "BipartiteGraph",
    "parse_graph",
    "parse_grid",
    "sample_bipartite",
    "serialize_graph",
    "write_grid",
]

_SEED_SPACE = 2**64
_INT64_MAX = 2**63 - 1
# Larger grids are refused, so that cell ids, gaps and positions stay
# below 2**63 (see _skip_sample).
_MAX_CELLS = 2**61
# One generator per thread, re-keyed for every sample (see sample_bipartite).
_local = threading.local()
_ZEROS = (0, 0, 0, 0)


class BipartiteGraph:
    """Bipartite graph over two independent 0-based index spaces.

    Edges are held as parallel integer arrays ``u`` (left endpoints) and
    ``v`` (right endpoints), sorted lexicographically by (u, v) and free of
    duplicates.  The arrays are read-only.
    """

    def __init__(self, n_left: int, n_right: int, edges=()):
        n_left = _integer(n_left, 1, "graph needs at least one vertex per side, got n_left={!r}")
        n_right = _integer(n_right, 1, "graph needs at least one vertex per side, got n_right={!r}")
        if max(n_left, n_right) > _INT64_MAX:
            # No vertex past 2**63 - 1 can hold an int64 edge end.
            raise ValueError(f"graph sides must be at most 2**63 - 1, got {n_left} x {n_right}")
        arr = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges))
        if arr.size == 0:
            arr = np.empty((0, 2), dtype=np.int64)
        elif arr.dtype.kind not in "iu" or not np.can_cast(arr.dtype, np.int64):
            # Casting would truncate floats and wrap or refuse huge integers.
            raise ValueError(f"edge endpoints must be integers below 2**63, got dtype {arr.dtype}")
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError("edges must be (left, right) pairs")
        u, v = arr[:, 0], arr[:, 1]
        if u.size:
            if u.min() < 0 or u.max() >= n_left:
                raise ValueError(f"left index out of range [0, {n_left})")
            if v.min() < 0 or v.max() >= n_right:
                raise ValueError(f"right index out of range [0, {n_right})")
            order = np.lexsort((v, u))
            u, v = u[order], v[order]
            dup = (u[1:] == u[:-1]) & (v[1:] == v[:-1])
            if dup.any():
                k = int(np.nonzero(dup)[0][0])
                raise ValueError(f"duplicate edge ({u[k]}, {v[k]})")
        self._init_sorted(n_left, n_right, u, v)

    @classmethod
    def _from_sorted(cls, n_left: int, n_right: int, u, v) -> "BipartiteGraph":
        # Trusted constructor: endpoints (arrays or int lists) already
        # lex-sorted, in range, duplicate-free.
        g = cls.__new__(cls)
        g._init_sorted(n_left, n_right, u, v)
        return g

    def _init_sorted(self, n_left, n_right, u, v):
        u = np.ascontiguousarray(u, dtype=np.int64)
        v = np.ascontiguousarray(v, dtype=np.int64)
        u.setflags(write=False)
        v.setflags(write=False)
        self.n_left = n_left
        self.n_right = n_right
        self.u = u
        self.v = v

    @property
    def edge_count(self) -> int:
        return int(self.u.size)

    def has_edge(self, i: int, j: int) -> bool:
        # Edges are sorted by (u, v): find i's run in u, then j within it.
        # The ndarray methods skip numpy's dispatch wrappers.
        u, v = self.u, self.v
        lo = u.searchsorted(i, side="left")
        hi = u.searchsorted(i, side="right")
        k = lo + v[lo:hi].searchsorted(j)
        return bool(k < hi and v[k] == j)

    def edges(self):
        """Iterate edges as (left, right) int pairs in canonical order."""
        return zip(self.u.tolist(), self.v.tolist())

    def __eq__(self, other):
        if not isinstance(other, BipartiteGraph):
            return NotImplemented
        return (
            self.n_left == other.n_left
            and self.n_right == other.n_right
            and np.array_equal(self.u, other.u)
            and np.array_equal(self.v, other.v)
        )

    def __repr__(self):
        return f"BipartiteGraph(n_left={self.n_left}, n_right={self.n_right}, edges={self.edge_count})"


def parse_grid(text: str) -> BipartiteGraph:
    """Parse the grid text format: one row per line, '.' intact, 'X' erased.

    Line i is left vertex i, column j is right vertex j, and each 'X' is
    the edge (i, j)."""
    lines = text.splitlines()
    if not lines or all(not ln for ln in lines):
        raise ValueError("empty grid")
    width = len(lines[0])
    # Read in line order, the edges come out sorted by (left, right).
    u, v = [], []
    for i, ln in enumerate(lines):
        if len(ln) != width:
            raise ValueError(f"line {i + 1}: expected {width} characters, got {len(ln)}")
        for j, ch in enumerate(ln):
            if ch == "X":
                u.append(i)
                v.append(j)
            elif ch != ".":
                raise ValueError(f"line {i + 1}, column {j + 1}: illegal character {ch!r}")
    return BipartiteGraph._from_sorted(len(lines), width, u, v)


def write_grid(g: BipartiteGraph) -> str:
    """Grid text of g: one line per left vertex, 'X' at each right neighbour."""
    cells = np.full((g.n_left, g.n_right + 1), ord("."), dtype=np.uint8)
    cells[:, -1] = ord("\n")
    cells[g.u, g.v] = ord("X")
    return cells.tobytes().decode("ascii")


def serialize_graph(g: BipartiteGraph) -> str:
    """Canonical edge-list text: header 'n_left n_right edge_count', then one
    'u v' line per edge in lexicographic order."""
    head = f"{g.n_left} {g.n_right} {g.edge_count}\n"
    if g.edge_count == 0:
        return head
    body = "\n".join(f"{i} {j}" for i, j in zip(g.u.tolist(), g.v.tolist()))
    return head + body + "\n"


def parse_graph(text: str) -> BipartiteGraph:
    """Parse the canonical edge-list format (edge order need not be canonical)."""
    lines = [ln for ln in text.splitlines()]
    if not lines or not lines[0].strip():
        raise ValueError("empty edge list")
    head = lines[0].split()
    if len(head) != 3:
        raise ValueError(f"line 1: header must be 'n_left n_right edge_count', got {lines[0]!r}")
    try:
        n_left, n_right, m = (int(x) for x in head)
    except ValueError:
        raise ValueError(f"line 1: non-integer header field in {lines[0]!r}") from None
    body = [ln for ln in lines[1:] if ln.strip()]
    if len(body) != m:
        raise ValueError(f"header promises {m} edges, found {len(body)}")
    edges = []
    for lineno, ln in enumerate(body, start=2):
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'u v', got {ln!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer vertex in {ln!r}") from None
    return BipartiteGraph(n_left, n_right, edges)


def sample_bipartite(n_left: int, n_right: int, p: float, seed: int) -> BipartiteGraph:
    """Sample G(n_left, n_right, p): each of the n_left*n_right possible edges
    is present independently with probability p.

    Cells are linearized as index = u*n_right + v and selected by geometric
    skip sampling, so the expected cost is proportional to the number of
    edges drawn rather than to the number of cells.  The generator is Philox
    (counter-based) keyed by the 64-bit seed; identical arguments reproduce
    the identical graph on any platform.  Each thread keeps one Generator
    and re-keys it per call to the state a fresh ``Philox(key=seed)`` starts
    in, so the stream is that of a new generator without the cost of
    building one.  Grids of more than 2**61 cells are refused.
    """
    n_left = _integer(n_left, 1, "need n_left >= 1, got {!r}")
    n_right = _integer(n_right, 1, "need n_right >= 1, got {!r}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must lie in [0, 1], got {p}")
    seed = _integer(seed, 0, "seed must be a 64-bit unsigned integer, got {!r}")
    if seed >= _SEED_SPACE:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
    n_cells = n_left * n_right
    if n_cells > _MAX_CELLS:
        raise ValueError(f"a {n_left} x {n_right} grid has more than 2**61 cells")
    if p == 0.0:
        cells = np.empty(0, dtype=np.int64)
    elif p == 1.0:
        cells = np.arange(n_cells, dtype=np.int64)
    else:
        cells = _skip_sample(_keyed_generator(seed), n_cells, p)
    # Faster than np.divmod.  Both arrays are fresh, so the graph does not
    # pin the oversized draw buffer that cells may be a view of.
    u = cells // n_right
    v = u * n_right
    np.subtract(cells, v, out=v)
    return BipartiteGraph._from_sorted(n_left, n_right, u, v)


def _integer(value, minimum: int, message: str) -> int:
    """value as a plain int, or ValueError(message.format(value)) when it is
    not an integer of at least minimum.

    This is the package's one rule for integer arguments.  numpy integers
    count as integers and come back as int, so later arithmetic cannot wrap;
    bools do not count, though Python treats True as 1.  A plain int takes
    a fast path that skips the slower ABC check and accepts exactly the same
    values."""
    if type(value) is int:
        if value >= minimum:
            return value
    elif not isinstance(value, bool) and isinstance(value, numbers.Integral) and value >= minimum:
        return int(value)
    raise ValueError(message.format(value))


def _keyed_generator(seed: int) -> np.random.Generator:
    # Building Philox(key=seed) would also draw OS entropy for a SeedSequence
    # that a keyed generator never reads.  Each thread keeps its generator
    # and the state dict that re-keys it; only the key changes per call.
    gen = getattr(_local, "gen", None)
    if gen is None:
        gen = _local.gen = np.random.Generator(np.random.Philox(key=0))
        _local.state = {
            "bit_generator": "Philox",
            "state": {"counter": _ZEROS, "key": (0, 0)},
            "buffer": _ZEROS,
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
    state = _local.state
    state["state"]["key"] = (seed, 0)
    gen.bit_generator.state = state
    return gen


def _skip_sample(gen, n_cells: int, p: float) -> np.ndarray:
    # Gaps between consecutive selected cells are iid geometric on {1, 2, ...};
    # drawn in vectorized batches sized to the expected remainder.  Each gap
    # is floor(log1p(-x) / log_q) + 1 for a uniform x.  A quotient past the
    # grid is clamped to `top`, the least float >= n_cells: every gap inside
    # the grid keeps its bits, a clamped one still lands past the grid, and
    # the cast cannot overflow.  log_q is floored at -1e-300 so that the
    # quotient stays finite (below 4e301) at a subnormal p.  A positive
    # draw's quotient (at least 2**-53 / 1e-300) still passes every grid and
    # is clamped to `top`, as the unfloored one was, and a zero draw still
    # gives gap 1.
    log_q = min(math.log1p(-p), -1e-300)
    top = float(n_cells)
    if top < n_cells:
        top = math.nextafter(top, math.inf)
    # A running sum of `step` gaps from a position inside the grid stays
    # below 2**63.  A batch takes more than one step only when it holds more
    # than about 2**63 / n_cells gaps.
    step = (_INT64_MAX - n_cells) // (int(top) + 1)
    chunks = []
    pos = -1
    while pos < n_cells - 1:
        mean = (n_cells - pos - 1) * p
        x = gen.random(int(mean + 4.0 * math.sqrt(mean + 1.0)) + 16)
        np.negative(x, out=x)
        np.log1p(x, out=x)
        x /= log_q
        # The quotient is finite and >= 0, so the cast truncates it to its
        # floor.  Clamping in float64 first keeps the cast unbuffered.
        np.minimum(x, top, out=x)
        gaps = x.astype(np.int64)
        gaps += 1
        for start in range(0, gaps.size, step):
            # The gaps become positions; they increase strictly.  The ufunc
            # method and the ndarray method skip numpy's dispatch wrappers.
            block = gaps[start:start + step]
            block[0] += pos
            np.add.accumulate(block, out=block)
            pos = int(block[-1])
            if pos >= n_cells:
                gaps = gaps[:start + int(block.searchsorted(n_cells))]
                break
        chunks.append(gaps)
    # One batch nearly always suffices.
    return chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
