"""Bipartite erasure-pattern graphs: construction, sampling, text formats.

An erasure pattern of a product code is stored as a bipartite graph: left
vertices are rows, right vertices are columns, and an edge (u, v) marks an
erased symbol in cell (u, v).  Graphs are immutable once built, so they can
be shared freely between threads.
"""

from __future__ import annotations

import math
import threading

import numpy as np

__all__ = [
    "BipartiteGraph",
    "ErasureGrid",
    "from_grid",
    "parse_graph",
    "parse_grid",
    "sample_bipartite",
    "serialize_graph",
    "write_grid",
]

_SEED_SPACE = 2**64
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
        if n_left < 1 or n_right < 1:
            raise ValueError(f"graph needs at least one vertex per side, got {n_left}x{n_right}")
        arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges, dtype=np.int64)
        if arr.size == 0:
            arr = arr.reshape(0, 2)
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
    def _from_sorted(cls, n_left: int, n_right: int, u: np.ndarray, v: np.ndarray) -> "BipartiteGraph":
        # Trusted constructor: arrays already lex-sorted, in range, duplicate-free.
        g = cls.__new__(cls)
        g._init_sorted(n_left, n_right, u.astype(np.int64, copy=False), v.astype(np.int64, copy=False))
        return g

    def _init_sorted(self, n_left, n_right, u, v):
        u = np.ascontiguousarray(u, dtype=np.int64)
        v = np.ascontiguousarray(v, dtype=np.int64)
        u.flags.writeable = False
        v.flags.writeable = False
        self.n_left = n_left
        self.n_right = n_right
        self.u = u
        self.v = v

    @property
    def edge_count(self) -> int:
        return int(self.u.size)

    def neighbors_of_left(self, i: int) -> np.ndarray:
        """Sorted right neighbors of left vertex i."""
        lo = np.searchsorted(self.u, i, side="left")
        hi = np.searchsorted(self.u, i, side="right")
        return self.v[lo:hi]

    def has_edge(self, i: int, j: int) -> bool:
        nbrs = self.neighbors_of_left(i)
        k = np.searchsorted(nbrs, j)
        return bool(k < nbrs.size and nbrs[k] == j)

    def edges(self):
        """Iterate edges as (left, right) int pairs in canonical order."""
        return zip(self.u.tolist(), self.v.tolist())

    def _masked(self, keep: np.ndarray) -> "BipartiteGraph":
        # Subgraph on the same vertex sets; mask preserves lexicographic order.
        return BipartiteGraph._from_sorted(self.n_left, self.n_right, self.u[keep], self.v[keep])

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


class ErasureGrid:
    """Dense boolean erasure mask of shape (n_rows, n_cols); True = erased."""

    def __init__(self, mask):
        mask = np.asarray(mask, dtype=bool)
        if mask.ndim != 2 or mask.shape[0] < 1 or mask.shape[1] < 1:
            raise ValueError(f"grid must be 2-D with positive dimensions, got shape {mask.shape}")
        mask.flags.writeable = False
        self.mask = mask
        self.n_rows, self.n_cols = mask.shape

    def __eq__(self, other):
        if not isinstance(other, ErasureGrid):
            return NotImplemented
        return np.array_equal(self.mask, other.mask)

    def __repr__(self):
        return f"ErasureGrid({self.n_rows}x{self.n_cols}, erased={int(self.mask.sum())})"


def parse_grid(text: str) -> ErasureGrid:
    """Parse the grid text format: one row per line, '.' intact, 'X' erased."""
    lines = text.splitlines()
    if not lines or all(not ln for ln in lines):
        raise ValueError("empty grid")
    width = len(lines[0])
    rows = []
    for lineno, ln in enumerate(lines, start=1):
        if len(ln) != width:
            raise ValueError(f"line {lineno}: expected {width} characters, got {len(ln)}")
        row = []
        for colno, ch in enumerate(ln, start=1):
            if ch == ".":
                row.append(False)
            elif ch == "X":
                row.append(True)
            else:
                raise ValueError(f"line {lineno}, column {colno}: illegal character {ch!r}")
        rows.append(row)
    if width == 0:
        raise ValueError("grid has zero columns")
    return ErasureGrid(np.array(rows, dtype=bool))


def write_grid(grid: ErasureGrid) -> str:
    out = []
    for row in grid.mask:
        out.append("".join("X" if c else "." for c in row))
    return "\n".join(out) + "\n"


def from_grid(grid: ErasureGrid) -> BipartiteGraph:
    """Erased cells become edges: rows map to left vertices, columns to right."""
    r, c = np.nonzero(grid.mask)
    return BipartiteGraph._from_sorted(grid.n_rows, grid.n_cols, r, c)


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
    building one.
    """
    if n_left < 1 or n_right < 1:
        raise ValueError(f"need n_left, n_right >= 1, got {n_left}, {n_right}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must lie in [0, 1], got {p}")
    if not 0 <= seed < _SEED_SPACE:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
    n_cells = n_left * n_right
    if p == 0.0:
        cells = np.empty(0, dtype=np.int64)
    elif p == 1.0:
        cells = np.arange(n_cells, dtype=np.int64)
    else:
        cells = _skip_sample(_keyed_generator(seed), n_cells, p)
    u, v = np.divmod(cells, n_right)
    return BipartiteGraph._from_sorted(n_left, n_right, u, v)


def _keyed_generator(seed: int) -> np.random.Generator:
    # Building Philox(key=seed) would also draw OS entropy for a SeedSequence
    # that a keyed generator never reads.
    gen = getattr(_local, "gen", None)
    if gen is None:
        gen = _local.gen = np.random.Generator(np.random.Philox(key=0))
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZEROS, "key": (seed, 0)},
        "buffer": _ZEROS,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen


def _skip_sample(gen, n_cells: int, p: float) -> np.ndarray:
    # Gaps between consecutive selected cells are iid geometric on {1, 2, ...};
    # drawn in vectorized batches sized to the expected remainder.
    log_q = math.log1p(-p)
    chunks = []
    pos = -1
    while True:
        remaining = n_cells - pos - 1
        if remaining <= 0:
            break
        mean = remaining * p
        batch = int(mean + 4.0 * math.sqrt(mean + 1.0)) + 16
        # floor(log1p(-x) / log_q) + 1, computed in place.
        x = gen.random(batch)
        np.negative(x, out=x)
        np.log1p(x, out=x)
        x /= log_q
        np.floor(x, out=x)
        positions = x.astype(np.int64)
        positions += 1
        np.cumsum(positions, out=positions)
        positions += pos
        # Gaps are >= 1, so positions increase strictly.
        if positions[-1] < n_cells:
            chunks.append(positions)
            pos = int(positions[-1])
        else:
            chunks.append(positions[: int(np.searchsorted(positions, n_cells))])
            break
    if not chunks:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(chunks)
