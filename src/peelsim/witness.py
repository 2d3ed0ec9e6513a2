"""Failure witnesses: layered configurations that defeat the peeling decoder.

A configuration with root v (a left vertex) consists of layers N_0..N_r,
where N_i is the set of vertices reachable from v by walks of length
exactly i inside the configuration's edge set (walks may repeat vertices,
so even layers nest: N_0 is a subset of N_2, and so on).  It witnesses
failure of r rounds at capability t when the layers cover every
configuration vertex and every vertex in N_0..N_{r-1} keeps degree >= t+1
inside the configuration.  Such a witness exists in a graph exactly when
the r-round decoder fails on it, which makes find_config an independent
oracle for the decoder.

find_config works by survival induction: every vertex survives level 0,
and a vertex survives level k when at least t+1 of its neighbors survive
level k-1.  A left vertex surviving level r is precisely a vertex the
decoder leaves uncorrected, and the survival levels give the layer
thresholds from which a valid witness is assembled.

Every search runs over one side-tagged adjacency, ("L", i) for left and
("R", j) for right vertices, so no search branches on the side.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations

from .decode import DecodeParams, decode
from .graph import BipartiteGraph, _integer

__all__ = [
    "UndecodableConfig",
    "count_exact_trees",
    "extract_config",
    "find_config",
    "find_short_cycle",
    "serialize_config",
    "verify_config",
]


@dataclass(frozen=True)
class UndecodableConfig:
    """root: left vertex index; layers: N_0..N_r as per-side index sets
    (even layers hold left indices, odd layers right indices); edges:
    (left, right) pairs of the configuration."""

    root: int
    layers: tuple[frozenset[int], ...]
    edges: frozenset[tuple[int, int]]


def verify_config(g: BipartiteGraph, cfg: UndecodableConfig, r: int, t: int) -> bool:
    """Check that cfg is a valid witness against r rounds at capability t.

    Structural defects (wrong layer count, layers not matching exact walk
    reachability, missing coverage, a thin vertex in layers 0..r-1, edges
    absent from g) return False; indices outside g's ranges raise.
    """
    r = _integer(r, 0, "r must be a non-negative integer, got {!r}")
    t = _integer(t, 0, "t must be a non-negative integer, got {!r}")
    if not 0 <= cfg.root < g.n_left:
        raise ValueError(f"root {cfg.root} out of range [0, {g.n_left})")
    for i, j in cfg.edges:
        if not 0 <= i < g.n_left:
            raise ValueError(f"edge left index {i} out of range [0, {g.n_left})")
        if not 0 <= j < g.n_right:
            raise ValueError(f"edge right index {j} out of range [0, {g.n_right})")
    for depth, layer in enumerate(cfg.layers):
        bound = g.n_left if depth % 2 == 0 else g.n_right
        for x in layer:
            if not 0 <= x < bound:
                raise ValueError(f"layer {depth} index {x} out of range [0, {bound})")

    if len(cfg.layers) != r + 1:
        return False
    for i, j in cfg.edges:
        if not g.has_edge(i, j):
            return False

    adj = _adjacency(cfg.edges)
    dist = _bfs_dist(adj, ("L", cfg.root))
    # Coverage: every configuration vertex within walk distance r of the root.
    if any(v not in dist or dist[v] > r for v in adj):
        return False
    # Layers must be the exact walk-reachability sets.
    if tuple(cfg.layers) != _layers(dist, r):
        return False
    # Degree floor everywhere except the deepest layer.
    return all(d >= r or len(adj.get(v, ())) > t for v, d in dist.items())


def _adjacency(edges):
    """Side-tagged adjacency of (left, right) edges; only vertices with an
    edge appear as keys."""
    adj: dict[tuple[str, int], set[tuple[str, int]]] = {}
    for i, j in edges:
        adj.setdefault(("L", i), set()).add(("R", j))
        adj.setdefault(("R", j), set()).add(("L", i))
    return adj


def _edge(x, y):
    # Two tagged endpoints of one edge, as its (left, right) pair.
    return (x[1], y[1]) if x[0] == "L" else (y[1], x[1])


def _layers(dist, r):
    # N_depth holds every vertex at distance d <= depth with depth - d even.
    # From a left root the parity of d already fixes the side.
    return tuple(
        frozenset(x for (_, x), d in dist.items() if d <= depth and (depth - d) % 2 == 0)
        for depth in range(r + 1)
    )


def _bfs_dist(adj, root):
    dist = {root: 0}
    q = deque([root])
    while q:
        x = q.popleft()
        for y in adj.get(x, ()):
            if y not in dist:
                dist[y] = dist[x] + 1
                q.append(y)
    return dist


def _survival_sets(adj, r: int, t: int):
    """Survival levels 0..r as tagged vertex sets.

    Level 0 is every vertex; a vertex survives level k when >= t+1 of its
    neighbors survive level k-1.  Levels shrink as k grows."""
    alive = set(adj)
    levels = [None]  # level 0 is implicit: everything survives
    for _ in range(r):
        alive = {x for x, nbrs in adj.items() if len(nbrs & alive) > t}
        levels.append(alive)
    return levels


def find_config(g: BipartiteGraph, r: int, t: int) -> UndecodableConfig | None:
    """Search g for a witness against r rounds at capability t.

    Returns a verified witness rooted at the smallest surviving left vertex,
    or None when no witness exists (equivalently, when the decoder
    succeeds).  Exhaustive by survival induction; meant for small graphs.
    """
    r = _integer(r, 1, "r must be an integer >= 1, got {!r}")
    t = _integer(t, 0, "t must be a non-negative integer, got {!r}")
    adj = _adjacency(g.edges())
    levels = _survival_sets(adj, r, t)
    roots = [x for x in levels[r] if x[0] == "L"]
    return _build_config(adj, min(roots), r, levels) if roots else None


def _build_config(adj, root, r, levels) -> UndecodableConfig:
    # Attach each vertex's edges once, on first reach at depth d: all
    # neighbors surviving level r-d-1 join the next layer.  Filtering by the
    # first-reach depth (the deepest applicable threshold) keeps every
    # shallow vertex thick enough; re-attaching at later nested appearances
    # would leak thin vertices into shallow layers.
    dist = {root: 0}
    edges = set()
    q = deque([root])
    while q:
        x = q.popleft()
        d = dist[x]
        if d >= r:
            continue
        allowed = levels[r - d - 1]
        for y in adj.get(x, ()):
            if allowed is not None and y not in allowed:
                continue
            edges.add(_edge(x, y))
            if y not in dist:
                dist[y] = d + 1
                q.append(y)
    return UndecodableConfig(root[1], _layers(dist, r), frozenset(edges))


def extract_config(g: BipartiteGraph, params: DecodeParams) -> UndecodableConfig | None:
    """Decode g; on failure, extract a verified witness from the residual.

    The root is the smallest left vertex still holding edges after the last
    round.  Returns None on decoding success.
    """
    outcome = decode(g, params)
    if outcome.success:
        return None
    # With no rounds every nonempty pattern fails, and the witness is the
    # bare root: _build_config attaches no edges at r = 0.
    root = ("L", int(outcome.residual.u.min()))
    adj = _adjacency(g.edges())
    cfg = _build_config(adj, root, params.rounds, _survival_sets(adj, params.rounds, params.t))
    if not verify_config(g, cfg, params.rounds, params.t):
        raise RuntimeError("extracted configuration failed verification; this is a bug")
    return cfg


def count_exact_trees(g: BipartiteGraph, r: int, t: int) -> int:
    """Count placements of the exact (r, t)-tree in g.

    A placement is a subgraph of g isomorphic to the exact tree with the
    layer structure intact (root on the left, sides preserved); each
    placement is counted once, i.e. embeddings that differ only by a tree
    automorphism are identified.  Exhaustive; meant for small graphs.

    Only left vertices with more than t neighbors are tried as roots: the
    root of a placement has t+1 children, so any other root adds 0.  The
    count does not depend on the order in which candidates are tried, since
    children are chosen as unordered sets.
    """
    r = _integer(r, 1, "r must be an integer >= 1, got {!r}")
    t = _integer(t, 1, "t must be an integer >= 1, got {!r}")
    adj = _adjacency(g.edges())
    return sum(
        _count_placements(deque([(x, 0)]), adj, {x}, r, t)
        for x, nbrs in adj.items()
        if x[0] == "L" and len(nbrs) > t
    )


def _count_placements(pending, adj, used, r, t):
    # Children are chosen as unordered sets at each node, so every distinct
    # image subgraph is produced by exactly one choice sequence.
    if not pending:
        return 1
    x, depth = pending.popleft()
    cands = [y for y in adj.get(x, ()) if y not in used]
    count = 0
    for combo in combinations(cands, t + 1 if depth == 0 else t):
        used.update(combo)
        if depth + 1 < r:
            pending.extend((y, depth + 1) for y in combo)
        count += _count_placements(pending, adj, used, r, t)
        if depth + 1 < r:
            for _ in combo:
                pending.pop()
        used.difference_update(combo)
    pending.appendleft((x, depth))
    return count


def find_short_cycle(g: BipartiteGraph, max_len: int):
    """Return some simple cycle of length <= max_len as a tuple of (left,
    right) edges in traversal order, or None if none exists.

    max_len must be even and >= 4 (bipartite cycles have even length).
    Breadth-first search from each left vertex in ascending order, stopping
    at depth max_len // 2.  Only left vertices of components that hold a
    cycle are searched, and a forest returns None without building the
    adjacency: a search from a tree component never meets a non-tree edge,
    so skipping it changes neither whether a cycle is found nor which.
    """
    message = "max_len must be an even integer >= 4, got {!r}"
    max_len = _integer(max_len, 4, message)
    if max_len % 2:
        raise ValueError(message.format(max_len))
    starts = _cyclic_left_vertices(g)
    if not starts:
        return None
    adj = _adjacency(g.edges())
    depth_cap = max_len // 2 - 1
    for start in starts:
        cycle = _bfs_cycle(adj, ("L", start), depth_cap)
        if cycle is not None and len(cycle) <= max_len:
            return cycle
    return None


def _cyclic_left_vertices(g):
    # Union-find over g's edges, keyed by vertex id (left i is i, right j is
    # n_left + j) in a dict, so it costs O(edges) and no n-length array.  An
    # edge whose ends are already joined closes a cycle in their component.
    # A vertex missing from parent is a root.
    parent: dict[int, int] = {}

    def find(x):
        up = parent.get(x, x)
        while up != x:
            top = parent.get(up, up)
            parent[x] = top  # path halving
            x, up = top, parent.get(top, top)
        return x

    closers = []
    for i, j in zip(g.u.tolist(), (g.v + g.n_left).tolist()):
        a, b = find(i), find(j)
        if a == b:
            closers.append(a)
        else:
            parent[a] = b
    if not closers:
        return []
    cyclic = {find(x) for x in closers}
    return sorted(x for x in set(g.u.tolist()) if find(x) in cyclic)


def _bfs_cycle(adj, root, depth_cap):
    dist = {root: 0}
    parent = {root: None}
    q = deque([root])
    while q:
        x = q.popleft()
        if dist[x] > depth_cap:
            continue
        for y in sorted(adj[x]):
            if y not in dist:
                dist[y] = dist[x] + 1
                parent[y] = x
                q.append(y)
            elif parent[x] != y and parent.get(y) != x:
                # Non-tree edge (x, y): climb both parent chains to the fork.
                return _close_cycle(parent, dist, x, y)
    return None


def _close_cycle(parent, dist, x, y):
    px, py = [x], [y]
    a, b = x, y
    while dist[a] > dist[b]:
        a = parent[a]
        px.append(a)
    while dist[b] > dist[a]:
        b = parent[b]
        py.append(b)
    while a != b:
        a = parent[a]
        b = parent[b]
        px.append(a)
        py.append(b)
    # px ends at the fork; py likewise.  Cycle: fork -> ... -> x -> y -> ... -> fork.
    seq = px[::-1] + py[:-1]
    return tuple(_edge(a, b) for a, b in zip(seq, seq[1:] + seq[:1]))


def serialize_config(cfg: UndecodableConfig, n_left: int, n_right: int) -> str:
    """Line-oriented witness format.

    Header: 'root <v>', 'layers <count>', then one 'layer <i> <indices...>'
    line per layer (indices ascending).  Body: the canonical edge-list
    format over the host dimensions, covering the configuration's edges.
    """
    lines = [f"root {cfg.root}", f"layers {len(cfg.layers)}"]
    for depth, layer in enumerate(cfg.layers):
        idx = " ".join(str(x) for x in sorted(layer))
        lines.append(f"layer {depth} {idx}".rstrip())
    edges = sorted(cfg.edges)
    lines.append(f"{n_left} {n_right} {len(edges)}")
    lines.extend(f"{i} {j}" for i, j in edges)
    return "\n".join(lines) + "\n"
