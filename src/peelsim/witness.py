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
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations

from .decode import DecodeParams, decode
from .graph import BipartiteGraph

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
    if r < 0 or t < 0:
        raise ValueError("r and t must be non-negative")
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

    adj: dict[tuple[str, int], set[tuple[str, int]]] = {}
    for i, j in cfg.edges:
        adj.setdefault(("L", i), set()).add(("R", j))
        adj.setdefault(("R", j), set()).add(("L", i))
    verts = set(adj)
    verts.add(("L", cfg.root))

    dist = _bfs_dist(adj, ("L", cfg.root))
    # Coverage: every configuration vertex within walk distance r of the root.
    if any(v not in dist or dist[v] > r for v in verts):
        return False
    # Layers must be the exact walk-reachability sets.
    for depth in range(r + 1):
        side = "L" if depth % 2 == 0 else "R"
        expect = {x for (s, x), d in dist.items() if s == side and d <= depth and (depth - d) % 2 == 0}
        if cfg.layers[depth] != expect:
            return False
    # Degree floor everywhere except the deepest layer.
    for v, d in dist.items():
        if d <= r - 1 and len(adj.get(v, ())) < t + 1:
            return False
    return True


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


def _survival_sets(adj_l, adj_r, r: int, t: int):
    """Survival levels 0..r as (left-set, right-set) pairs.

    Level 0 is every vertex; a vertex survives level k when >= t+1 of its
    neighbors survive level k-1.  Levels shrink as k grows."""
    need = t + 1
    cur_l = set(adj_l)
    cur_r = set(adj_r)
    levels = [(None, None)]  # level 0 is implicit: everything survives
    for _ in range(r):
        nxt_l = {x for x, nbrs in adj_l.items() if _count_in(nbrs, cur_r, need)}
        nxt_r = {y for y, nbrs in adj_r.items() if _count_in(nbrs, cur_l, need)}
        levels.append((nxt_l, nxt_r))
        cur_l, cur_r = nxt_l, nxt_r
    return levels


def _count_in(nbrs, allowed, need):
    # level 1 counts raw degree (allowed is the full side)
    hits = 0
    for x in nbrs:
        if x in allowed:
            hits += 1
            if hits >= need:
                return True
    return False


def find_config(g: BipartiteGraph, r: int, t: int) -> UndecodableConfig | None:
    """Search g for a witness against r rounds at capability t.

    Returns a verified witness rooted at the smallest surviving left vertex,
    or None when no witness exists (equivalently, when the decoder
    succeeds).  Exhaustive by survival induction; meant for small graphs.
    """
    if not isinstance(r, int) or r < 1:
        raise ValueError(f"r must be an integer >= 1, got {r!r}")
    if not isinstance(t, int) or t < 0:
        raise ValueError(f"t must be a non-negative integer, got {t!r}")
    adj_l, adj_r = g.adjacency_sets()
    levels = _survival_sets(adj_l, adj_r, r, t)
    top_left = levels[r][0]
    if not top_left:
        return None
    return _build_config(g, adj_l, adj_r, min(top_left), r, levels)


def _build_config(g, adj_l, adj_r, root, r, levels) -> UndecodableConfig:
    # Attach each vertex's edges once, on first reach at depth d: all
    # neighbors surviving level r-d-1 join the next layer.  Filtering by the
    # first-reach depth (the deepest applicable threshold) keeps every
    # shallow vertex thick enough; re-attaching at later nested appearances
    # would leak thin vertices into shallow layers.
    dist = {("L", root): 0}
    edges = set()
    q = deque([("L", root)])
    while q:
        side, x = q.popleft()
        d = dist[(side, x)]
        if d >= r:
            continue
        level = r - d - 1
        if side == "L":
            nbrs = adj_l.get(x, ())
            allowed = levels[level][1] if level >= 1 else None
        else:
            nbrs = adj_r.get(x, ())
            allowed = levels[level][0] if level >= 1 else None
        for y in nbrs:
            if allowed is not None and y not in allowed:
                continue
            edges.add((x, y) if side == "L" else (y, x))
            key = ("R" if side == "L" else "L", y)
            if key not in dist:
                dist[key] = d + 1
                q.append(key)
    layers = []
    for depth in range(r + 1):
        side = "L" if depth % 2 == 0 else "R"
        layers.append(frozenset(
            x for (s, x), d in dist.items() if s == side and d <= depth and (depth - d) % 2 == 0
        ))
    return UndecodableConfig(root, tuple(layers), frozenset(edges))


def extract_config(g: BipartiteGraph, params: DecodeParams) -> UndecodableConfig | None:
    """Decode g; on failure, extract a verified witness from the residual.

    The root is the smallest left vertex still holding edges after the last
    round.  Returns None on decoding success.
    """
    outcome = decode(g, params)
    if outcome.success:
        return None
    root = int(outcome.residual.u.min())
    if params.rounds == 0:
        # Degenerate witness: with no rounds, any nonempty pattern fails and
        # the bare root already satisfies the (0, t) conditions.
        return UndecodableConfig(root, (frozenset([root]),), frozenset())
    adj_l, adj_r = g.adjacency_sets()
    levels = _survival_sets(adj_l, adj_r, params.rounds, params.t)
    cfg = _build_config(g, adj_l, adj_r, root, params.rounds, levels)
    if not verify_config(g, cfg, params.rounds, params.t):
        raise RuntimeError("extracted configuration failed verification; this is a bug")
    return cfg


def count_exact_trees(g: BipartiteGraph, r: int, t: int) -> int:
    """Count placements of the exact (r, t)-tree in g.

    A placement is a subgraph of g isomorphic to the exact tree with the
    layer structure intact (root on the left, sides preserved); each
    placement is counted once, i.e. embeddings that differ only by a tree
    automorphism are identified.  Exhaustive; meant for small graphs.
    """
    if not isinstance(r, int) or r < 1:
        raise ValueError(f"r must be an integer >= 1, got {r!r}")
    if not isinstance(t, int) or t < 1:
        raise ValueError(f"t must be an integer >= 1, got {t!r}")
    adj_l, adj_r = g.adjacency_sets()
    sorted_l = {x: sorted(nbrs) for x, nbrs in adj_l.items()}
    sorted_r = {y: sorted(nbrs) for y, nbrs in adj_r.items()}
    total = 0
    for root in sorted(adj_l):
        used_l = {root}
        total += _count_placements(
            deque([("L", root, 0)]), sorted_l, sorted_r, used_l, set(), r, t
        )
    return total


def _count_placements(pending, sorted_l, sorted_r, used_l, used_r, r, t):
    # Children are chosen as unordered sets at each node, so every distinct
    # image subgraph is produced by exactly one choice sequence.
    if not pending:
        return 1
    side, x, depth = pending.popleft()
    need = t + 1 if depth == 0 else t
    if side == "L":
        nbrs, used_other = sorted_l.get(x, ()), used_r
    else:
        nbrs, used_other = sorted_r.get(x, ()), used_l
    cands = [y for y in nbrs if y not in used_other]
    count = 0
    if len(cands) >= need:
        child_side = "R" if side == "L" else "L"
        for combo in combinations(cands, need):
            used_other.update(combo)
            if depth + 1 < r:
                pending.extend((child_side, y, depth + 1) for y in combo)
            count += _count_placements(pending, sorted_l, sorted_r, used_l, used_r, r, t)
            if depth + 1 < r:
                for _ in combo:
                    pending.pop()
            used_other.difference_update(combo)
    pending.appendleft((side, x, depth))
    return count


def find_short_cycle(g: BipartiteGraph, max_len: int):
    """Return some simple cycle of length <= max_len as a tuple of (left,
    right) edges in traversal order, or None if none exists.

    max_len must be even and >= 4 (bipartite cycles have even length).
    Breadth-first search from each left vertex, stopping at depth
    max_len // 2.
    """
    if not isinstance(max_len, int) or max_len < 4 or max_len % 2 != 0:
        raise ValueError(f"max_len must be an even integer >= 4, got {max_len!r}")
    adj_l, adj_r = g.adjacency_sets()
    adj = {("L", x): {("R", y) for y in nbrs} for x, nbrs in adj_l.items()}
    adj.update({("R", y): {("L", x) for x in nbrs} for y, nbrs in adj_r.items()})
    depth_cap = max_len // 2 - 1
    for start in sorted(adj_l):
        cycle = _bfs_cycle(adj, ("L", start), depth_cap)
        if cycle is not None and len(cycle) <= max_len:
            return cycle
    return None


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
    edges = []
    for k in range(len(seq)):
        s1, i1 = seq[k]
        s2, i2 = seq[(k + 1) % len(seq)]
        edges.append((i1, i2) if s1 == "L" else (i2, i1))
    return tuple(edges)


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
