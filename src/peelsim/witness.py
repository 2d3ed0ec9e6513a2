"""Failure witnesses: levelled certificates that defeat the peeling decoder.

A certificate with root v (a left vertex) against r rounds at capability t
is a set H of edges of the graph together with a level for each of its
vertices, with v at level r.  It is valid when every vertex of level k >= 1
has at least t+1 neighbors in H of level >= k-1.  By induction on k such a
vertex survives level k in H, the root survives level r, and so the
decoder fails on H and therefore on the whole graph.  The check is local:
it needs neither the decoder nor any search.

The survival levels are the decoder's computation-tree induction: every
vertex with an edge survives level 0, and a vertex survives level k when
at least t+1 of its neighbors survive level k-1.  A left vertex surviving
level r is exactly a row the decoder leaves with edges after r rounds, so
a certificate exists exactly when the r-round decoder fails, which makes
find_config an independent oracle for the decoder.  Certificates are
built from these levels alone, by one construction (_certificate) for
find_config and extract_config alike; no search runs the decoder.

Every search runs over one adjacency on plain integer vertex ids: left
vertex i is i and right vertex j is n_left + j, an exact Python int at any
graph size, so a vertex is on the left exactly when its id is below
n_left.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations

from .decode import DecodeParams
from .graph import BipartiteGraph, _integer, serialize_graph

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
    """A levelled certificate.  root: left vertex index; layers: layers[d]
    holds the vertices of level r - d, each vertex in exactly one layer
    (even layers hold left indices, odd layers right indices); edges:
    (left, right) pairs of the certificate."""

    root: int
    layers: tuple[frozenset[int], ...]
    edges: frozenset[tuple[int, int]]


def verify_config(g: BipartiteGraph, cfg: UndecodableConfig, r: int, t: int) -> bool:
    """Check that cfg is a valid certificate against r rounds at capability t.

    Valid means: r + 1 layers with layers[0] == {root}, no vertex in two
    layers, both ends of every edge in some layer, every edge in g, and
    every vertex of level k >= 1 (layer r - k) with more than t
    certificate neighbors of level >= k - 1.  Anything else returns False;
    indices outside g's ranges raise.  Each edge of cfg is looked up in g
    by binary search, so it costs O(|H| log |E|) for H the edges of cfg
    and E those of g.
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

    if len(cfg.layers) != r + 1 or cfg.layers[0] != {cfg.root}:
        return False
    n_left = g.n_left
    level = {x + (n_left if depth % 2 else 0): r - depth
             for depth, layer in enumerate(cfg.layers) for x in layer}
    if len(level) != sum(map(len, cfg.layers)):
        return False  # some vertex sits in two layers
    for i, j in cfg.edges:
        if i not in level or j + n_left not in level or not g.has_edge(i, j):
            return False
    adj = _adjacency(cfg.edges, n_left)
    return all(sum(level[y] >= k - 1 for y in adj.get(x, ())) > t
               for x, k in level.items() if k)


def _adjacency(edges, n_left):
    """Neighbor lists of (left, right) edges over vertex ids (left i is i,
    right j is n_left + j); only vertices with an edge appear as keys.
    Each list keeps the order of edges, so g.edges(), sorted by (left,
    right), gives every list in ascending order."""
    adj: dict[int, list[int]] = {}
    for i, j in edges:
        j += n_left
        if i in adj:
            adj[i].append(j)
        else:
            adj[i] = [j]
        if j in adj:
            adj[j].append(i)
        else:
            adj[j] = [i]
    return adj


def _edge(x, y, n_left):
    # The ids of one edge's two endpoints, as its (left, right) pair.
    return (x, y - n_left) if x < n_left else (y, x - n_left)


def _survival_sets(adj, r: int, t: int):
    """Survival levels 0..r as vertex id sets, up to their fixpoint.

    Level 0 is every vertex with an edge (adj's own keys); a vertex
    survives level k when >= t+1 of its neighbors survive level k-1.
    Levels shrink as k grows, so level 1 is read off the degrees, and a
    vertex can leave level k+1 only if a neighbor left level k: each later
    level rechecks just the neighbors of the vertices that left the level
    before (level 2 rechecks all of level 1).  Once no vertex leaves, every
    deeper level is the same and the list stops, so level k is
    levels[min(k, len(levels) - 1)], and a huge r costs no more than the
    levels up to the fixpoint."""
    levels = [adj.keys()]
    if not r:
        return levels
    alive = {x for x, nbrs in adj.items() if len(nbrs) > t}
    gone = None
    while len(alive) < len(levels[-1]):
        levels.append(alive)
        if len(levels) > r:
            break
        recheck = alive if gone is None else {y for x in gone for y in adj[x] if y in alive}
        gone = {x for x in recheck if len(alive.intersection(adj[x])) <= t}
        alive = alive - gone
    return levels


def find_config(g: BipartiteGraph, r: int, t: int) -> UndecodableConfig | None:
    """Search g for a certificate against r rounds at capability t.

    Returns a valid certificate rooted at the smallest left vertex that
    survives level r, or None when there is none (equivalently, when the
    decoder succeeds).  Exhaustive by survival induction; meant for small
    graphs.
    """
    r = _integer(r, 1, "r must be an integer >= 1, got {!r}")
    t = _integer(t, 0, "t must be a non-negative integer, got {!r}")
    return _certificate(g, r, t)


def extract_config(g: BipartiteGraph, params: DecodeParams) -> UndecodableConfig | None:
    """The certificate of a failed decoding run, or None on success.

    The root is the decoder's smallest residual row after params.rounds
    rounds, found without decoding: the rows left with edges after round r
    are exactly the left vertices that survive level r.  The certificate is
    find_config's, extended to r = 0, where every nonempty pattern fails
    and the certificate is the bare smallest row with an edge.
    """
    return _certificate(g, params.rounds, params.t)


def _certificate(g, r, t):
    # The root, the smallest left survivor of level r, is needed at level
    # r.  Going down from k = r, each vertex needed at level k takes t+1 of
    # its neighbors that survive level k-1: first those already needed,
    # then the rest in ascending id order.  A taken edge joins H, and a
    # neighbor not yet needed is needed at k-1.  Every needed vertex
    # survives its level, so it has the t+1 neighbors, and one needed
    # earlier sits at a level >= k-1; a vertex's level is thus fixed when
    # it is first needed, and the vertices first needed from level k are
    # exactly level k-1, all on one side.
    n_left = g.n_left
    adj = _adjacency(g.edges(), n_left)
    levels = _survival_sets(adj, r, t)
    top = len(levels) - 1
    root = min((x for x in levels[min(r, top)] if x < n_left), default=None)
    if root is None:
        return None
    needed = {root}
    layers = [[root]]
    edges = set()
    for k in range(r, 0, -1):
        allowed = levels[min(k - 1, top)]
        nxt = []
        for x in layers[-1]:
            nbrs = adj[x]
            taken = [y for y in nbrs if y in needed]
            taken += [y for y in nbrs if y not in needed and y in allowed]
            for y in taken[:t + 1]:
                edges.add(_edge(x, y, n_left))
                if y not in needed:
                    needed.add(y)
                    nxt.append(y)
        layers.append(nxt)
    return UndecodableConfig(
        root,
        tuple(frozenset(x - n_left if depth % 2 else x for x in layer)
              for depth, layer in enumerate(layers)),
        frozenset(edges),
    )


def count_exact_trees(g: BipartiteGraph, r: int, t: int) -> int:
    """Count placements of the exact (r, t)-tree in g.

    A placement is a subgraph of g isomorphic to the exact tree with the
    layer structure intact (root on the left, sides preserved); each
    placement is counted once, i.e. embeddings that differ only by a tree
    automorphism are identified.  Exhaustive; meant for small graphs.

    Only left vertices that survive level r are tried as roots, and only
    vertices that survive level r - d - 1 as children of a vertex at depth
    d.  In a placement every vertex of depth at most r - k survives level
    k (by induction on k: its t+1 tree neighbors have depth at most
    r - k + 1), so it does in g too, and a pruned choice never completes.
    The count does not depend on the order in which candidates are tried,
    since children are chosen as unordered sets.
    """
    r = _integer(r, 1, "r must be an integer >= 1, got {!r}")
    t = _integer(t, 1, "t must be an integer >= 1, got {!r}")
    n_left = g.n_left
    adj = _adjacency(g.edges(), n_left)
    levels = _survival_sets(adj, r, t)
    roots = levels[min(r, len(levels) - 1)]
    return sum(_count_placements(x, adj, levels, r, t) for x in roots if x < n_left)


def _count_placements(root, adj, levels, r, t):
    # Children are chosen as unordered sets at each node, so every distinct
    # image subgraph is produced by exactly one choice sequence.  A child
    # at depth d + 1 must survive level r - d - 1 (see count_exact_trees;
    # levels past the list's end equal its last), so a leaf may be any
    # neighbor.  The choices are a depth-first walk kept on an explicit
    # stack, one frame per placed inner vertex [x, depth, its remaining
    # child sets, the set taken now], so deep trees need no Python
    # recursion.  pending holds the placed vertices whose children are not
    # yet chosen, in breadth-first order.
    top = len(levels)
    deepest = levels[-1]
    pending = deque([(root, 0)])
    used = {root}
    frames = []
    count = 0
    while True:
        if pending:
            x, depth = pending.popleft()
            need = r - depth - 1
            allowed = levels[need] if need < top else deepest
            cands = [y for y in adj[x] if y not in used and y in allowed]
            frames.append([x, depth, combinations(cands, t + 1 if depth == 0 else t), None])
        else:
            count += 1
        # Move the deepest frame to its next child set, undoing the set it
        # took last; a frame with none left gives its vertex back to pending.
        while frames:
            frame = frames[-1]
            x, depth, combos, combo = frame
            grows = depth + 1 < r
            if combo is not None:
                used.difference_update(combo)
                if grows:
                    for _ in combo:
                        pending.pop()
            frame[3] = combo = next(combos, None)
            if combo is not None:
                used.update(combo)
                if grows:
                    pending.extend((y, depth + 1) for y in combo)
                break
            frames.pop()
            pending.appendleft((x, depth))
        if not frames:
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
    adj = _adjacency(g.edges(), g.n_left)
    depth_cap = max_len // 2 - 1
    for start in starts:
        cycle = _bfs_cycle(adj, start, depth_cap, g.n_left)
        if cycle is not None:
            return cycle
    return None


def _cyclic_left_vertices(g):
    # Union-find over g's edges, keyed by vertex id in a dict, so it costs
    # O(edges) and no n-length array.  An edge whose ends are already joined
    # closes a cycle in their component.  A vertex missing from parent is a
    # root.
    parent: dict[int, int] = {}

    def find(x):
        up = parent.get(x, x)
        while up != x:
            top = parent.get(up, up)
            parent[x] = top  # path halving
            x, up = top, parent.get(top, top)
        return x

    closers = []
    n_left = g.n_left
    for i, j in g.edges():
        j += n_left
        # Most ends are still roots, found without the call.
        a = find(i) if i in parent else i
        b = find(j) if j in parent else j
        if a == b:
            closers.append(a)
        else:
            parent[a] = b
    if not closers:
        return []
    cyclic = {find(x) for x in closers}
    return sorted(x for x in set(g.u.tolist()) if find(x) in cyclic)


def _bfs_cycle(adj, root, depth_cap, n_left):
    # Neighbors are visited in ascending id order (see _adjacency), which
    # fixes the cycle returned.
    dist = {root: 0}
    parent = {root: None}
    q = deque([root])
    while q:
        x = q.popleft()
        if dist[x] > depth_cap:
            continue
        for y in adj[x]:
            if y not in dist:
                dist[y] = dist[x] + 1
                parent[y] = x
                q.append(y)
            elif parent[x] != y and parent.get(y) != x:
                # Non-tree edge (x, y): climb both parent chains to the fork.
                return _close_cycle(parent, x, y, n_left)
    return None


def _close_cycle(parent, x, y, n_left):
    # In a bipartite graph the first non-tree edge (x, y) that the search
    # meets has dist[y] = dist[x] + 1: an edge to the level above x would
    # have been met from that side first.  So y's chain is one step longer,
    # and the cycle has at most 2 * dist[x] + 2 <= max_len edges.
    a, b = x, parent[y]
    px, py = [a], [y, b]
    while a != b:
        a = parent[a]
        b = parent[b]
        px.append(a)
        py.append(b)
    # px ends at the fork; py likewise.  Cycle: fork -> ... -> x -> y -> ... -> fork.
    seq = px[::-1] + py[:-1]
    return tuple(_edge(a, b, n_left) for a, b in zip(seq, seq[1:] + seq[:1]))


def serialize_config(cfg: UndecodableConfig, n_left: int, n_right: int) -> str:
    """Line-oriented witness format.

    Header: 'root <v>', 'layers <count>', then one 'layer <i> <indices...>'
    line per layer (indices ascending).  Body: serialize_graph of the
    configuration's edges over the host dimensions, so an edge outside
    them raises ValueError.
    """
    lines = [f"root {cfg.root}", f"layers {len(cfg.layers)}"]
    for depth, layer in enumerate(cfg.layers):
        idx = " ".join(str(x) for x in sorted(layer))
        lines.append(f"layer {depth} {idx}".rstrip())
    return "\n".join(lines) + "\n" + serialize_graph(BipartiteGraph(n_left, n_right, cfg.edges))
