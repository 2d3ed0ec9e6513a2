"""Reference implementations used as oracles by the test suite.

Everything here is deliberately naive and independent of the package's own
algorithms: per-cell Bernoulli sampling instead of skip sampling, a
degree-recomputing peeler instead of the decode engine, permutation and
canonical-form counting instead of closed formulas, and edge-subset
enumeration instead of backtracking search.
"""

from __future__ import annotations

import math
import os
import resource
from collections import deque
from itertools import combinations, permutations
from math import comb, factorial

import numpy as np

from peelsim import BipartiteGraph


def ref_sample_mask(n_left, n_right, p, rng):
    """Per-cell Bernoulli erasure mask; the textbook sampler."""
    return rng.random((n_left, n_right)) < p


def exact_success_one_round(n, p, t):
    """Exact P[one row round decodes G(n, n, p)] at capability t.

    One row round succeeds exactly when every row holds at most t erasures;
    the n row degrees are independent Bin(n, p), so the probability is
    P[Bin(n, p) <= t] ** n.
    """
    row_ok = sum(comb(n, k) * p**k * (1.0 - p) ** (n - k) for k in range(t + 1))
    return row_ok**n


def exact_four_by_four(r, t, p):
    """Exact (P[success], E[residual edges], Var[residual edges]) of r
    rounds on G(4, 4, p), by peeling all 2^16 patterns in one dense batch.

    Round i decodes rows when r - i is even, against the degrees at the
    start of the round.  A pattern with m erasures has probability
    p^m (1 - p)^(16 - m), so success is the polynomial sum_m S_m p^m
    (1 - p)^(16 - m), where S_m counts the m-erasure patterns that decode.
    """
    cells = 16
    live = (np.arange(2**cells)[:, None] >> np.arange(cells)) & 1 == 1
    live = live.reshape(-1, 4, 4)
    m = live.sum(axis=(1, 2))
    for i in range(1, r + 1):
        # A row's degree sums over columns (axis 2), a column's over rows.
        deg = live.sum(axis=2 if (r - i) % 2 == 0 else 1, keepdims=True)
        live &= deg > t
    residual = live.sum(axis=(1, 2))
    weight = np.array([p**k * (1.0 - p) ** (cells - k) for k in range(cells + 1)])
    success = np.bincount(m[residual == 0], minlength=cells + 1) @ weight
    mean = np.bincount(m, weights=residual, minlength=cells + 1) @ weight
    square = np.bincount(m, weights=residual**2, minlength=cells + 1) @ weight
    return float(success), float(mean), float(square - mean**2)


def mask_to_graph(mask) -> BipartiteGraph:
    edges = [(int(i), int(j)) for i, j in np.argwhere(mask)]
    return BipartiteGraph(mask.shape[0], mask.shape[1], edges)


def ref_decode(g: BipartiteGraph, rounds: int, t: int, sequential: bool = False):
    """Independent peeler over a plain edge set.

    Returns (success, residual_edges frozenset, cleared_per_round, removed_per_round).
    Snapshot mode decides the cleared set from degrees at the start of the
    round; sequential mode sweeps the active side in ascending order with
    live degrees.  Both must produce the same outcome.
    """
    edges = set(g.edges())
    cleared_rounds = []
    removed_rounds = []
    for i in range(1, rounds + 1):
        row_side = (rounds - i) % 2 == 0
        end = 0 if row_side else 1
        vertex_span = g.n_left if row_side else g.n_right
        cleared = []
        removed = 0
        if sequential:
            for x in range(vertex_span):
                mine = {e for e in edges if e[end] == x}
                if 0 < len(mine) <= t:
                    cleared.append(x)
                    removed += len(mine)
                    edges -= mine
        else:
            deg = {}
            for e in edges:
                deg[e[end]] = deg.get(e[end], 0) + 1
            doomed = {x for x, d in deg.items() if d <= t}
            cleared = sorted(doomed)
            victims = {e for e in edges if e[end] in doomed}
            removed = len(victims)
            edges -= victims
        cleared_rounds.append(tuple(cleared))
        removed_rounds.append(removed)
    return not edges, frozenset(edges), cleared_rounds, removed_rounds


def ref_fixpoint_stop(edge_count: int, removed) -> int:
    """How many rounds of a run that removes removed[k - 1] edges in round k
    come before a fixpoint: the graph is empty, or the last two rounds
    removed nothing.  At most len(removed)."""
    live, stop = edge_count, 0
    while stop < len(removed) and live and not (stop >= 2 and removed[stop - 2] == removed[stop - 1] == 0):
        live -= removed[stop]
        stop += 1
    return stop


def graph_adjacency(g: BipartiteGraph):
    """Side-tagged adjacency over ('L', i) / ('R', j) node keys."""
    adj = {}
    for i, j in g.edges():
        adj.setdefault(("L", i), set()).add(("R", j))
        adj.setdefault(("R", j), set()).add(("L", i))
    return adj


def girth(g: BipartiteGraph):
    """Length of a shortest cycle of g, or math.inf when g is a forest.

    Breadth-first search from every vertex: a non-tree edge (x, y) met from
    root s closes a walk of length dist[x] + dist[y] + 1 through s, which
    holds a cycle no longer than that, and from a root on a shortest cycle
    the shortest such walk is that cycle.
    """
    adj = graph_adjacency(g)
    best = math.inf
    for root in adj:
        dist = {root: 0}
        parent = {root: None}
        q = deque([root])
        while q:
            x = q.popleft()
            for y in adj[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    parent[y] = x
                    q.append(y)
                elif parent[x] != y:
                    best = min(best, dist[x] + dist[y] + 1)
    return best


def ahu_automorphisms(g: BipartiteGraph, root=("L", 0)) -> int:
    """Automorphisms of a tree fixing the given root.

    Canonical-form recursion: identical child subtrees can be permuted, so
    the count is the product over nodes of (multiplicity factorials) times
    the child counts.  Independent of any closed formula.
    """
    adj = graph_adjacency(g)

    def canon(node, parent):
        shapes = []
        count = 1
        for child in adj.get(node, ()):
            if child == parent:
                continue
            shape, c = canon(child, node)
            shapes.append(shape)
            count *= c
        shapes.sort()
        run = 1
        for k in range(1, len(shapes) + 1):
            if k < len(shapes) and shapes[k] == shapes[k - 1]:
                run += 1
            else:
                count *= factorial(run)
                run = 1
        return tuple(shapes), count

    return canon(root, None)[1]


def literal_automorphisms(g: BipartiteGraph) -> int:
    """Brute-force count of side-preserving automorphisms.

    Only viable when n_left! * n_right! is small; guarded accordingly.
    """
    assert factorial(g.n_left) * factorial(g.n_right) <= 10**6
    edges = frozenset(g.edges())
    count = 0
    for perm_l in permutations(range(g.n_left)):
        for perm_r in permutations(range(g.n_right)):
            if all((perm_l[i], perm_r[j]) in edges for i, j in edges):
                count += 1
    return count


def exact_tree_level_sizes(r, t):
    return [1] + [(t + 1) * t ** (i - 1) for i in range(1, r + 1)]


def naive_tree_count(g: BipartiteGraph, r: int, t: int) -> int:
    """Count exact-tree image subgraphs by enumerating edge subsets.

    A subset qualifies when it is a tree whose BFS layering from some left
    root has the exact degree profile: root degree t+1, internal degree t+1,
    leaves exactly at depth r.  The root of a qualifying subset is unique
    (it is the tree's center), so each image is counted once.
    """
    e_tree = sum(exact_tree_level_sizes(r, t)[1:])
    all_edges = list(g.edges())
    assert comb(len(all_edges), e_tree) <= 500_000
    total = 0
    for subset in combinations(all_edges, e_tree):
        if _is_exact_tree_image(subset, r, t):
            total += 1
    return total


def _is_exact_tree_image(subset, r, t):
    adj = {}
    for i, j in subset:
        adj.setdefault(("L", i), set()).add(("R", j))
        adj.setdefault(("R", j), set()).add(("L", i))
    if len(adj) != len(subset) + 1:
        return False  # not a tree (vertex count rules out cycles given connectivity)
    for root in [v for v in adj if v[0] == "L"]:
        if _layering_matches(adj, root, r, t):
            return True
    return False


def _layering_matches(adj, root, r, t):
    depth = {root: 0}
    frontier = [root]
    while frontier:
        nxt = []
        for x in frontier:
            for y in adj[x]:
                if y not in depth:
                    depth[y] = depth[x] + 1
                    nxt.append(y)
        frontier = nxt
    if len(depth) != len(adj) or max(depth.values()) != r:
        return False
    for v, d in depth.items():
        want = t + 1 if d < r else 1
        if len(adj[v]) != want:
            return False
    return True


def complete_graph(n_left, n_right) -> BipartiteGraph:
    return BipartiteGraph(n_left, n_right, [(i, j) for i in range(n_left) for j in range(n_right)])


def path_graph(num_edges, start_left=True) -> BipartiteGraph:
    """Alternating path with the given edge count, starting on the chosen side.

    The middle vertex of a 2k-edge path sits on the start side when k is
    even, on the other side when k is odd.
    """
    # Walk vertex k sits at index k//2 on its side; edge k joins index
    # (k+1)//2 on the start side to index k//2 on the other side.
    pairs = []
    for k in range(num_edges):
        s, o = (k + 1) // 2, k // 2
        pairs.append((s, o) if start_left else (o, s))
    verts = num_edges + 1
    n_start, n_other = (verts + 1) // 2, verts // 2
    nl, nr = (n_start, n_other) if start_left else (n_other, n_start)
    return BipartiteGraph(nl, nr, pairs)


def star_graph(t) -> BipartiteGraph:
    """Left vertex 0 joined to right vertices 0..t (t+1 edges)."""
    return BipartiteGraph(1, t + 1, [(0, j) for j in range(t + 1)])


def cycle_graph(length) -> BipartiteGraph:
    """A single cycle of the given even length >= 4."""
    k = length // 2
    return BipartiteGraph(k, k, [(i, i) for i in range(k)] + [((i + 1) % k, i) for i in range(k)])


def disjoint_union(parts, rng) -> BipartiteGraph:
    """Side-by-side copy of the given graphs, with each side's indices
    shuffled so that no component sits at the low indices."""
    n_left = sum(p.n_left for p in parts)
    n_right = sum(p.n_right for p in parts)
    left, right = rng.permutation(n_left).tolist(), rng.permutation(n_right).tolist()
    edges, dl, dr = [], 0, 0
    for p in parts:
        edges.extend((left[dl + i], right[dr + j]) for i, j in p.edges())
        dl, dr = dl + p.n_left, dr + p.n_right
    return BipartiteGraph(n_left, n_right, edges)


def random_graph(rng, max_side=5, p_max=0.7) -> BipartiteGraph:
    nl = int(rng.integers(1, max_side + 1))
    nr = int(rng.integers(1, max_side + 1))
    p = float(rng.uniform(0.0, p_max))
    return mask_to_graph(rng.random((nl, nr)) < p)


def cap_address_space():
    """preexec_fn for a child process that must fail with MemoryError, not
    exhaust the machine, if a closed form regresses to an r-long list (at
    r = 10**9 such a list takes about 8 GB): caps it at 1 GiB."""
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def assert_no_child():
    """This process has no child left, running or unreaped.

    os.waitpid(-1, WNOHANG) returns (0, 0) for a running child and reaps a
    finished one; only with no child at all does it raise.  Unlike
    multiprocessing.active_children, it sees children of a bare os.fork."""
    try:
        left = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    raise AssertionError(f"a child process is left: waitpid gave {left}")
