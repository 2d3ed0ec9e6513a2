"""Reference implementations used as oracles by the test suite.

Everything here is deliberately naive and independent of the package's own
algorithms: per-cell Bernoulli sampling instead of skip sampling, a
degree-recomputing peeler instead of the decode engine, permutation and
canonical-form counting instead of closed formulas, and edge-subset
enumeration instead of backtracking search.
"""

from __future__ import annotations

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


def graph_adjacency(g: BipartiteGraph):
    """Side-tagged adjacency over ('L', i) / ('R', j) node keys."""
    adj = {}
    for i, j in g.edges():
        adj.setdefault(("L", i), set()).add(("R", j))
        adj.setdefault(("R", j), set()).add(("L", i))
    return adj


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


def six_cycle() -> BipartiteGraph:
    return BipartiteGraph(3, 3, [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (0, 2)])


def random_graph(rng, max_side=5, p_max=0.7) -> BipartiteGraph:
    nl = int(rng.integers(1, max_side + 1))
    nr = int(rng.integers(1, max_side + 1))
    p = float(rng.uniform(0.0, p_max))
    return mask_to_graph(rng.random((nl, nr)) < p)
