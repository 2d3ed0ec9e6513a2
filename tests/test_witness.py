import hashlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from peelsim import (
    BipartiteGraph,
    DecodeParams,
    UndecodableConfig,
    build_exact_tree,
    count_exact_trees,
    decode,
    extract_config,
    find_config,
    find_short_cycle,
    sample_bipartite,
    serialize_config,
    threshold_p,
    verify_config,
)

from helpers import (
    cap_address_space,
    complete_graph,
    cycle_graph,
    disjoint_union,
    girth,
    naive_tree_count,
    path_graph,
    random_graph,
    ref_decode,
    star_graph,
)

K22 = complete_graph(2, 2)

K22_CONFIG = UndecodableConfig(
    root=0,
    layers=(frozenset({0}), frozenset({0, 1}), frozenset({1})),
    edges=frozenset({(0, 0), (0, 1), (1, 0), (1, 1)}),
)


def random_tree(rng, vertices):
    """Random bipartite tree grown by uniform attachment; root is left 0."""
    side = {("L", 0)}
    n = {"L": 1, "R": 0}
    edges = []
    nodes = [("L", 0)]
    while len(nodes) < vertices:
        parent = nodes[rng.integers(0, len(nodes))]
        child_side = "R" if parent[0] == "L" else "L"
        child = (child_side, n[child_side])
        n[child_side] += 1
        nodes.append(child)
        e = (parent[1], child[1]) if parent[0] == "L" else (child[1], parent[1])
        edges.append(e)
    return BipartiteGraph(max(n["L"], 1), max(n["R"], 1), edges)


# -------------------------------------------------------------- verify_config

@pytest.mark.parametrize("t", [1, 2, 3])
def test_verify_star_config(t):
    star = star_graph(t)
    cfg = UndecodableConfig(
        root=0,
        layers=(frozenset({0}), frozenset(range(t + 1))),
        edges=frozenset((0, j) for j in range(t + 1)),
    )
    assert verify_config(star, cfg, r=1, t=t)


def test_verify_rejects_isolated_root():
    g = BipartiteGraph(1, 2)
    cfg = UndecodableConfig(0, (frozenset({0}), frozenset()), frozenset())
    assert not verify_config(g, cfg, r=1, t=1)


def test_verify_k22_full_config():
    assert verify_config(K22, K22_CONFIG, r=2, t=1)
    assert not decode(K22, DecodeParams(rounds=2, t=1)).success


def test_verify_rejects_wrong_layer_count():
    bad = UndecodableConfig(0, K22_CONFIG.layers[:2], K22_CONFIG.edges)
    assert not verify_config(K22, bad, r=2, t=1)


def test_verify_rejects_edges_missing_from_host():
    g = BipartiteGraph(2, 2, [(0, 0), (0, 1), (1, 0)])
    assert not verify_config(g, K22_CONFIG, r=2, t=1)


def exact_tree_certificate(r, t):
    tree = build_exact_tree(r, t)
    cfg = find_config(tree, r, t)
    assert cfg.edges == frozenset(tree.edges())
    assert verify_config(tree, cfg, r, t)
    return tree, cfg


def with_layers(cfg, layers):
    return UndecodableConfig(cfg.root, tuple(map(frozenset, layers)), cfg.edges)


exact_trees = pytest.mark.parametrize("r,t", [(r, t) for r in (1, 2, 3) for t in (1, 2)])


@exact_trees
def test_verify_rejects_any_missing_edge(r, t):
    # Every vertex of an exact tree has exactly t+1 neighbors of the
    # level below or above it, so no edge can go.
    tree, cfg = exact_tree_certificate(r, t)
    for e in cfg.edges:
        assert not verify_config(tree, UndecodableConfig(cfg.root, cfg.layers, cfg.edges - {e}), r, t)


@exact_trees
def test_verify_rejects_any_raised_level(r, t):
    # A vertex moved from layer d to layer d-2 needs t+1 neighbors one
    # level below its new one, and only its parent is that high.
    tree, cfg = exact_tree_certificate(r, t)
    for depth in range(2, r + 1):
        for x in cfg.layers[depth]:
            layers = [set(layer) for layer in cfg.layers]
            layers[depth].remove(x)
            layers[depth - 2].add(x)
            assert not verify_config(tree, with_layers(cfg, layers), r, t)


@exact_trees
def test_verify_rejects_a_vertex_in_two_layers_or_none(r, t):
    tree, cfg = exact_tree_certificate(r, t)
    for depth in range(1, r + 1):
        x = min(cfg.layers[depth])
        layers = [set(layer) for layer in cfg.layers]
        layers[depth].remove(x)
        assert not verify_config(tree, with_layers(cfg, layers), r, t)  # an edge end in no layer
        if depth >= 2:
            layers[depth] = set(cfg.layers[depth])
            layers[depth - 2].add(x)
            assert not verify_config(tree, with_layers(cfg, layers), r, t)  # in two layers


def test_verify_rejects_a_first_layer_other_than_the_root():
    # Left 1 at level 2 has two neighbors of level 1, so only the rule
    # layers[0] == {root} rejects these.
    assert not verify_config(K22, with_layers(K22_CONFIG, ({0, 1}, {0, 1}, ())), r=2, t=1)
    assert not verify_config(K22, UndecodableConfig(1, K22_CONFIG.layers, K22_CONFIG.edges), r=2, t=1)


def test_verify_rejects_thin_vertex():
    # A bare star fails at r=2: each leaf has level 1 but only one
    # H-neighbor, the root, where level 1 needs t+1 = 2.
    star = star_graph(1)
    cfg = UndecodableConfig(
        0,
        (frozenset({0}), frozenset({0, 1}), frozenset()),
        frozenset({(0, 0), (0, 1)}),
    )
    assert not verify_config(star, cfg, r=2, t=1)


def test_verify_raises_on_out_of_range_indices():
    with pytest.raises(ValueError, match="root"):
        verify_config(K22, UndecodableConfig(5, K22_CONFIG.layers, K22_CONFIG.edges), 2, 1)
    with pytest.raises(ValueError, match="edge"):
        verify_config(K22, UndecodableConfig(0, K22_CONFIG.layers, frozenset({(0, 7)})), 2, 1)
    with pytest.raises(ValueError, match="edge left index"):
        verify_config(K22, UndecodableConfig(0, K22_CONFIG.layers, frozenset({(7, 0)})), 2, 1)
    with pytest.raises(ValueError, match="layer"):
        bad_layers = (frozenset({0}), frozenset({9}), frozenset({0, 1}))
        verify_config(K22, UndecodableConfig(0, bad_layers, K22_CONFIG.edges), 2, 1)
    with pytest.raises(ValueError):
        verify_config(K22, K22_CONFIG, r=-1, t=1)


# ---------------------------------------------------------------- find_config

def test_find_config_absent_when_degrees_small():
    # Max degree <= t leaves nobody able to meet the t+1 bar.
    g = BipartiteGraph(3, 3, [(0, 0), (1, 1), (2, 2)])
    assert find_config(g, r=1, t=1) is None
    assert find_config(star_graph(2), r=1, t=3) is None


def test_find_config_k22_survives_any_depth():
    for r in (1, 2, 5):
        cfg = find_config(K22, r=r, t=1)
        assert cfg is not None
        assert verify_config(K22, cfg, r=r, t=1)


def test_find_config_four_edge_path_orientations():
    # Centered on the right, the path survives nothing: endpoints die at
    # level 1 and the collapse propagates.  Centered on the left it is the
    # minimal witness and decoding must fail.
    right_centered = path_graph(4, start_left=False)
    assert find_config(right_centered, r=2, t=1) is None
    assert decode(right_centered, DecodeParams(rounds=2, t=1)).success

    left_centered = path_graph(4, start_left=True)
    cfg = find_config(left_centered, r=2, t=1)
    assert cfg is not None
    assert verify_config(left_centered, cfg, r=2, t=1)
    assert not decode(left_centered, DecodeParams(rounds=2, t=1)).success


def test_find_config_zero_capability():
    g = BipartiteGraph(1, 1, [(0, 0)])
    cfg = find_config(g, r=1, t=0)
    assert cfg is not None
    assert not decode(g, DecodeParams(rounds=1, t=0)).success


def test_find_config_validation():
    for r, t in ((0, 1), (1, -1), (True, 0), (1, False), (1.0, 1)):
        with pytest.raises(ValueError, match="must be"):
            find_config(K22, r=r, t=t)


def test_find_config_agrees_with_decoder():
    rng = np.random.default_rng(61)
    for _ in range(250):
        g = random_graph(rng, max_side=4)
        for r in (1, 2, 3):
            for t in (1, 2):
                present = find_config(g, r, t) is not None
                failed = not decode(g, DecodeParams(rounds=r, t=t)).success
                assert present == failed


def test_find_config_results_verify():
    rng = np.random.default_rng(67)
    hits = 0
    for _ in range(200):
        g = random_graph(rng, max_side=4, p_max=0.9)
        for r, t in ((1, 1), (2, 1), (2, 2)):
            cfg = find_config(g, r, t)
            if cfg is not None:
                hits += 1
                assert verify_config(g, cfg, r, t)
    assert hits > 50  # the corpus must actually exercise the positive branch


def test_find_config_monotone_under_edge_addition():
    rng = np.random.default_rng(71)
    checked = 0
    for _ in range(200):
        g = random_graph(rng, max_side=4, p_max=0.8)
        if find_config(g, 2, 1) is None:
            continue
        missing = [(i, j) for i in range(g.n_left) for j in range(g.n_right)
                   if not g.has_edge(i, j)]
        if not missing:
            continue
        rng.shuffle(missing)
        extra = missing[: max(1, len(missing) // 3)]
        bigger = BipartiteGraph(g.n_left, g.n_right, list(g.edges()) + extra)
        assert find_config(bigger, 2, 1) is not None
        checked += 1
    assert checked > 20


# Graphs on which a certificate built from walk layers fails the local
# check: a vertex needed deep in the decoder's computation tree also sits
# close to the root through a cycle.  The first has no valid walk-layered
# witness at any root or edge subset.
NEAR_CYCLE_CASES = [
    (5, 5, 5, 2, [(0, 0), (0, 3), (0, 4), (1, 0), (1, 1), (1, 3), (2, 0), (2, 1), (2, 2),
                  (3, 0), (3, 2), (3, 3), (3, 4), (4, 0), (4, 1), (4, 2)]),
    (6, 5, 4, 2, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 1), (1, 2), (1, 3), (1, 4), (2, 0),
                  (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (4, 2), (4, 3), (4, 4), (5, 0),
                  (5, 2), (5, 3), (5, 4)]),
    (6, 7, 5, 3, [(0, 0), (0, 1), (0, 3), (0, 4), (0, 6), (1, 2), (1, 3), (1, 4), (1, 5),
                  (2, 0), (2, 1), (2, 3), (2, 4), (2, 5), (2, 6), (3, 1), (3, 2), (3, 4),
                  (3, 6), (4, 0), (4, 1), (4, 3), (4, 4), (4, 5), (4, 6), (5, 0), (5, 1),
                  (5, 3), (5, 4), (5, 5), (5, 6)]),
]


@pytest.mark.parametrize("n_left,n_right,r,t,edges", NEAR_CYCLE_CASES, ids=["5x5", "6x5", "6x7"])
def test_certificates_verify_where_walk_layers_failed(n_left, n_right, r, t, edges):
    g = BipartiteGraph(n_left, n_right, edges)
    for cfg in (find_config(g, r, t), extract_config(g, DecodeParams(rounds=r, t=t))):
        assert cfg is not None
        assert verify_config(g, cfg, r, t)
        assert not ref_decode(BipartiteGraph(n_left, n_right, sorted(cfg.edges)), r, t)[0]


# ------------------------------------------------------------- extract_config

def test_extract_none_on_success():
    assert extract_config(BipartiteGraph(3, 3), DecodeParams(1, 1)) is None
    assert extract_config(path_graph(4, start_left=False), DecodeParams(2, 1)) is None


def test_extract_k22():
    cfg = extract_config(K22, DecodeParams(rounds=2, t=1))
    assert cfg == K22_CONFIG
    assert verify_config(K22, cfg, 2, 1)


def test_extract_exact_tree_host():
    host = build_exact_tree(2, 2)
    assert host.edge_count == 9
    assert not decode(host, DecodeParams(rounds=2, t=2)).success
    cfg = extract_config(host, DecodeParams(rounds=2, t=2))
    assert cfg is not None
    assert verify_config(host, cfg, 2, 2)
    assert cfg.edges == frozenset(host.edges())


def test_extract_zero_rounds_degenerate():
    g = BipartiteGraph(2, 2, [(1, 0)])
    cfg = extract_config(g, DecodeParams(rounds=0, t=1))
    assert cfg == UndecodableConfig(1, (frozenset({1}),), frozenset())
    assert verify_config(g, cfg, r=0, t=1)


def test_extract_agrees_with_decode_and_verifies():
    rng = np.random.default_rng(73)
    for _ in range(200):
        g = random_graph(rng, max_side=4, p_max=0.8)
        for r, t in ((1, 1), (2, 1), (3, 2)):
            params = DecodeParams(rounds=r, t=t)
            cfg = extract_config(g, params)
            assert (cfg is None) == decode(g, params).success
            if cfg is not None:
                assert verify_config(g, cfg, r, t)


# --------------------------------------------------------- count_exact_trees

def test_count_empty_graph():
    assert count_exact_trees(BipartiteGraph(3, 3), 1, 1) == 0


def test_count_single_exact_tree_host():
    host = path_graph(2, start_left=False)  # R-L-R walk: the (1,1)-tree, centered on the left
    assert count_exact_trees(host, 1, 1) == 1


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("t", [1, 2])
def test_exact_tree_hosts_count_once(r, t):
    assert count_exact_trees(build_exact_tree(r, t), r, t) == 1


def test_count_k22_regression():
    # Each left vertex roots one placement through its two right neighbors.
    assert count_exact_trees(K22, 1, 1) == 2


def test_count_k44():
    assert count_exact_trees(complete_graph(4, 4), 1, 1) == 24


@pytest.mark.parametrize("rows,r,count", [(650, 600, 50), (1500, 400, 1100)])
def test_count_on_long_paths(rows, r, count):
    # The path row 0, column 0, row 1, ...: a placement is a subpath of 2r
    # edges centred on a row at least r steps from both ends.  The choice
    # search places about 2r vertices one below the other, past the
    # default recursion limit at r = 600.
    g = BipartiteGraph(rows, rows, [(i, j) for i in range(rows) for j in (i - 1, i) if j >= 0])
    assert count_exact_trees(g, r, 1) == count


def test_huge_round_counts_stop_at_the_fixpoint():
    # The survival levels stop once no vertex leaves: a path's levels empty
    # after as many levels as it has rows, and K22 keeps every vertex from
    # level 0 on, so r = 10**9 returns at once.  The K22 count reads the
    # deepest level below every placed vertex; a level loop that ran to r
    # would run 10**9 times there.  In a child capped at 1 GiB, so that
    # levels kept up to r fail with MemoryError instead of taking the
    # machine's memory.
    code = ("from peelsim import BipartiteGraph, DecodeParams, count_exact_trees, extract_config, find_config; "
            "rows, r = 650, 10**9; "
            "path = BipartiteGraph(rows, rows, [(i, j) for i in range(rows) for j in (i - 1, i) if j >= 0]); "
            "k22 = BipartiteGraph(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)]); "
            "print(find_config(path, r, 1), extract_config(path, DecodeParams(r, 1)), "
            "count_exact_trees(k22, r, 1))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=10, preexec_fn=cap_address_space)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["None", "None", "0"]


def test_count_validation():
    for r, t in ((0, 1), (1, 0), (True, 1), (1, True)):
        with pytest.raises(ValueError, match="must be an integer >= 1"):
            count_exact_trees(K22, r, t)


def test_searches_accept_numpy_integers():
    one, two = np.int64(1), np.int32(2)
    assert find_config(K22, two, one) == find_config(K22, 2, 1)
    assert count_exact_trees(complete_graph(4, 4), one, one) == 24
    assert find_short_cycle(cycle_graph(6), np.int64(6)) == find_short_cycle(cycle_graph(6), 6)


@pytest.mark.parametrize("r,t", [(1, 1), (1, 2), (2, 1)])
def test_count_matches_subset_enumeration(r, t):
    rng = np.random.default_rng(79 + r + 10 * t)
    for _ in range(40):
        g = random_graph(rng, max_side=4, p_max=0.85)
        assert count_exact_trees(g, r, t) == naive_tree_count(g, r, t)


def test_count_matches_subset_enumeration_deep():
    rng = np.random.default_rng(83)
    for _ in range(10):
        g = random_graph(rng, max_side=4, p_max=0.7)
        assert count_exact_trees(g, 3, 1) == naive_tree_count(g, 3, 1)


def test_tree_hosts_config_iff_exact_tree():
    # On tree hosts any witness is itself a tree, so trimming it down must
    # reach an exact tree: presence of a config and of an exact subtree agree.
    rng = np.random.default_rng(89)
    for _ in range(60):
        g = random_tree(rng, vertices=int(rng.integers(2, 12)))
        for r, t in ((1, 1), (2, 1), (1, 2)):
            present = find_config(g, r, t) is not None
            assert present == (count_exact_trees(g, r, t) >= 1)


# ------------------------------------------------------------ find_short_cycle

def assert_valid_cycle(g, cycle, max_len):
    assert len(cycle) % 2 == 0 and 4 <= len(cycle) <= max_len
    assert len(set(cycle)) == len(cycle)
    touched = {}
    for i, j in cycle:
        assert g.has_edge(i, j)
        touched[("L", i)] = touched.get(("L", i), 0) + 1
        touched[("R", j)] = touched.get(("R", j), 0) + 1
    # A simple cycle touches every one of its vertices exactly twice.
    assert set(touched.values()) == {2}
    assert len(touched) == len(cycle)


def test_cycle_in_k22():
    cycle = find_short_cycle(K22, 4)
    assert cycle is not None
    assert_valid_cycle(K22, cycle, 4)


def test_trees_have_no_cycle():
    for r, t in ((1, 1), (2, 2), (3, 1)):
        assert find_short_cycle(build_exact_tree(r, t), 8) is None


def test_six_cycle_needs_length_six():
    g = cycle_graph(6)
    assert find_short_cycle(g, 4) is None
    cycle = find_short_cycle(g, 6)
    assert cycle is not None
    assert len(cycle) == 6
    assert_valid_cycle(g, cycle, 6)


def test_cycle_length_validation():
    for bad in (3, 2, 5, -4, True, 4.0, np.int64(5)):
        with pytest.raises(ValueError, match="max_len must be an even integer >= 4"):
            find_short_cycle(K22, bad)


def test_four_cycle_detection_matches_oracle():
    rng = np.random.default_rng(97)
    for _ in range(150):
        g = random_graph(rng, max_side=5, p_max=0.6)
        nbrs = [{j for i, j in g.edges() if i == a} for a in range(g.n_left)]
        has_c4 = any(
            len(nbrs[a] & nbrs[b]) >= 2
            for a in range(g.n_left) for b in range(a + 1, g.n_left)
        )
        cycle = find_short_cycle(g, 4)
        assert (cycle is not None) == has_c4
        if cycle is not None:
            assert_valid_cycle(g, cycle, 4)


def planted_cycle_graph(rng, *lengths):
    """Cycles of the given lengths beside a few disjoint random trees and a
    long path, with the indices of each side shuffled."""
    trees = [random_tree(rng, int(rng.integers(2, 12))) for _ in range(int(rng.integers(2, 5)))]
    cycles = [cycle_graph(length) for length in lengths]
    return disjoint_union([*cycles, *trees, path_graph(int(rng.integers(9, 20)))], rng)


def test_short_cycle_matches_girth_oracle():
    # Against a girth computed by breadth-first search from every vertex.
    # With two planted cycles the shorter one may sit in either component.
    rng = np.random.default_rng(101)
    graphs = [random_graph(rng, max_side=7, p_max=0.5) for _ in range(200)]
    plants = [(4,), (6,), (8,), (8, 4), (8, 6), (6, 4)]
    graphs += [planted_cycle_graph(rng, *lengths) for lengths in plants for _ in range(20)]
    for g in graphs:
        shortest = girth(g)
        for max_len in (4, 6, 8):
            cycle = find_short_cycle(g, max_len)
            assert (cycle is None) == (shortest > max_len)
            if cycle is not None:
                assert_valid_cycle(g, cycle, max_len)


def test_searches_stay_linear_in_edges():
    # A 4-cycle and a 4-edge path on sides of 10**7 vertices: the searches
    # must work on the edges alone, never on arrays as long as a side.
    n = 10**7
    path = [(n - 2, n - 3), (n - 2, n - 2), (n - 1, n - 2), (n - 1, n - 1)]
    big = BipartiteGraph(n, n, [*K22.edges(), *path])
    # The same two components at the lowest indices.
    small = BipartiteGraph(4, 5, [*K22.edges(), (2, 2), (2, 3), (3, 3), (3, 4)])
    tracemalloc.start()
    try:
        cycle = find_short_cycle(big, 6)
        trees = count_exact_trees(big, 1, 1)
        cfg = find_config(big, 2, 1)
        extracted = extract_config(big, DecodeParams(2, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert_valid_cycle(big, cycle, 4)
    assert trees == naive_tree_count(small, 1, 1) == 4
    assert cfg == extracted == find_config(K22, 2, 1)


def test_searches_take_vertex_ids_past_int64():
    # Sides that sum past 2**63: a right vertex's id, n_left + j, is exact
    # only as a Python int, and an int64 sum would wrap it below n_left,
    # where it reads as a left vertex.  A 4-cycle and a 4-edge path at the
    # top indices must give what the same shapes give at the lowest ones.
    n = 2**62 + 8
    small = BipartiteGraph(4, 5, [*K22.edges(), (2, 2), (2, 3), (3, 3), (3, 4)])
    di, dj = n - small.n_left, n - small.n_right
    big = BipartiteGraph(n, n, [(i + di, j + dj) for i, j in small.edges()])

    def lift(cfg):
        layers = tuple(frozenset(x + (dj if depth % 2 else di) for x in layer)
                       for depth, layer in enumerate(cfg.layers))
        return UndecodableConfig(cfg.root + di, layers,
                                 frozenset((i + di, j + dj) for i, j in cfg.edges))

    for max_len in (4, 6):
        cycle = find_short_cycle(big, max_len)
        assert cycle == tuple((i + di, j + dj) for i, j in find_short_cycle(small, max_len))
        assert_valid_cycle(big, cycle, max_len)
    assert count_exact_trees(big, 1, 1) == count_exact_trees(small, 1, 1) == 4
    assert find_config(big, 1, 2) is find_config(small, 1, 2) is None
    for r in (1, 2, 3):
        cfg = find_config(small, r, 1)
        assert find_config(big, r, 1) == lift(cfg)
        assert extract_config(big, DecodeParams(r, 1)) == lift(cfg)
        assert verify_config(big, lift(cfg), r, 1)
        assert verify_config(big, lift(cfg), r, 2) == verify_config(small, cfg, r, 2)


# ----------------------------------------------------------------- serialization

def test_serialize_config_k22():
    text = serialize_config(K22_CONFIG, 2, 2)
    assert text == (
        "root 0\n"
        "layers 3\n"
        "layer 0 0\n"
        "layer 1 0 1\n"
        "layer 2 1\n"
        "2 2 4\n"
        "0 0\n"
        "0 1\n"
        "1 0\n"
        "1 1\n"
    )


@pytest.mark.parametrize("n_left, n_right", [(1, 2), (2, 1)])
def test_serialize_config_refuses_an_edge_outside_the_host(n_left, n_right):
    # The text would not parse back as an edge list, so none is written.
    with pytest.raises(ValueError, match="index out of range"):
        serialize_config(K22_CONFIG, n_left, n_right)


# ------------------------------------------------------------------ pinned outputs

# SHA-256 of the canonical text of every search result below.  It pins
# which witness and which cycle each search returns, not only their
# validity, so reworking a search must return the same objects.
WITNESS_SHA = "314467a5040a3677e63baea2c0c77e8aa0866f82efec8ba71c571692cd265fa7"


def _pin_cases():
    rng = np.random.default_rng(2026)
    for _ in range(300):
        yield random_graph(rng, max_side=7), int(rng.integers(1, 4)), int(rng.integers(0, 3))
    # Census shape: G(300, 300, 1.5 p*) at r=2, t=1.
    p = 1.5 * threshold_p(300, 2, 1)
    for seed in range(200):
        yield sample_bipartite(300, 300, p, seed), 2, 1


def test_witness_outputs_are_pinned():
    h = hashlib.sha256()
    for g, r, t in _pin_cases():
        cfg = find_config(g, r, t)
        wit = extract_config(g, DecodeParams(rounds=r, t=t))
        parts = [serialize_config(c, g.n_left, g.n_right) if c else "None" for c in (cfg, wit)]
        if cfg is not None:
            parts.append(f"{verify_config(g, cfg, r, t)} {verify_config(g, cfg, r, t + 1)}")
        if t >= 1:
            parts.append(str(count_exact_trees(g, r, t)))
        parts.extend(repr(find_short_cycle(g, max_len)) for max_len in (4, 6, 8))
        h.update(("\n".join(parts) + "\n--\n").encode())
    assert h.hexdigest() == WITNESS_SHA
