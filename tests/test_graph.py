import hashlib
import sys
import threading
import warnings

import numpy as np
import pytest

from peelsim import (
    BipartiteGraph,
    parse_graph,
    parse_grid,
    sample_bipartite,
    serialize_graph,
    threshold_p,
    trial_seed,
    write_grid,
)

from helpers import mask_to_graph, ref_sample_mask


# ---------------------------------------------------------------- graph type

def test_empty_graph():
    g = BipartiteGraph(2, 2)
    assert g.edge_count == 0
    assert list(g.edges()) == []
    assert np.bincount(g.u, minlength=g.n_left).tolist() == [0, 0]


def test_edges_are_canonicalized():
    g = BipartiteGraph(3, 3, [(2, 1), (0, 0), (1, 2)])
    assert list(g.edges()) == [(0, 0), (1, 2), (2, 1)]


def test_rejects_out_of_range_edges():
    with pytest.raises(ValueError, match="left index out of range"):
        BipartiteGraph(2, 2, [(2, 0)])
    with pytest.raises(ValueError, match="right index out of range"):
        BipartiteGraph(2, 2, [(0, -1)])


def test_rejects_duplicate_edges():
    with pytest.raises(ValueError, match="duplicate edge"):
        BipartiteGraph(2, 2, [(0, 1), (0, 1)])


def test_rejects_empty_sides():
    with pytest.raises(ValueError):
        BipartiteGraph(0, 3)
    with pytest.raises(ValueError):
        BipartiteGraph(3, 0)


def test_rejects_non_integer_endpoints():
    # Casting would have stored (0.7, 1.2) as the edge (0, 1).
    bad = ([(0.7, 1.2)], np.array([[True, False]]), [(0, 2**70)], np.array([[0, 1]], dtype=np.uint64))
    for edges in bad:
        with pytest.raises(ValueError, match="edge endpoints must be integers"):
            BipartiteGraph(3, 3, edges)
    g = BipartiteGraph(3, 3, np.array([[2, 1], [0, 0]], dtype=np.int8))
    assert list(g.edges()) == [(0, 0), (2, 1)] and g.u.dtype == np.int64
    for edges in ([(0, 1, 2)], [0, 1], np.zeros((1, 2, 2), dtype=np.int64)):
        with pytest.raises(ValueError, match="edges must be"):
            BipartiteGraph(3, 3, edges)


def test_rejects_sides_past_int64():
    # No vertex past 2**63 - 1 can hold an int64 edge end.
    for sides in ((2**63, 2), (2, 2**63), (2**64, 2**64)):
        with pytest.raises(ValueError, match=r"at most 2\*\*63 - 1"):
            BipartiteGraph(*sides, [(0, 1)])
    g = BipartiteGraph(2**63 - 1, 2, [(2**63 - 2, 1)])
    assert list(g.edges()) == [(2**63 - 2, 1)]


def test_neighbor_views_are_consistent():
    rng = np.random.default_rng(7)
    for _ in range(40):
        g = mask_to_graph(rng.random((5, 6)) < 0.4)
        edges = set(g.edges())
        for i in range(g.n_left):
            for j in range(g.n_right):
                assert g.has_edge(i, j) == ((i, j) in edges)
        assert int(np.bincount(g.u, minlength=g.n_left).sum()) == g.edge_count
        assert int(np.bincount(g.v, minlength=g.n_right).sum()) == g.edge_count


def test_edge_arrays_are_immutable():
    g = BipartiteGraph(2, 2, [(0, 0)])
    with pytest.raises(ValueError):
        g.u[0] = 1


def test_equality():
    a = BipartiteGraph(2, 2, [(0, 1)])
    b = BipartiteGraph(2, 2, [(0, 1)])
    c = BipartiteGraph(2, 2, [(1, 1)])
    assert a == b and a != c
    assert a != BipartiteGraph(2, 3, [(0, 1)])


# ---------------------------------------------------------------- grid format

def test_parse_grid_basic():
    assert parse_grid("..\n.X\n") == BipartiteGraph(2, 2, [(1, 1)])
    # No erasure leaves a graph without edges that keeps both sides.
    assert parse_grid("...\n...\n") == BipartiteGraph(2, 3)


def test_parse_grid_all_erased():
    assert parse_grid("XX\nXX\n") == BipartiteGraph(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)])


def test_parse_grid_ragged_line():
    with pytest.raises(ValueError, match="line 2: expected 2 characters"):
        parse_grid("X.\nX\n")
    # An empty first line sets the width to 0, so the first non-empty line
    # fails the width check: no grid has zero columns.
    with pytest.raises(ValueError, match="^line 2: expected 0 characters, got 2$"):
        parse_grid("\n.X")


def test_parse_grid_illegal_character():
    with pytest.raises(ValueError, match="line 1, column 2: illegal character"):
        parse_grid(".a\n..\n")


def test_parse_grid_empty_input():
    with pytest.raises(ValueError, match="^empty grid$"):
        parse_grid("")
    with pytest.raises(ValueError, match="^empty grid$"):
        parse_grid("\n\n")


def test_grid_round_trip():
    assert write_grid(BipartiteGraph(2, 3, [(0, 1), (1, 2)])) == ".X.\n..X\n"
    rng = np.random.default_rng(3)
    for _ in range(20):
        g = mask_to_graph(rng.random((4, 7)) < 0.5)
        assert parse_grid(write_grid(g)) == g


# ------------------------------------------------------------ edge-list format

def test_serialize_examples():
    assert serialize_graph(BipartiteGraph(2, 2)) == "2 2 0\n"
    assert serialize_graph(BipartiteGraph(2, 2, [(0, 1)])) == "2 2 1\n0 1\n"
    k22 = BipartiteGraph(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)])
    assert serialize_graph(k22) == "2 2 4\n0 0\n0 1\n1 0\n1 1\n"


def test_parse_serialize_round_trip():
    rng = np.random.default_rng(5)
    for _ in range(30):
        g = mask_to_graph(rng.random((5, 4)) < 0.45)
        assert parse_graph(serialize_graph(g)) == g


def test_parse_graph_accepts_unsorted_edges():
    g = parse_graph("2 2 2\n1 1\n0 0\n")
    assert list(g.edges()) == [(0, 0), (1, 1)]


def test_parse_graph_errors():
    with pytest.raises(ValueError, match="empty edge list"):
        parse_graph("")
    with pytest.raises(ValueError, match="line 1: header"):
        parse_graph("2 2\n")
    with pytest.raises(ValueError, match="line 1: non-integer"):
        parse_graph("2 x 0\n")
    with pytest.raises(ValueError, match="promises 2 edges, found 1"):
        parse_graph("2 2 2\n0 0\n")
    with pytest.raises(ValueError, match="line 2: expected 'u v'"):
        parse_graph("2 2 1\n0 0 0\n")
    with pytest.raises(ValueError, match="line 3: non-integer vertex"):
        parse_graph("2 2 2\n0 0\n1 z\n")
    with pytest.raises(ValueError, match="out of range"):
        parse_graph("2 2 1\n5 0\n")
    with pytest.raises(ValueError, match="duplicate edge"):
        parse_graph("2 2 2\n0 0\n0 0\n")


# ----------------------------------------------------------------- sampling

def test_sample_p_zero_is_empty():
    g = sample_bipartite(4, 4, 0.0, 7)
    assert g.edge_count == 0 and g.n_left == 4 and g.n_right == 4


def test_sample_p_one_is_complete():
    g = sample_bipartite(3, 2, 1.0, 7)
    assert g.edge_count == 6
    assert list(g.edges()) == [(i, j) for i in range(3) for j in range(2)]


def test_sample_determinism():
    a = sample_bipartite(30, 30, 0.1, 123)
    b = sample_bipartite(30, 30, 0.1, 123)
    assert a == b
    assert a != sample_bipartite(30, 30, 0.1, 124)


def test_sample_golden_value():
    # Pinned output guards the generator and skip-sampling layout against
    # accidental change; the stream is part of the reproducibility contract.
    g = sample_bipartite(5, 5, 0.4, 12345)
    assert serialize_graph(g) == "5 5 8\n0 2\n1 0\n1 4\n2 0\n2 1\n3 0\n4 0\n4 1\n"


# (n, p) of the benchmark's workloads: threshold_small at c = 1,
# threshold_large, dense_stuck at both p, witness_census.
WORKLOAD_SHAPES = [
    (2000, threshold_p(2000, 1, 1)),
    (100_000, threshold_p(100_000, 2, 2)),
    (500, 0.2),
    (500, 0.4),
    (300, 1.5 * threshold_p(300, 2, 1)),
]
# p within 1e-9 of 0 (about ten edges) and of 1 (about no missing cell).
EXTREME_SHAPES = [(100_000, 1e-9), (300, 1.0 - 1e-9)]


def test_sampled_graphs_are_pinned():
    # SHA-256 over the u and v bytes of 200 graphs per workload shape, then
    # every shape at seeds 0, 2**63 and 2**64 - 1; recorded while each call
    # still built its own Generator(Philox(key=seed)).  About 36M edges.
    h = hashlib.sha256()
    graphs = [(n, p, trial_seed(0, k, i, 200)) for k, (n, p) in enumerate(WORKLOAD_SHAPES) for i in range(200)]
    graphs += [(n, p, seed) for n, p in WORKLOAD_SHAPES + EXTREME_SHAPES for seed in (0, 2**63, 2**64 - 1)]
    for n, p, seed in graphs:
        g = sample_bipartite(n, n, p, seed)
        h.update(g.u.tobytes())
        h.update(g.v.tobytes())
    assert h.hexdigest() == "872482c666137f9a28d405571679c90e8a2752c8c5817c0cb4318bdacf421c19"


def ref_skip_cells(n_cells, p, seed, draws):
    # The same gaps in Python integers, which cannot wrap: each is
    # floor(log1p(-x) / log_q) + 1 over the seed's first `draws` uniforms.
    x = np.random.Generator(np.random.Philox(key=seed)).random(draws)
    quotients = np.log1p(-x) / np.log1p(-p)
    cells, pos = [], -1
    for q in quotients.tolist():
        pos += int(q) + 1
        if pos >= n_cells:
            return cells
        cells.append(pos)
    raise AssertionError("the draws ran out inside the grid")


@pytest.mark.parametrize("n,p", [
    (2, 1e-18),
    (2, 1e-300),
    (3, 1e-6),
    (2**30 + 12345, 1e-17),
    # About 2.3e18 cells: a batch sums its gaps three at a time.
    (1_518_500_249, 4e-16),
])
def test_sampled_ids_are_in_range(n, p):
    for seed in range(3):
        g = sample_bipartite(n, n, p, seed)
        assert g.u.min(initial=0) >= 0 and g.u.max(initial=0) < n
        assert g.v.min(initial=0) >= 0 and g.v.max(initial=0) < n
        assert (g.u * n + g.v).tolist() == ref_skip_cells(n * n, p, seed, 4096)


# Below about 2e-307, log1p(-x) / log1p(-p) overflows to inf for every
# positive draw x.
@pytest.mark.parametrize("p", [5e-324, 1e-320, 1e-310, 2e-307, 1e-305, 1e-301, 1e-300, 3e-300])
def test_sample_at_tiny_p_is_quiet_and_keeps_its_cells(p):
    # The reference divides by the unfloored log1p(-p), lets the quotient
    # overflow and clamps it at the grid; the sampler must give the same
    # cells without a warning.  At such a p a batch draws 20 uniforms.
    for n_left, n_right in [(1, 1), (4, 4), (1000, 1000), (2**61, 1)]:
        n_cells = n_left * n_right
        for seed in range(200):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                g = sample_bipartite(n_left, n_right, p, seed)
            with np.errstate(over="ignore"):
                x = np.random.Generator(np.random.Philox(key=seed)).random(20)
                quotients = np.log1p(-x) / np.log1p(-p)
            cells, pos = [], -1
            for q in quotients.tolist():
                pos += int(min(q, n_cells)) + 1
                if pos >= n_cells:
                    break
                cells.append(pos)
            assert (g.u * n_right + g.v).tolist() == cells


@pytest.mark.parametrize("seed", [7860, 36976])
def test_sample_carries_the_position_into_a_second_batch(seed):
    # The first batch draws int(10**4 + 4 * sqrt(10**4 + 1)) + 16 = 10416
    # gaps; these seeds draw more edges than that, so the sample continues
    # in a second batch from the last position of the first.
    g = sample_bipartite(1000, 1000, 0.01, seed)
    assert g.edge_count > 10416
    assert (g.u * 1000 + g.v).tolist() == ref_skip_cells(10**6, 0.01, seed, 12000)


def test_sample_refuses_grids_past_2_61_cells():
    with pytest.raises(ValueError, match="more than 2\\*\\*61 cells"):
        sample_bipartite(2**32, 2**32, 1e-19, 1)
    with pytest.raises(ValueError):
        sample_bipartite(2**61 + 1, 1, 0.5, 1)
    assert sample_bipartite(2**61, 1, 1e-30, 1).edge_count == 0


def test_threads_sample_the_serial_graphs():
    # Four threads sample interleaved seeds at once; each must get exactly
    # the graph a serial call gives for its seed.
    k = 4
    seeds = [trial_seed(3, 0, i, 400) for i in range(400)]
    serial = [sample_bipartite(60, 60, 0.05, s) for s in seeds]
    start = threading.Barrier(k)
    got = {}

    def work(j):
        start.wait()
        got[j] = [sample_bipartite(60, 60, 0.05, s) for s in seeds[j::k]]

    threads = [threading.Thread(target=work, args=(j,)) for j in range(k)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads inside sampling calls
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    for j in range(k):
        assert got[j] == serial[j::k], j


def test_sample_rejects_bad_arguments():
    with pytest.raises(ValueError):
        sample_bipartite(0, 4, 0.5, 0)
    with pytest.raises(ValueError):
        sample_bipartite(4, 4, -0.1, 0)
    with pytest.raises(ValueError):
        sample_bipartite(4, 4, 1.1, 0)
    with pytest.raises(ValueError):
        sample_bipartite(4, 4, 0.5, -1)
    with pytest.raises(ValueError):
        sample_bipartite(4, 4, 0.5, 2**64)


def test_sample_structural_validity():
    for seed in range(20):
        g = sample_bipartite(9, 13, 0.35, seed)
        assert parse_graph(serialize_graph(g)) == g  # in range, sorted, no dups
        # Each id array owns a buffer of exactly edge_count elements, not a
        # view into the larger draw it was cut from.
        assert g.u.base is None and g.v.base is None
        assert g.u.nbytes == g.v.nbytes == g.edge_count * g.u.itemsize


def test_sample_extreme_probabilities():
    assert sample_bipartite(6, 6, 1e-9, 3).edge_count in (0, 1)
    g = sample_bipartite(6, 6, 0.999, 3)
    assert g.edge_count >= 30


def test_sample_mean_edge_count():
    # Binomial(10^4, 0.5): sd of the mean over 10,000 seeds is 0.5, so a
    # 3-sigma band around 5000 is +/- 1.5.
    counts = np.fromiter(
        (sample_bipartite(100, 100, 0.5, s).edge_count for s in range(10_000)),
        dtype=np.int64,
    )
    assert abs(counts.mean() - 5000.0) <= 1.5


def test_sample_per_cell_frequency():
    # Each cell's hit frequency over 3000 seeds must sit within 5 sigma of p.
    p, seeds = 0.3, 3000
    freq = np.zeros((12, 9))
    for s in range(seeds):
        g = sample_bipartite(12, 9, p, s)
        freq[g.u, g.v] += 1
    z = (freq / seeds - p) / np.sqrt(p * (1 - p) / seeds)
    assert np.abs(z).max() < 5.0


def test_sample_matches_reference_sampler():
    # Distributional cross-check against the per-cell Bernoulli oracle.
    p, seeds = 0.3, 3000
    rng = np.random.default_rng(2024)
    ref = np.array([ref_sample_mask(12, 9, p, rng).sum() for _ in range(seeds)])
    skip = np.array([sample_bipartite(12, 9, p, s).edge_count for s in range(seeds)])
    sigma_diff = np.sqrt(2 * 12 * 9 * p * (1 - p) / seeds)
    assert abs(skip.mean() - ref.mean()) < 4.0 * sigma_diff
