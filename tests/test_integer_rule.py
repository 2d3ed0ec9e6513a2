"""One integer rule for every public integer argument.

Each site passes a single integer argument to a public entry point.  Every
site must reject True (Python's 1) and 2.5, and accept a numpy integer as
the equal plain int: the result is the same, and where the callee keeps the
argument it keeps an int.
"""

import numpy as np
import pytest

from peelsim import (
    SINGLE_POINT,
    BipartiteGraph,
    DecodeParams,
    ExperimentSpec,
    asymptotic_success,
    build_exact_tree,
    count_exact_trees,
    decode_fixpoint,
    expected_tree_count,
    find_config,
    find_short_cycle,
    run_sweep,
    sample_bipartite,
    threshold_p,
    tree_stats,
    verify_config,
    wilson_interval,
)

from helpers import complete_graph, cycle_graph

K22 = complete_graph(2, 2)
K22_CONFIG = find_config(K22, 1, 1)
SPEC = ExperimentSpec(SINGLE_POINT, (8,), 1, 2, 0, t=1, c_values=(1.0,))

# name: (call with x as the argument, a valid value).  Calls return the
# stored argument where the callee keeps one, else the whole result.
SITES = {
    "BipartiteGraph n_left": (lambda x: BipartiteGraph(x, 3).n_left, 3),
    "BipartiteGraph n_right": (lambda x: BipartiteGraph(3, x).n_right, 3),
    "sample_bipartite n_left": (lambda x: sample_bipartite(x, 3, 0.5, 0).n_left, 3),
    "sample_bipartite n_right": (lambda x: sample_bipartite(3, x, 0.5, 0).n_right, 3),
    "sample_bipartite seed": (lambda x: sample_bipartite(3, 3, 0.5, x), 3),
    "verify_config r": (lambda x: verify_config(K22, K22_CONFIG, x, 1), 1),
    "verify_config t": (lambda x: verify_config(K22, K22_CONFIG, 1, x), 1),
    "wilson_interval successes": (lambda x: wilson_interval(x, 4), 3),
    "wilson_interval trials": (lambda x: wilson_interval(1, x), 4),
    "tree_stats r": (lambda x: tree_stats(x, 2).r, 3),
    "tree_stats t": (lambda x: tree_stats(3, x).t, 2),
    "build_exact_tree r": (lambda x: build_exact_tree(x, 2), 3),
    "build_exact_tree t": (lambda x: build_exact_tree(3, x), 2),
    "threshold_p n": (lambda x: threshold_p(x, 2, 2), 100),
    "threshold_p r": (lambda x: threshold_p(100, x, 2), 2),
    "threshold_p t": (lambda x: threshold_p(100, 2, x), 2),
    "asymptotic_success r": (lambda x: asymptotic_success(1.5, x, 2), 2),
    "asymptotic_success t": (lambda x: asymptotic_success(1.5, 2, x), 2),
    "expected_tree_count n": (lambda x: expected_tree_count(x, 0.1, 2, 2), 100),
    "expected_tree_count r": (lambda x: expected_tree_count(100, 0.1, x, 2), 2),
    "expected_tree_count t": (lambda x: expected_tree_count(100, 0.1, 2, x), 2),
    "run_sweep workers": (lambda x: run_sweep(SPEC, workers=x), 1),
    "DecodeParams rounds": (lambda x: DecodeParams(rounds=x, t=1).rounds, 2),
    "DecodeParams t": (lambda x: DecodeParams(rounds=2, t=x).t, 1),
    "decode_fixpoint t": (lambda x: decode_fixpoint(K22, x), 1),
    "find_config r": (lambda x: find_config(K22, x, 1), 2),
    "find_config t": (lambda x: find_config(K22, 2, x), 1),
    "count_exact_trees r": (lambda x: count_exact_trees(K22, x, 1), 1),
    "count_exact_trees t": (lambda x: count_exact_trees(K22, 1, x), 1),
    "find_short_cycle max_len": (lambda x: find_short_cycle(cycle_graph(6), x), 6),
}


@pytest.mark.parametrize("site", SITES)
@pytest.mark.parametrize("bad", [True, 2.5])
def test_site_rejects_bools_and_fractions(site, bad):
    call, _ = SITES[site]
    with pytest.raises(ValueError):
        call(bad)


@pytest.mark.parametrize("site", SITES)
def test_site_takes_numpy_integers_as_int(site):
    call, good = SITES[site]
    expected = call(good)
    got = call(np.int64(good))
    assert got == expected
    assert type(got) is type(expected)


def test_tree_stats_converts_numpy_integers():
    # Left as numpy integers, t ** (r - 1) would wrap silently at 64 bits.
    s = tree_stats(np.int64(40), np.int64(9))
    assert s == tree_stats(40, 9)
    assert type(s.edges) is int and type(s.r) is int and type(s.t) is int
