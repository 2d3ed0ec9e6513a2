import math
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from peelsim import (
    AT_THRESHOLD,
    DECODABLE_ONE_ROUND,
    UNDECODABLE_ALL_ROUNDS,
    asymptotic_success,
    build_exact_tree,
    count_exact_trees,
    expected_tree_count,
    linear_regime_prediction,
    threshold_p,
    tree_stats,
)
from peelsim import DecodeParams, decode, find_config

from helpers import ahu_automorphisms, cap_address_space, complete_graph, literal_automorphisms

RT_GRID = [(r, t) for r in (1, 2, 3) for t in (1, 2, 3)]
SMALL_RT = [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1)]  # literal-enumeration scale


# ----------------------------------------------------------------- tree_stats

def test_tree_stats_frozen_values():
    s = tree_stats(1, 1)
    assert (s.edges, s.vertices, s.automorphisms) == (2, 3, 2)
    s = tree_stats(2, 2)
    assert (s.edges, s.vertices, s.automorphisms) == (9, 10, 48)
    s = tree_stats(3, 1)
    assert s.edges == 6 and s.automorphisms == 2


def test_tree_stats_rejects_degenerate():
    for r, t in ((0, 1), (1, 0), (-1, 2)):
        with pytest.raises(ValueError):
            tree_stats(r, t)


@pytest.mark.parametrize("r,t", RT_GRID)
def test_tree_stats_vertex_identities(r, t):
    s = tree_stats(r, t)
    assert s.vertices == s.edges + 1
    assert s.left_vertices + s.right_vertices == s.vertices
    assert s.automorphisms >= 1


@pytest.mark.parametrize("r,t", RT_GRID)
def test_stats_match_explicit_construction(r, t):
    s = tree_stats(r, t)
    g = build_exact_tree(r, t)
    assert g.edge_count == s.edges
    assert g.n_left == s.left_vertices
    assert g.n_right == s.right_vertices


@pytest.mark.parametrize("r,t", RT_GRID)
def test_automorphisms_match_canonical_count(r, t):
    # Counts that fix the root also count all tree automorphisms here: the
    # root is the unique center (the diameter 2r is even).
    g = build_exact_tree(r, t)
    assert tree_stats(r, t).automorphisms == ahu_automorphisms(g, ("L", 0))


@pytest.mark.parametrize("r,t", SMALL_RT)
def test_automorphisms_match_literal_enumeration(r, t):
    g = build_exact_tree(r, t)
    assert tree_stats(r, t).automorphisms == literal_automorphisms(g)


def test_log_automorphisms_accuracy():
    for r, t in RT_GRID + [(4, 3), (5, 2), (3, 4)]:
        s = tree_stats(r, t)
        assert math.isclose(s.log_automorphisms, math.log(s.automorphisms), rel_tol=1e-12)


def test_exact_automorphisms_stop_at_4300_digits():
    # Past 10**4300 only the log is kept: the exact integer would take
    # unbounded time to build and could not be printed.
    for t in (2, 3, 7):
        r = 1
        while tree_stats(r + 1, t).automorphisms is not None:
            r += 1
        assert len(str(tree_stats(r, t).automorphisms)) <= 4300
        assert tree_stats(r + 1, t).log_automorphisms >= 4300 * math.log(10)
    s = tree_stats(7, 7)
    assert s.automorphisms is None
    assert math.isclose(s.log_automorphisms, math.lgamma(9) + 156864 * math.lgamma(8), rel_tol=1e-12)


def test_threshold_for_huge_trees_returns():
    p = threshold_p(100, 40, 9)
    assert 0.0 < p < 1.0
    assert tree_stats(40, 9).automorphisms is None


def test_path_trees_use_closed_forms():
    # At t = 1 the tree is a path of 2r edges; no r-long list is built.
    code = ("from peelsim import tree_stats; s = tree_stats(10**9, 1); "
            "print(s.edges, s.vertices, s.left_vertices, s.right_vertices, s.automorphisms)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=10, preexec_fn=cap_address_space)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [str(x) for x in (2 * 10**9, 2 * 10**9 + 1, 10**9 + 1, 10**9, 2)]
    for r in range(1, 8):
        g = build_exact_tree(r, 1)
        s = tree_stats(r, 1)
        assert (s.edges, s.left_vertices, s.right_vertices) == (g.edge_count, g.n_left, g.n_right)


def test_trees_past_10_to_300_edges_are_refused():
    s = tree_stats(994, 2)
    assert len(str(s.edges)) == 300
    assert math.isfinite(s.log_automorphisms)
    assert 0.0 < threshold_p(10**6, 994, 2) < 1.0
    assert asymptotic_success(1e300, 994, 2) == 0.0
    for r, t in ((995, 2), (1100, 2), (10**400, 2), (5 * 10**299 + 1, 1), (1, 10**301)):
        with pytest.raises(ValueError, match=f"r={r}, t={t}"):
            tree_stats(r, t)
    with pytest.raises(ValueError, match="r=1100, t=2"):
        threshold_p(100, 1100, 2)


def test_counts_increase_with_parameters():
    for t in (2, 3):
        for r in (1, 2, 3):
            assert tree_stats(r + 1, t).edges > tree_stats(r, t).edges
            assert tree_stats(r + 1, t).automorphisms > tree_stats(r, t).automorphisms
    for r in (1, 2, 3):
        assert tree_stats(r + 1, 1).edges > tree_stats(r, 1).edges
        assert tree_stats(r, 1).automorphisms == 2
        for t in (1, 2, 3):
            assert tree_stats(r, t + 1).edges > tree_stats(r, t).edges


# ------------------------------------------------------------ explicit trees

@pytest.mark.parametrize("r,t", RT_GRID)
def test_exact_tree_structure(r, t):
    g = build_exact_tree(r, t)
    assert int(np.bincount(g.u, minlength=g.n_left)[0]) == t + 1  # root
    # The tree defeats exactly r rounds: present at r, gone at r+1.
    assert find_config(g, r, t) is not None
    assert not decode(g, DecodeParams(rounds=r, t=t)).success
    assert find_config(g, r + 1, t) is None
    assert decode(g, DecodeParams(rounds=r + 1, t=t)).success


# ------------------------------------------------------------------ threshold

def test_threshold_frozen_values():
    assert math.isclose(threshold_p(100, 1, 1), 1.0e-3, rel_tol=1e-12)
    assert math.isclose(threshold_p(10, 2, 2), 10.0 ** (-10.0 / 9.0), rel_tol=1e-12)
    assert abs(threshold_p(10, 2, 2) - 7.7426e-2) < 1e-6


def test_threshold_monotone_in_r():
    for n in (2, 10, 1000):
        for r in (1, 2, 3):
            assert threshold_p(n, r + 1, 1) > threshold_p(n, r, 1)


def test_threshold_round_trip_identity():
    for n, r, t in ((2, 1, 1), (100, 2, 2), (10**6, 3, 3)):
        e = tree_stats(r, t).edges
        log_product = math.log(threshold_p(n, r, t)) + (1.0 + 1.0 / e) * math.log(n)
        assert abs(log_product) < 1e-12


def test_threshold_validation():
    with pytest.raises(ValueError):
        threshold_p(1, 1, 1)
    with pytest.raises(ValueError):
        threshold_p(10, 0, 1)


# --------------------------------------------------------- asymptotic success

def test_asymptotic_frozen_values():
    assert math.isclose(asymptotic_success(1.0, 1, 1), math.exp(-0.5), rel_tol=1e-12)
    assert math.isclose(asymptotic_success(2.0, 1, 1), math.exp(-2.0), rel_tol=1e-12)
    assert abs(asymptotic_success(1.0, 1, 1) - 0.606531) < 1e-6


def test_asymptotic_limits():
    assert asymptotic_success(1e-12, 1, 1) == pytest.approx(1.0, abs=1e-12)
    assert asymptotic_success(1e9, 1, 1) == 0.0
    # Enormous automorphism counts keep the success probability near 1 at c=1.
    s = tree_stats(3, 3)
    expected = math.exp(-math.exp(-s.log_automorphisms))
    assert math.isclose(asymptotic_success(1.0, 3, 3), expected, rel_tol=1e-12)
    assert asymptotic_success(1.0, 3, 3) > 0.999999999


def test_asymptotic_strictly_decreasing_in_c():
    values = [asymptotic_success(c, 2, 2) for c in (0.25, 0.5, 1.0, 1.5, 2.0)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert all(0.0 < v <= 1.0 for v in values)
    # Far past the threshold the probability underflows to an exact zero.
    assert asymptotic_success(8.0, 2, 2) == 0.0


def test_asymptotic_validation():
    with pytest.raises(ValueError):
        asymptotic_success(0.0, 1, 1)
    with pytest.raises(ValueError):
        asymptotic_success(-1.0, 1, 1)


# --------------------------------------------------------- expected tree count

def test_expected_count_zero_probability():
    assert expected_tree_count(10, 0.0, 1, 1) == 0.0


def test_expected_count_k44_value():
    # v_L=1, v_R=2, a=2 at p=1: 4 * (4*3) / 2 = 24, and the complete host
    # must contain exactly that many placements.
    lam = expected_tree_count(4, 1.0, 1, 1)
    assert math.isclose(lam, 24.0, rel_tol=1e-12)
    assert count_exact_trees(complete_graph(4, 4), 1, 1) == 24


def test_expected_count_too_small_host():
    assert expected_tree_count(2, 0.5, 2, 2) == 0.0  # needs 7 left vertices


def test_expected_count_converges_to_poisson_mean():
    for c in (1.0, 2.0):
        target = c**2 / 2.0
        errs = [
            abs(expected_tree_count(n, c * threshold_p(n, 1, 1), 1, 1) - target)
            for n in (100, 1000, 10_000)
        ]
        assert errs[0] > errs[1] > errs[2]


def _falling(n, v):
    out = 1
    for i in range(v):
        out *= n - i
    return out


@pytest.mark.parametrize("n", [10**6, 10**12, 10**16])
@pytest.mark.parametrize("r,t", [(1, 1), (2, 1), (2, 2)])
def test_expected_count_keeps_its_digits_at_large_n(n, r, t):
    # Against exact rational arithmetic: falling(n, v_L) * falling(n, v_R)
    # * p**e / a, with p taken exactly as the float it is.
    s = tree_stats(r, t)
    for c in (0.5, 1.0, 2.0):
        p = c * threshold_p(n, r, t)
        exact = _falling(n, s.left_vertices) * _falling(n, s.right_vertices) * Fraction(p) ** s.edges
        exact /= s.automorphisms
        assert math.isclose(expected_tree_count(n, p, r, t), float(exact), rel_tol=1e-12)


def test_expected_count_validation():
    with pytest.raises(ValueError):
        expected_tree_count(0, 0.5, 1, 1)
    with pytest.raises(ValueError):
        expected_tree_count(10, 1.5, 1, 1)
    # lgamma cannot take n past float range; threshold_p needs only log(n).
    with pytest.raises(ValueError, match="n is too large"):
        expected_tree_count(10**400, 0.5, 1, 1)
    assert threshold_p(10**400, 1, 1) == 0.0


# ---------------------------------------------------------------- linear regime

def test_linear_regime_verdicts():
    assert linear_regime_prediction(0.2, 0.3) == DECODABLE_ONE_ROUND
    assert linear_regime_prediction(0.4, 0.3) == UNDECODABLE_ALL_ROUNDS
    assert linear_regime_prediction(0.3, 0.3) == AT_THRESHOLD


def test_linear_regime_validation():
    with pytest.raises(ValueError):
        linear_regime_prediction(1.5, 0.3)
    with pytest.raises(ValueError):
        linear_regime_prediction(0.2, 0.0)
    with pytest.raises(ValueError):
        linear_regime_prediction(0.2, 1.0)
