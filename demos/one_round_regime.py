"""
Constant erasure rates and the one-round cliff
==============================================

When the capability grows linearly with the block length (t = alpha * n),
the threshold story collapses to a comparison of two constants.  Erase
cells at rate p < alpha and a single row round almost surely finishes the
job; at p > alpha even unlimited rounds almost surely stall.  This script
shows the cliff and, below it, the exact chance that a row is too heavy
for one round.
"""

import math

from peelsim import LINEAR_REGIME_SWEEP, ExperimentSpec, linear_regime_prediction, run_sweep

alpha = 0.3
n = 500

print(f"alpha={alpha}, n={n}, capability t = floor(alpha * n) = {int(alpha * n)}")
print()

for p, rounds in ((0.2, 1), (0.25, 1), (0.35, 8), (0.4, 8)):
    spec = ExperimentSpec(
        mode=LINEAR_REGIME_SWEEP, n_values=(n,), r=rounds, alpha=alpha,
        p_values=(p,), trials_per_point=400, master_seed=9,
    )
    est = run_sweep(spec)[0]
    verdict = linear_regime_prediction(p, alpha)
    print(f"p={p:.2f} r={rounds}: measured success {est.p_hat:.3f} "
          f"(one-round fraction {est.one_round_fraction:.3f}), predicted {verdict}")

print()
print("the verdicts are limits: close to the cliff (p=0.25 here) the finite-n")
print("rate is still climbing toward 1, and it sharpens as n grows")
print()

# The prediction is not just asymptotic hand-waving: a row's degree is
# Bin(n, p), and one row round clears every row unless some row holds more
# than t = floor(alpha * n) erasures.  That tail is exact, and n times it
# bounds the chance that any row does.
t = math.floor(alpha * n)
for p in (0.2, 0.25):
    tail = sum(math.comb(n, k) * p**k * (1.0 - p) ** (n - k) for k in range(t + 1, n + 1))
    print(f"p={p:.2f}: P(a given row exceeds capability) = {tail:.3e}, "
          f"P(any of the {n} rows does) <= {min(1.0, n * tail):.3e}")
