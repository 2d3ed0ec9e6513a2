"""
Sampling an erasure pattern and peeling it away
===============================================

A codeword of a product code is an n x n array; the channel erases each
cell independently with probability p.  What the decoder sees is the
bipartite graph of erased cells: rows on the left, columns on the right,
one edge per erasure.  This script samples such a graph near the decoding
threshold and walks through the alternating peeling schedule round by
round.
"""

from peelsim import (
    DecodeParams, decode, decode_fixpoint,
    sample_bipartite, threshold_p, write_grid,
)


n = 12
r, t = 2, 1
p = 2.0 * threshold_p(n, r, t)  # twice the threshold: failures are common here

g = sample_bipartite(n, n, p, seed=2024)
print(f"sampled G({n}, {n}, p={p:.4f}) with seed 2024: {g.edge_count} erased cells")
print()
print(write_grid(g))

# The schedule alternates sides and always finishes on rows.  A vertex is
# cleared when at most t of its cells are still erased.
outcome = decode(g, DecodeParams(rounds=r, t=t))
print(f"{r} rounds at capability t={t}:")
for i, rec in enumerate(outcome.trace, start=1):
    print(f"  round {i} on {rec.side}: cleared {len(rec.cleared)} vertices, "
          f"removed {rec.edges_removed} edges")
print(f"result: {'decoded' if outcome.success else 'stuck'}, "
      f"{outcome.residual.edge_count} edges left")
print()

# Peeling to fixpoint runs rows-first passes until nothing changes; its
# round count can differ from the alternating schedule's by one.
fix = decode_fixpoint(g, t)
print(f"fixpoint: {'decoded' if fix.success else 'stuck'} after "
      f"{fix.rounds_executed} effective rounds")
if not fix.success:
    print("the residual is the stuck core; no schedule, however long, clears it:")
    print()
    print(write_grid(fix.residual))
