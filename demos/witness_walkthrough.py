"""
Why a pattern refuses to decode
===============================

Decode failure is never mysterious: it happens exactly when the erasure
graph holds a levelled certificate, a set of edges whose vertices each
carry a level, the root at level r, where every vertex of level k >= 1
keeps more than t edges to vertices of level k - 1 or more, too many to
peel in k rounds.  This script builds the smallest stuck pattern by hand,
extracts its certificate, and then hunts for certificates in random graphs
to show the equivalence holding trial after trial.
"""

import numpy as np

from peelsim import (
    BipartiteGraph, DecodeParams, decode, extract_config, find_config,
    find_short_cycle, sample_bipartite, serialize_config, threshold_p,
    verify_config,
)

r, t = 2, 1

# The 2x2 fully erased block: every row and column holds 2 erasures,
# one more than the capability, so nothing is ever cleared.
block = BipartiteGraph(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)])
outcome = decode(block, DecodeParams(rounds=r, t=t))
print(f"2x2 block, r={r}, t={t}: success={outcome.success}, "
      f"residual={outcome.residual.edge_count}")

config = extract_config(block, DecodeParams(rounds=r, t=t))
print(f"witness root: row {config.root}")
for depth, layer in enumerate(config.layers):
    side = "rows" if depth % 2 == 0 else "cols"
    print(f"  layer {depth} ({side}, level {r - depth}): {sorted(layer)}")
print(f"verifies: {verify_config(block, config, r, t)}")
print()
print("serialized witness:")
print(serialize_config(config, block.n_left, block.n_right))

# The block is also the shortest possible cycle; stuck cores are cyclic
# whenever they are not exact trees.
cycle = find_short_cycle(block, max_len=4)
print(f"4-cycle inside the block: {cycle}")
print()

# Now the equivalence at scale: right at the threshold both outcomes are
# common, and the decoder fails exactly when find_config has a witness.
rng = np.random.default_rng(7)
n = 30
p = threshold_p(n, r, t)
agree = failures = 0
for _ in range(400):
    g = sample_bipartite(n, n, p, int(rng.integers(2**63)))
    failed = not decode(g, DecodeParams(rounds=r, t=t)).success
    witness = find_config(g, r, t)
    assert failed == (witness is not None)
    if failed:
        assert verify_config(g, witness, r, t)
        failures += 1
    agree += 1
print(f"{agree} random graphs at n={n}, p={p:.4f}: decoder and witness search "
      f"agreed every time ({failures} failures, each with a verified witness)")
