"""Peeling decoder for product-code erasure patterns.

Erasure patterns are bipartite graphs (rows vs columns, edges = erased
cells).  The package samples them, peels them round by round, certifies
failures with levelled certificates, predicts behavior with closed forms, and
sweeps the whole story under a reproducible Monte Carlo harness.
"""

from .decode import (
    DecodeOutcome,
    DecodeParams,
    RoundRecord,
    decode,
    decode_fixpoint,
)
from .experiment import (
    CONSTANT_T_SWEEP,
    CSV_COLUMNS,
    LINEAR_REGIME_SWEEP,
    SINGLE_POINT,
    ExperimentSpec,
    PointEstimate,
    TrialRecord,
    load_spec,
    run_sweep,
    run_trial,
    trial_seed,
    wilson_interval,
    write_results,
)
from .graph import (
    BipartiteGraph,
    parse_graph,
    parse_grid,
    sample_bipartite,
    serialize_graph,
    write_grid,
)
from .theory import (
    AT_THRESHOLD,
    DECODABLE_ONE_ROUND,
    UNDECODABLE_ALL_ROUNDS,
    TreeStats,
    asymptotic_success,
    build_exact_tree,
    expected_tree_count,
    linear_regime_prediction,
    threshold_p,
    tree_stats,
)
from .witness import (
    UndecodableConfig,
    count_exact_trees,
    extract_config,
    find_config,
    find_short_cycle,
    serialize_config,
    verify_config,
)

__version__ = "0.1.0"

__all__ = [
    "AT_THRESHOLD",
    "BipartiteGraph",
    "CONSTANT_T_SWEEP",
    "CSV_COLUMNS",
    "DECODABLE_ONE_ROUND",
    "DecodeOutcome",
    "DecodeParams",
    "ExperimentSpec",
    "LINEAR_REGIME_SWEEP",
    "PointEstimate",
    "RoundRecord",
    "SINGLE_POINT",
    "TreeStats",
    "TrialRecord",
    "UNDECODABLE_ALL_ROUNDS",
    "UndecodableConfig",
    "asymptotic_success",
    "build_exact_tree",
    "count_exact_trees",
    "decode",
    "decode_fixpoint",
    "expected_tree_count",
    "extract_config",
    "find_config",
    "find_short_cycle",
    "linear_regime_prediction",
    "load_spec",
    "parse_graph",
    "parse_grid",
    "run_sweep",
    "run_trial",
    "sample_bipartite",
    "serialize_config",
    "serialize_graph",
    "threshold_p",
    "tree_stats",
    "trial_seed",
    "verify_config",
    "wilson_interval",
    "write_grid",
    "write_results",
]
