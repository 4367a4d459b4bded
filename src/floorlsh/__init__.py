"""Floored-projection locality-sensitive hashing with verified guarantees.

The package has three layers:

* hash families of the form floor(scale * <w, x>) whose scalar products are
  provably spread out (``lpspace``, ``families``),
* a Monte Carlo laboratory that checks every claimed bound with exact
  confidence intervals (``estimation``),
* a c-approximate nearest-neighbor index that never misses a point within
  distance 1, audited against brute force (``index``, ``exact``).
"""

from .data import (
    PlantedPair,
    far_ring_dataset,
    gaussian_points,
    near_origin_queries,
    planted_pairs_dataset,
    read_pairs_truth,
    read_points,
    uniform_cube_points,
    write_pairs_truth,
    write_points,
)
from .estimation import (
    AntiConcEstimate,
    ConjectureRow,
    FalsePositiveEstimate,
    FarPairShape,
    clopper_pearson,
    conjecture_probe,
    estimate_false_positive_rate,
    far_pair,
    unit_direction,
    levy_concentration,
    small_ball_curve,
    theoretical_q_bound,
)
from .exact import (
    GroundTruth,
    RecallRecord,
    audit_results,
    ground_truth,
    range_search_exact,
    recall_report,
)
from .families import (
    PROVEN_ADJACENCY_KINDS,
    FamilyKind,
    HashFunction,
    adjacency_certificate,
    c_threshold,
    false_positive_bound,
    hash_scale,
    sample_pool,
    sample_vector,
    small_ball_bound,
)
from .index import (
    BuildStats,
    IndexConfig,
    LshIndex,
    QueryResult,
    QueryStats,
    Variant,
    choose_levels,
)
from .lpspace import (
    beta_lower_bound_margin,
    cap_probability,
    dual_exponent,
    lp_distances,
    lp_norm,
    norm_sandwich_factor,
)
from .streams import derive_seed, stream

__version__ = "0.1.0"

__all__ = [
    "AntiConcEstimate",
    "BuildStats",
    "ConjectureRow",
    "FalsePositiveEstimate",
    "FamilyKind",
    "FarPairShape",
    "GroundTruth",
    "HashFunction",
    "IndexConfig",
    "LshIndex",
    "PROVEN_ADJACENCY_KINDS",
    "PlantedPair",
    "QueryResult",
    "QueryStats",
    "RecallRecord",
    "Variant",
    "adjacency_certificate",
    "audit_results",
    "beta_lower_bound_margin",
    "c_threshold",
    "cap_probability",
    "choose_levels",
    "clopper_pearson",
    "conjecture_probe",
    "derive_seed",
    "dual_exponent",
    "estimate_false_positive_rate",
    "false_positive_bound",
    "far_pair",
    "far_ring_dataset",
    "gaussian_points",
    "ground_truth",
    "hash_scale",
    "levy_concentration",
    "lp_distances",
    "lp_norm",
    "near_origin_queries",
    "norm_sandwich_factor",
    "planted_pairs_dataset",
    "range_search_exact",
    "read_pairs_truth",
    "read_points",
    "recall_report",
    "sample_pool",
    "sample_vector",
    "small_ball_bound",
    "small_ball_curve",
    "stream",
    "theoretical_q_bound",
    "uniform_cube_points",
    "unit_direction",
    "write_pairs_truth",
    "write_points",
]
