"""The experiments of the paper's evaluation (plus library-level ones), as
registrations.

Importing this package populates the benchmark registry.  Each module
holds one experiment (plus its companion sub-experiments, e.g. E5b) with
``smoke`` and ``full`` parameter tiers — the sweep/table/JSON plumbing
all lives in :mod:`repro.bench`.
"""

from repro.bench.experiments import (  # noqa: F401  (imported for registration)
    e01_rounds_vs_n,
    e02_rounds_vs_gap,
    e03_sublinear_memory,
    e04_regularization,
    e05_random_walks,
    e06_randomization,
    e07_grow_components,
    e08_diameter,
    e09_lower_bound,
    e10_balls_bins,
    e11_random_graph_props,
    e12_unknown_gap,
    e13_sketch,
    e14_ablation_growth,
    e15_ablation_walk_length,
    e16_gap_vs_diameter,
    e17_backend_parity,
    e21_engine_race,
    e22_streaming_updates,
    e23_rpc_service,
    e25_parallel_sketch,
)

__all__ = [
    "e01_rounds_vs_n",
    "e02_rounds_vs_gap",
    "e03_sublinear_memory",
    "e04_regularization",
    "e05_random_walks",
    "e06_randomization",
    "e07_grow_components",
    "e08_diameter",
    "e09_lower_bound",
    "e10_balls_bins",
    "e11_random_graph_props",
    "e12_unknown_gap",
    "e13_sketch",
    "e14_ablation_growth",
    "e15_ablation_walk_length",
    "e16_gap_vs_diameter",
    "e17_backend_parity",
    "e21_engine_race",
    "e22_streaming_updates",
    "e23_rpc_service",
    "e25_parallel_sketch",
]
