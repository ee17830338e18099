"""Linear-sketching substrate: hashing, sparse recovery, L0 sampling, AGM."""

from repro.sketch.agm import (
    AGMSketch,
    RoundSketch,
    RoundSpec,
    agm_connected_components,
    agm_decode_components,
    sketch_update_partial,
)
from repro.sketch.hashing import MERSENNE_P, KWiseHash, sign_hash
from repro.sketch.l0_sampler import L0Sampler
from repro.sketch.one_sparse import OneSparseRecovery
from repro.sketch.sharded import (
    SKETCH_STATS_ZERO,
    ShardedAGMSketch,
    SketchPartialStore,
    SketchStats,
)
from repro.sketch.sparse_recovery import SparseRecovery

__all__ = [
    "MERSENNE_P",
    "SKETCH_STATS_ZERO",
    "KWiseHash",
    "sign_hash",
    "OneSparseRecovery",
    "SparseRecovery",
    "L0Sampler",
    "AGMSketch",
    "RoundSketch",
    "RoundSpec",
    "ShardedAGMSketch",
    "SketchPartialStore",
    "SketchStats",
    "agm_connected_components",
    "agm_decode_components",
    "sketch_update_partial",
]
