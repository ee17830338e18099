"""E22 — streaming updates: sketch-maintained connectivity vs the oracle.

The dynamic-graph workload: every registered stream pattern
(insert-heavy, delete-heavy, churn, and the component-split adversary)
runs over a sweep of generator families through
:class:`~repro.streaming.StreamingConnectivity` — batched insert/delete
events applied as signed AGM-sketch updates, with component queries
answered between batches.  Expected shape:

* **staleness vs oracle is zero** — at every checkpoint the streamed
  labels are bit-identical (canonical form) to a from-scratch
  ``mpc_connected_components`` run on the materialised multiset, for
  every family × pattern;
* **update throughput** clears the suite floor (events/second through
  the signed sketch scatter) and **query latency** stays under the
  ceiling — both deliberately generous so only order-of-magnitude
  regressions trip in CI;
* **sketch health**: decode fallbacks per stream and the forced final
  oracle recompute's MPC rounds are recorded per family × pattern
  (``oracle_rounds`` is regression-gated by ``--compare``), so a sketch
  change that silently degrades decoding shows up as a counter diff.

The oracle recompute runs through the engine/backend dispatch seam, so
``--engine``/``--backend`` race the fallback path like any pipeline
experiment.
"""

from __future__ import annotations

import time

import numpy as np

import repro
from repro.bench.registry import register_benchmark
from repro.core.pipeline import mpc_connected_components
from repro.graph import canonical_labels
from repro.streaming import StreamingConnectivity, StreamWorkload, stream_pattern_names

GAP_BOUND = 0.1

#: Dense/structured families stay small so every stream finishes fast.
SIZE_OVERRIDES = {"complete": 48, "hypercube": 64}


def _config(params: dict) -> "repro.PipelineConfig":
    return repro.PipelineConfig(
        delta=0.5,
        expander_degree=4,
        max_walk_length=params["max_walk_length"],
        oversample=params["oversample"],
        max_phases=params["max_phases"],
    )


@register_benchmark(
    "e22_streaming_updates",
    title="Streaming insert/delete connectivity on the AGM sketch layer",
    headers=["family", "pattern", "n", "events", "checkpoints", "events/s",
             "query ms", "fallbacks", "oracle rounds"],
    smoke={
        "families": ["path", "star", "dumbbell", "erdos_renyi"],
        "n": 96,
        "batches": 5,
        "seed": 23,
        "min_events_per_sec": 200.0,
        "max_query_seconds": 0.5,
        "max_walk_length": 32,
        "oversample": 4,
        "max_phases": 2,
    },
    full={
        "families": ["complete", "cycle", "dumbbell", "erdos_renyi",
                     "expander_path", "grid", "hypercube", "paper_random",
                     "path", "permutation_regular", "ring_of_expanders",
                     "star"],
        "n": 384,
        "batches": 8,
        "seed": 23,
        "min_events_per_sec": 200.0,
        "max_query_seconds": 2.0,
        "max_walk_length": 64,
        "oversample": 6,
        "max_phases": 4,
    },
    notes=(
        "Expected shape: zero label staleness vs the from-scratch oracle "
        "at every checkpoint for every family x pattern (incl. the "
        "component-split adversary, whose exact cancellations are the "
        "hard case); throughput/latency floors are generous "
        "order-of-magnitude guards; oracle_rounds is regression-gated."
    ),
    tags=("sketch", "streaming", "pipeline"),
)
def e22_streaming_updates(ctx):
    config = _config(ctx.params)
    base_n = ctx.params["n"]
    batches = ctx.params["batches"]

    for family in ctx.params["families"]:
        size = SIZE_OVERRIDES.get(family, base_n)
        for pattern in stream_pattern_names():
            stream = StreamWorkload(family, size, pattern, batches=batches).build(
                ctx.seed
            )
            conn = StreamingConnectivity(
                stream.n,
                rng=ctx.seed,
                spectral_gap_bound=GAP_BOUND,
                config=config,
                engine=ctx.engine,
                backend=ctx.backend,
            )

            update_seconds = 0.0
            query_seconds = []
            mismatches = 0
            try:
                for batch in stream:
                    start = time.perf_counter()
                    conn.apply(batch)
                    update_seconds += time.perf_counter() - start

                    start = time.perf_counter()
                    streamed = conn.query()
                    query_seconds.append(time.perf_counter() - start)

                    scratch = mpc_connected_components(
                        conn.current_graph(), GAP_BOUND, config=config,
                        rng=ctx.seed, engine=ctx.engine, backend=ctx.backend,
                    ).labels
                    if not np.array_equal(streamed, canonical_labels(scratch)):
                        mismatches += 1

                # Forced oracle pass: records gated MPC rounds for the
                # fallback path and must agree with the final streamed labels.
                final_streamed = conn.query()
                oracle = conn.recompute()
            finally:
                conn.close()
            ctx.check(
                f"oracle-agrees-{family}-{pattern}",
                np.array_equal(final_streamed, oracle),
                "forced oracle recompute must reproduce the streamed labels",
            )
            ctx.check(
                f"zero-staleness-{family}-{pattern}",
                mismatches == 0,
                f"{mismatches}/{len(stream)} checkpoints diverged from the "
                "from-scratch oracle",
            )

            events_per_sec = (
                stream.total_events / update_seconds if update_seconds else 0.0
            )
            worst_query = max(query_seconds)
            ctx.check(
                f"throughput-floor-{family}-{pattern}",
                events_per_sec >= ctx.params["min_events_per_sec"],
                f"{events_per_sec:.0f} events/s",
            )
            ctx.check(
                f"query-latency-ceiling-{family}-{pattern}",
                worst_query <= ctx.params["max_query_seconds"],
                f"{worst_query * 1e3:.1f} ms",
            )

            fallbacks = conn.stats.decode_failures
            ctx.record(
                f"{family}/{pattern}",
                row=[family, pattern, stream.n, stream.total_events,
                     len(stream), f"{events_per_sec:.0f}",
                     f"{1e3 * sum(query_seconds) / len(query_seconds):.1f}",
                     fallbacks, conn.stats.oracle_rounds],
                family=family,
                pattern=pattern,
                n=stream.n,
                events=stream.total_events,
                checkpoints=len(stream),
                stale_checkpoints=mismatches,
                events_per_sec=events_per_sec,
                query_seconds_mean=sum(query_seconds) / len(query_seconds),
                query_seconds_max=worst_query,
                decode_fallbacks=fallbacks,
                sketch_rebuilds=conn.stats.sketch_rebuilds,
                oracle_rounds=conn.stats.oracle_rounds,
            )

    ctx.note(
        "Streamed labels stayed bit-identical to the from-scratch oracle "
        "at every checkpoint; deletes are plain -1 sketch updates "
        "(linearity, Prop. 8.1), so the component-split adversary's exact "
        "cancellations are the load-bearing case."
    )
