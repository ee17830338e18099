"""E25 — parallel sketch ingest: sharded AGM partials vs the monolith.

The tentpole measurement for :class:`~repro.sketch.ShardedAGMSketch`:
edge updates range-partitioned by owner vertex into per-shard partials,
updated through an execution backend's sketch-ingest seam and gathered
only at decode time; here they are also laid end to end along the vertex
axis (:meth:`~repro.sketch.ShardedAGMSketch.merge`) to compare them with
the monolith.  Expected shape:

* **bit-identity** — for every generator family, the merged sharded
  sketch is bit-identical (totals, moments, fingerprints, every round)
  to the monolithic :class:`~repro.sketch.AGMSketch` drawn from the same
  seed, for every shard count in the sweep;
* **zero staleness on parallel backends** — streamed labels from a
  sharded-ingest :class:`~repro.streaming.StreamingConnectivity` match
  the from-scratch oracle at every checkpoint on the ``process`` and
  ``rpc`` backends (worker-resident partials, true parallelism);
* **ingest throughput** — a warm process pool clears the configured
  speedup floor over the single-thread monolithic scatter (gate armed
  only on multi-CPU hosts; single-CPU runs record the ratio and skip);
* **footprint counters** — ``partial_words`` (total resident partial
  state) is regression-gated by ``--compare``, so a sharding change
  that silently inflates sketch memory fails CI.
"""

from __future__ import annotations

import numpy as np

from repro.bench.registry import register_benchmark
from repro.bench.workloads import Workload
from repro.graph import canonical_labels, connected_components
from repro.mpc.backends import ShardedBackend
from repro.mpc.process_backend import ProcessBackend, usable_cpu_count
from repro.sketch import AGMSketch, ShardedAGMSketch, SketchStats
from repro.streaming import StreamingConnectivity, StreamWorkload

#: Dense/structured families stay small so every build finishes fast.
SIZE_OVERRIDES = {"complete": 48, "hypercube": 64}


def _sketches_equal(mono: AGMSketch, merged: AGMSketch) -> bool:
    """Bit-identity across every round's totals / moments / fingerprints."""
    if len(mono.rounds) != len(merged.rounds):
        return False
    for a, b in zip(mono.rounds, merged.rounds):
        if not (
            np.array_equal(a.totals, b.totals)
            and np.array_equal(a.moments, b.moments)
            and np.array_equal(a.fingers, b.fingers)
        ):
            return False
    return True


@register_benchmark(
    "e25_parallel_sketch",
    title="Sharded AGM sketch ingest: partials merged by linearity",
    headers=["part", "case", "n", "shards", "events/s", "speedup",
             "partial words", "detail"],
    smoke={
        "families": ["path", "star", "dumbbell", "erdos_renyi"],
        "n": 96,
        "shards": [2, 3],
        "stream_patterns": ["churn", "component_split"],
        "stream_n": 96,
        "batches": 4,
        "workers": 2,
        "throughput_n": 256,
        "throughput_edges": 20000,
        "min_speedup": 2.0,
        "seed": 29,
    },
    full={
        "families": ["complete", "cycle", "dumbbell", "erdos_renyi",
                     "expander_path", "grid", "hypercube", "paper_random",
                     "path", "permutation_regular", "ring_of_expanders",
                     "star"],
        "n": 192,
        "shards": [2, 4],
        "stream_patterns": ["churn", "component_split"],
        "stream_n": 192,
        "batches": 6,
        "workers": 2,
        "throughput_n": 384,
        "throughput_edges": 60000,
        "min_speedup": 2.0,
        "seed": 29,
    },
    notes=(
        "Expected shape: merged sharded partials bit-identical to the "
        "monolithic sketch for every family x shard count (linearity: "
        "int64 wraparound sums commute, fingerprints reduce mod P); zero "
        "label staleness vs the oracle on process/rpc ingest; warm-pool "
        "ingest speedup gated only on multi-CPU hosts; partial_words is "
        "regression-gated."
    ),
    tags=("sketch", "streaming", "parallel"),
)
def e25_parallel_sketch(ctx):
    shards_sweep = (
        [ctx.sketch_shards] if ctx.sketch_shards else ctx.params["shards"]
    )
    cpus = usable_cpu_count()
    ctx.note(
        f"host exposes {cpus} usable CPU(s); shard sweep: {shards_sweep}"
    )

    # -- Part A: bit-identity per generator family ---------------------------
    base_n = ctx.params["n"]
    for family in ctx.params["families"]:
        size = SIZE_OVERRIDES.get(family, base_n)
        graph = Workload(family, size).build(ctx.seed)
        mono = AGMSketch.empty(graph.n, ctx.rng(1))
        if graph.m:
            mono.update_edges(graph.edges)
        for shards in shards_sweep:
            backend = ShardedBackend()
            stats = SketchStats()
            sharded = ShardedAGMSketch.empty(
                graph.n, ctx.rng(1), shards=shards, backend=backend,
                stats=stats,
            )
            try:
                if graph.m:
                    sharded.update_edges(graph.edges)
                merged = sharded.merge()
            finally:
                sharded.close()
            ctx.check(
                f"bit-identical-{family}-s{shards}",
                _sketches_equal(mono, merged),
                "merged sharded partials must equal the monolithic sketch",
            )
            ctx.record(
                f"identity/{family}/shards={shards}",
                row=["identity", family, graph.n, shards, "-", "-",
                     stats.partial_words, f"m={graph.m}"],
                part="identity",
                family=family,
                n=graph.n,
                m=graph.m,
                shards=shards,
                partial_words=stats.partial_words,
                shard_updates=stats.shard_updates,
                merges=stats.merges,
                sketch_exchanges=backend.stats().exchanges,
            )

    # -- Part B: zero staleness on parallel ingest backends ------------------
    stream_n = ctx.params["stream_n"]
    batches = ctx.params["batches"]
    workers = ctx.workers or ctx.params["workers"]
    for backend_name in ("process", "rpc"):
        for pattern in ctx.params["stream_patterns"]:
            stream = StreamWorkload(
                "erdos_renyi", stream_n, pattern, batches=batches
            ).build(ctx.seed)
            conn = StreamingConnectivity(
                stream.n,
                rng=ctx.seed,
                engine=ctx.engine,
                backend=backend_name,
                sketch_shards=max(shards_sweep),
                workers=workers,
            )
            mismatches = 0
            try:
                for batch in stream:
                    conn.apply(batch)
                    streamed = conn.query()
                    oracle = canonical_labels(
                        connected_components(conn.current_graph())
                    )
                    if not np.array_equal(streamed, oracle):
                        mismatches += 1
                sketch_stats = conn.stats.to_json()["sketch"]
                fallbacks = conn.stats.decode_failures
            finally:
                conn.close()
            ctx.check(
                f"zero-staleness-{backend_name}-{pattern}",
                mismatches == 0,
                f"{mismatches}/{len(stream)} checkpoints diverged from "
                "the from-scratch oracle",
            )
            ctx.record(
                f"stream/{backend_name}/{pattern}",
                row=["stream", f"{backend_name}/{pattern}", stream.n,
                     max(shards_sweep), "-", "-",
                     sketch_stats["partial_words"],
                     f"fallbacks={fallbacks}"],
                part="stream",
                ingest_backend=backend_name,
                pattern=pattern,
                n=stream.n,
                events=stream.total_events,
                shards=max(shards_sweep),
                stale_checkpoints=mismatches,
                decode_fallbacks=fallbacks,
                partial_words=sketch_stats["partial_words"],
                shard_updates=sketch_stats["shard_updates"],
                merges=sketch_stats["merges"],
            )

    # -- Part C: warm-pool ingest throughput ---------------------------------
    n_t = ctx.params["throughput_n"]
    m_t = ctx.params["throughput_edges"]
    rng = ctx.rng(7)
    edges = rng.integers(0, n_t, size=(m_t, 2), dtype=np.int64)
    keep = edges[:, 0] != edges[:, 1]
    edges = edges[keep]
    weights = np.ones(edges.shape[0], dtype=np.int64)

    mono = AGMSketch.empty(n_t, ctx.rng(11))
    ctx.timeit("ingest-single", mono.update_edges, edges, weights)
    single_seconds = ctx.timings[-1].best

    backend = ProcessBackend(workers=workers, min_parallel_items=0)
    stats = SketchStats()
    sharded = ShardedAGMSketch.empty(
        n_t, ctx.rng(11), shards=workers, backend=backend, stats=stats
    )
    try:
        # One untimed update warms the pool (fork + arena attach), then
        # the timed runs measure steady-state ingest only.  The warm
        # update is replayed on the monolith, so both sketches see the
        # same number of identical updates (warmup + repeat + 1) and stay
        # comparable bit-for-bit.
        sharded.update_edges(edges, weights)
        mono.update_edges(edges, weights)
        ctx.timeit(
            f"ingest-sharded-w{workers}", sharded.update_edges, edges, weights
        )
        parallel_seconds = ctx.timings[-1].best
        merged = sharded.merge()
    finally:
        sharded.close()
        backend.close()

    ctx.check(
        "throughput-run-bit-identical",
        _sketches_equal(mono, merged),
        "timed parallel ingest must still merge to the monolithic sketch",
    )
    speedup = single_seconds / parallel_seconds if parallel_seconds > 0 else 0.0
    events_single = edges.shape[0] / single_seconds if single_seconds else 0.0
    events_parallel = (
        edges.shape[0] / parallel_seconds if parallel_seconds else 0.0
    )
    ctx.record(
        f"throughput/workers={workers}",
        row=["throughput", f"workers={workers}", n_t, workers,
             f"{events_parallel:.0f}", f"{speedup:.2f}x",
             stats.partial_words, f"single={events_single:.0f}/s"],
        part="throughput",
        n=n_t,
        edges=edges.shape[0],
        workers=workers,
        shards=workers,
        seconds_single=single_seconds,
        seconds_parallel=parallel_seconds,
        speedup_vs_single=speedup,
        events_per_sec_single=events_single,
        events_per_sec_parallel=events_parallel,
        partial_words=stats.partial_words,
        shard_updates=stats.shard_updates,
        merges=stats.merges,
    )
    # Gate after recording, so a missed gate still writes the record.
    min_speedup = ctx.params["min_speedup"]
    if min_speedup > 0 and cpus >= 2:
        ctx.check(
            f"ingest-speedup-at-least-{min_speedup}x",
            speedup >= min_speedup,
            f"warm-pool speedup {speedup:.2f}x over single-thread",
        )
    else:
        ctx.note(
            f"warm-pool ingest speedup: {speedup:.2f}x "
            "(gate skipped: "
            + ("single-CPU host" if cpus < 2 else "record-only tier")
            + ")"
        )

    ctx.note(
        "Merged sharded partials stayed bit-identical to the monolithic "
        "sketch everywhere: linearity makes the range-partition a free "
        "choice, so parallel ingest changes wall-clock only, never a "
        "single sketch word."
    )
