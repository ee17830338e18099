"""E24 — CSR gathers: the pipeline's min-label rounds and the round step.

The Theorem 4 pipeline runs its min-label broadcast as indptr-sliced
gathers over a frozen :class:`~repro.graph.CSRIndex`, on a serial
``ShardedBackend`` reference and on the true-parallel
``ProcessBackend``.  Expected shape:

* labels, round counts, and every gated model counter (``exchanges``,
  ``bytes_exchanged``, ``shard_count``, ``peak_shard_load``)
  bit-identical across both backends;
* the ``csr`` counters (``csr_builds``, ``csr_gathers``,
  ``argsorts_avoided``) prove the CSR path actually engaged;
* an isolated round-step microbenchmark (one ``csr_min_label`` vs one
  sort-based ``min_label_exchange`` — the op graph exponentiation still
  runs — on a warm ``ProcessBackend``) shows the ≥1.3× speedup of the
  indptr-partitioned fold at smoke scale: a CSR worker reads exactly
  the contiguous slot range its label block owns, where the sort-based
  fold must mask-scan *all* ``2m`` incidences per worker to find the
  ones landing in its range.  The full tier's ``n = 10^6`` scaling
  point only pins "CSR never loses" — at that scale the random label
  gathers miss cache in both kernels and the margin compresses toward
  the shared bandwidth bound, and wall-clock is never hard-gated across
  hosts.

This case always exercises both the sharded and process backends
regardless of ``--backend``; ``--workers N`` resizes the pool
(default 2).
"""

from __future__ import annotations

import numpy as np

import repro
from repro.bench.registry import register_benchmark
from repro.bench.workloads import Workload
from repro.graph import components_agree, connected_components
from repro.graph.csr import CSRIndex
from repro.mpc import MPCEngine, ProcessBackend, ShardedBackend

DEGREE = 6
GAP_BOUND = 0.25
DELTA = 0.3

#: Speedup the gather round step must show over the sort round step at
#: smoke scale (the acceptance gate; measured margins are larger).
MIN_ROUNDSTEP_SPEEDUP = 1.3

#: Floor for the full tier's n = 10^6 scaling point.  At that scale the
#: random label gathers miss cache in *both* kernels and the relative
#: margin compresses toward the shared bandwidth bound, so the full
#: tier only pins "CSR never loses" — cross-host wall-clock is too
#: noisy to hard-gate a ratio there (same policy as the compare gates,
#: which never fail on speed alone).
FULL_ROUNDSTEP_FLOOR = 1.0


def _config(params: dict) -> "repro.PipelineConfig":
    return repro.PipelineConfig(
        delta=DELTA,
        expander_degree=4,
        max_walk_length=params["max_walk_length"],
        oversample=params["oversample"],
        max_phases=params["max_phases"],
    )


def _run(graph, seed: int, config, backend):
    """One pipeline execution on ``backend`` with a fresh engine."""
    backend.reset()
    engine = MPCEngine.for_delta(
        max(graph.n + graph.m, 2), DELTA, backend=backend
    )
    result = repro.mpc_connected_components(
        graph, spectral_gap_bound=GAP_BOUND, config=config, rng=seed,
        engine=engine,
    )
    return result, engine


@register_benchmark(
    "e24_csr_gather",
    title="CSR gathers: pipeline min-label rounds and the round step",
    headers=["n", "case", "backend", "seconds", "rounds", "gathers",
             "shm-copied", "segments", "barriers"],
    smoke={
        "n": 4096,
        "workers": 2,
        "seed": 19,
        "max_walk_length": 64,
        "oversample": 6,
        "max_phases": 4,
        "roundstep_n": 500000,
    },
    full={
        "n": 100000,
        "workers": 2,
        "seed": 19,
        "max_walk_length": 32,
        "oversample": 4,
        "max_phases": 2,
        "roundstep_n": 1000000,
    },
    notes=(
        "Expected shape: labels/rounds/model counters bit-identical on "
        "the sharded and process backends, with the csr counters "
        "engaged; the isolated round step (csr_min_label vs the "
        "sort-based min_label_exchange) on a warm process pool is "
        ">= 1.3x faster at smoke scale (each CSR worker folds only its "
        "own contiguous slot range, where the sort-based fold mask-scans "
        "all 2m incidences per worker); the full tier's n = 10^6 point "
        "gates never-slower, since the margin compresses toward the "
        "shared bandwidth bound at cache-missing scale."
    ),
    tags=("pipeline", "backends", "csr"),
)
def e24_csr_gather(ctx):
    config = _config(ctx.params)
    n = ctx.params["n"]
    workers = ctx.workers or ctx.params["workers"]
    graph = Workload("permutation_regular", n, {"degree": DEGREE}).build(
        ctx.seed
    )
    truth = connected_components(graph)

    # -- serial reference on the sharded backend ----------------------------
    ref_backend = ShardedBackend()
    ref_result, _ = _run(graph, ctx.seed, config, ref_backend)
    ref_stats = ref_backend.stats()
    ctx.check(
        "reference-labels-correct",
        components_agree(ref_result.labels, truth),
    )
    ctx.check(
        "csr-counters-engage",
        ref_stats.csr["csr_builds"] > 0
        and ref_stats.csr["csr_gathers"] > 0
        and ref_stats.csr["argsorts_avoided"] > 0,
        f"{ref_stats.csr}",
    )

    # -- process backend: timed runs ----------------------------------------
    backend = ProcessBackend(workers=workers, min_parallel_items=0)
    try:
        # Cold run first (pool spawn, arena sizing, page faults), so the
        # timed runs measure the warm pool — the same discipline as e19.
        _run(graph, ctx.seed, config, backend)
        result, engine = ctx.timeit(
            "pipeline-csr-on", _run, graph, ctx.seed, config, backend
        )
        seconds = ctx.timings[-1].best
        stats = backend.stats()
        dispatch = stats.dispatch
        arena = stats.arena

        ctx.check(
            "process-labels-identical-csr-on",
            np.array_equal(result.labels, ref_result.labels),
            "the process backend must not change results",
        )
        ctx.check(
            "process-counters-identical-csr-on",
            (result.rounds, stats.exchanges, stats.bytes_exchanged,
             stats.shard_count, stats.peak_shard_load)
            == (ref_result.rounds, ref_stats.exchanges,
                ref_stats.bytes_exchanged, ref_stats.shard_count,
                ref_stats.peak_shard_load),
            "the process backend must not change the model accounting",
        )

        ctx.record(
            "csr=on",
            row=[n, "pipeline", "process", f"{seconds:.3f}", result.rounds,
                 stats.csr["csr_gathers"], dispatch["shm_bytes_copied"],
                 arena["segments"], dispatch["barriers"]],
            n=n,
            workers=workers,
            seconds=seconds,
            pipeline_rounds=result.rounds,
            csr_builds=stats.csr["csr_builds"],
            csr_gathers=stats.csr["csr_gathers"],
            argsorts_avoided=stats.csr["argsorts_avoided"],
            shm_bytes_copied=dispatch["shm_bytes_copied"],
            arena_segments=arena["segments"],
            pinned_hits=arena["pinned_hits"],
            dispatch_barriers=dispatch["barriers"],
            exchanges=stats.exchanges,
            bytes_exchanged=stats.bytes_exchanged,
            shard_count=stats.shard_count,
            peak_shard_load=stats.peak_shard_load,
            engine=ctx.account(engine),
        )
    finally:
        backend.close()

    # -- isolated round step: gather vs sort fold on a warm process pool ----
    rs_n = ctx.params["roundstep_n"]
    rs_graph = Workload(
        "permutation_regular", rs_n, {"degree": DEGREE}
    ).build(ctx.seed + 1)
    index = CSRIndex.from_graph(rs_graph)
    edges = rs_graph.edges
    send = np.concatenate([edges[:, 0], edges[:, 1]])
    recv = np.concatenate([edges[:, 1], edges[:, 0]])
    # Read-only so the arena pins them, exactly like the engines do —
    # the timed calls then measure the kernels, not first-time uploads.
    send.setflags(write=False)
    recv.setflags(write=False)
    labels = np.arange(rs_n, dtype=np.int64)
    pool = ProcessBackend(
        shard_memory=rs_n + 2 * rs_graph.m,
        workers=workers,
        min_parallel_items=0,
    )
    try:
        # Warm run each shape once (pool spawn, pinned uploads).
        pool.min_label_exchange(labels, send, recv)
        pool.csr_min_label(labels, index.indptr, index.indices)
        sort_labels = ctx.timeit(
            "roundstep-sort",
            lambda: pool.min_label_exchange(labels, send, recv)[0],
        )
        sort_seconds = ctx.timings[-1].best
        csr_labels = ctx.timeit(
            "roundstep-csr",
            lambda: pool.csr_min_label(
                labels, index.indptr, index.indices
            )[0],
        )
        csr_seconds = ctx.timings[-1].best
    finally:
        pool.close()
    ctx.check(
        "roundstep-labels-identical",
        np.array_equal(sort_labels, csr_labels),
        "one gather round must equal one sort round bit for bit",
    )
    speedup = sort_seconds / csr_seconds if csr_seconds > 0 else float("inf")
    floor = FULL_ROUNDSTEP_FLOOR if ctx.is_full else MIN_ROUNDSTEP_SPEEDUP
    ctx.check(
        "roundstep-speedup",
        speedup >= floor,
        f"csr round step {csr_seconds:.4f}s vs sort {sort_seconds:.4f}s "
        f"({speedup:.2f}x, need >= {floor}x)",
    )
    ctx.record(
        "roundstep",
        row=[rs_n, "roundstep", "process", f"{csr_seconds:.4f}", "-",
             1, "-", "-", "-"],
        n=rs_n,
        incidences=int(index.indices.size),
        workers=workers,
        sort_seconds=sort_seconds,
        csr_seconds=csr_seconds,
        speedup=speedup,
    )
    ctx.note(
        f"round step at {rs_n} vertices / {index.indices.size} incidences "
        f"({workers} workers): sort {sort_seconds * 1e3:.1f} ms vs csr "
        f"{csr_seconds * 1e3:.1f} ms ({speedup:.2f}x)"
    )
