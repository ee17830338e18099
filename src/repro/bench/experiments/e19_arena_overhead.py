"""E19 — arena-backed executor: segment allocations and dispatch cost.

The Theorem 4 pipeline runs on the true-parallel
:class:`~repro.mpc.ProcessBackend` — persistent shared-memory arena,
fused plan dispatch — against a serial ``ShardedBackend`` reference.
Expected shape:

* labels, round counts, and every model counter (``exchanges``,
  ``bytes_exchanged``, ``shard_count``, ``peak_shard_load``)
  bit-identical to the reference — the arena and plan fusion change
  dispatch cost, never results or accounting;
* cold-run segment allocations stay O(size classes), independent of
  the operation count (``shm_segments``, regression-gated via the
  ``*segments`` counter suffix);
* *warm* runs on a live arena allocate **zero** new segments
  (``warm_segments``, gated at 0) — every buffer is a recycled lease,
  plus pinned-input cache hits for the loop-invariant broadcast CSR
  arrays;
* plan fusion engages (``serial_fused_steps > 0``: the contract stage's
  search→reduce pair costs one barrier), and the per-stage barrier
  counts (``contract``, ``relabel``, ``broadcast-level``,
  ``scatter-input`` plan shapes) are recorded so a dispatch change
  shows exactly which stage moved (``*barriers``, regression-gated).

This case always exercises the process backend regardless of
``--backend``; ``--workers N`` resizes the pool (default 2).
"""

from __future__ import annotations

import numpy as np

import repro
from repro.bench.registry import register_benchmark
from repro.bench.workloads import Workload
from repro.graph import components_agree, connected_components
from repro.mpc import MPCEngine, ProcessBackend, ShardedBackend

DEGREE = 6
GAP_BOUND = 0.25
DELTA = 0.3

#: Ceiling on cold-run segment allocations: the arena allocates one
#: segment per (size class × concurrent lease), which is independent of
#: how many operations the pipeline executes.
MAX_ARENA_SEGMENTS = 24

#: Plan shapes the pipeline submits, mapped to stable record-field stems
#: (record keys must not contain the compare-gated suffix accidentally).
PLAN_SHAPES = {
    "scatter-input": "scatter",
    "contract": "contract",
    "relabel": "relabel",
    "broadcast-level": "broadcast",
}


def _config(params: dict) -> "repro.PipelineConfig":
    return repro.PipelineConfig(
        delta=DELTA,
        expander_degree=4,
        max_walk_length=params["max_walk_length"],
        oversample=params["oversample"],
        max_phases=params["max_phases"],
    )


def _run(graph, seed: int, config, backend):
    """One pipeline execution on ``backend`` with a fresh engine.

    The backend is reset first so repeated timing runs do not accumulate
    exchange/byte counters (arena segments survive resets by design —
    that persistence is what this experiment measures).
    """
    backend.reset()
    engine = MPCEngine.for_delta(
        max(graph.n + graph.m, 2), DELTA, backend=backend
    )
    result = repro.mpc_connected_components(
        graph, spectral_gap_bound=GAP_BOUND, config=config, rng=seed, engine=engine
    )
    return result, engine


@register_benchmark(
    "e19_arena_overhead",
    title="Process backend: shm arena segments and fused dispatch barriers",
    headers=["n", "seconds", "rounds", "cold segs", "warm segs", "recycled",
             "pinned", "barriers", "contract", "serial-fused", "per-op ms"],
    smoke={
        "n": 4096,
        "workers": 2,
        "seed": 13,
        "max_walk_length": 64,
        "oversample": 6,
        "max_phases": 4,
    },
    full={
        "n": 100000,
        "workers": 2,
        "seed": 13,
        "max_walk_length": 32,
        "oversample": 4,
        "max_phases": 2,
    },
    notes=(
        "Expected shape: labels/rounds/model counters bit-identical to "
        "the serial sharded reference; cold-run segment allocations "
        "O(size classes); warm runs allocate zero new segments (every "
        "buffer is a recycled lease) and hit the pinned-input cache for "
        "the broadcast CSR arrays; plan fusion engages, with per-stage "
        "dispatch barriers recorded."
    ),
    tags=("pipeline", "backends", "arena", "plans"),
)
def e19_arena_overhead(ctx):
    config = _config(ctx.params)
    n = ctx.params["n"]
    workers = ctx.workers or ctx.params["workers"]
    graph = Workload("permutation_regular", n, {"degree": DEGREE}).build(ctx.seed)
    truth = connected_components(graph)

    sharded_backend = ShardedBackend()
    sharded_result, _ = _run(graph, ctx.seed, config, sharded_backend)
    reference = sharded_backend.stats()
    ctx.check("reference-labels-correct",
              components_agree(sharded_result.labels, truth))

    backend = ProcessBackend(workers=workers, min_parallel_items=0)
    try:
        # Cold run: the arena sizes itself (allocations happen here).
        _run(graph, ctx.seed, config, backend)
        cold = backend.arena_stats()

        # Warm runs: a live arena must serve everything from recycled
        # leases — zero new segments.
        result, engine = ctx.timeit(
            "pipeline-arena-on", _run, graph, ctx.seed, config, backend
        )
        seconds = ctx.timings[-1].best
        warm = backend.arena_stats()
        stats = backend.stats()
        dispatch = stats.dispatch
        by_stage = {
            PLAN_SHAPES.get(name, name): count
            for name, count in dispatch["plan_barriers"].items()
        }
        ops = sum(stats.op_counts.values())
        warm_segments = warm["segments"] - cold["segments"]

        ctx.check(
            "labels-identical-arena-on",
            np.array_equal(result.labels, sharded_result.labels),
            "the process backend must not change results",
        )
        ctx.check(
            "rounds-identical-arena-on",
            result.rounds == sharded_result.rounds,
            f"{result.rounds} vs {sharded_result.rounds}",
        )
        ctx.check(
            "counters-match-sharded-arena-on",
            (stats.exchanges, stats.bytes_exchanged, stats.shard_count,
             stats.peak_shard_load)
            == (reference.exchanges, reference.bytes_exchanged,
                reference.shard_count, reference.peak_shard_load),
            "buffer management and dispatch must not change the model "
            "accounting",
        )
        ctx.check(
            "arena-cold-segments-bounded",
            cold["segments"] <= MAX_ARENA_SEGMENTS,
            f"{cold['segments']} segments for {ops} ops",
        )
        ctx.check(
            "arena-warm-segments-zero",
            warm_segments == 0,
            f"warm runs allocated {warm_segments} new segments",
        )
        ctx.check(
            "arena-recycles-leases",
            warm["recycled"] > 0 and warm["pinned_hits"] > 0,
        )
        ctx.check(
            "fusion-engages",
            dispatch["serial_fused"] > 0,
            f"{dispatch['serial_fused']} plan steps kept in the parent",
        )

        ctx.record(
            "arena=on",
            row=[n, f"{seconds:.3f}", result.rounds, cold["segments"],
                 warm_segments, warm["recycled"], warm["pinned_hits"],
                 dispatch["barriers"], by_stage.get("contract", 0),
                 dispatch["serial_fused"],
                 f"{1000.0 * seconds / max(ops, 1):.2f}"],
            n=n,
            workers=workers,
            seconds=seconds,
            pipeline_rounds=result.rounds,
            backend_ops=ops,
            plans_run=stats.plans,
            per_op_dispatch_ms=1000.0 * seconds / max(ops, 1),
            shm_segments=cold["segments"],
            warm_segments=warm_segments,
            leases_issued=warm["leases"],
            leases_recycled=warm["recycled"],
            pinned_hits=warm["pinned_hits"],
            dispatch_barriers=dispatch["barriers"],
            dispatch_messages=dispatch["messages"],
            dispatch_steps=dispatch["steps"],
            serial_fused_steps=dispatch["serial_fused"],
            contract_barriers=by_stage.get("contract", 0),
            relabel_barriers=by_stage.get("relabel", 0),
            broadcast_barriers=by_stage.get("broadcast", 0),
            scatter_barriers=by_stage.get("scatter", 0),
            shm_mbytes_copied=dispatch["shm_bytes_copied"] / 1e6,
            exchanges=stats.exchanges,
            bytes_exchanged=stats.bytes_exchanged,
            shard_count=stats.shard_count,
            peak_shard_load=stats.peak_shard_load,
            engine=ctx.account(engine),
        )
    finally:
        backend.close()

    ctx.note(
        f"cold-run segment allocations: {cold['segments']} for {ops} "
        f"backend ops; dispatch barriers per warm run: "
        f"{dispatch['barriers']} ({dispatch['serial_fused']} plan steps "
        "fused into the parent)"
    )
