"""E17 — execution backends: accounting-only vs sharded data plane.

The Theorem 4 pipeline runs twice per size with identical seeds: once on
the historical accounting-only ``LocalBackend`` and once on the
``ShardedBackend``, whose numpy shards enforce the per-shard memory cap
``s`` and the per-round communication cap of the MPC model while counting
exchange barriers and bytes moved.  Expected shape: bit-identical labels,
identical round charges (the control plane is deterministic in the data
sizes), materialised exchanges within the charged round budget, and a
shard fleet that matches ``peak_machines`` — i.e. the rounds the engine
reports are *achievable* under hard resource bounds.

The ``full`` tier runs ``n = 10^5`` (walk length capped — the honest
verification broadcast guarantees exactness regardless), demonstrating the
end-to-end sharded pipeline at paper scale.
"""

from __future__ import annotations

import time

import numpy as np

import repro
from repro.bench.registry import register_benchmark
from repro.bench.workloads import Workload
from repro.engines import get_engine
from repro.graph import components_agree, connected_components
from repro.mpc import LocalBackend, MPCEngine, ShardedBackend

DEGREE = 6
GAP_BOUND = 0.25
DELTA = 0.35


def _config(params: dict) -> "repro.PipelineConfig":
    return repro.PipelineConfig(
        delta=DELTA,
        expander_degree=4,
        max_walk_length=params["max_walk_length"],
        oversample=params["oversample"],
        max_phases=params["max_phases"],
    )


def _run(
    workload: Workload, seed: int, config, backend_factory, engine_name: str
) -> "tuple":
    graph = workload.build(seed)
    # A fresh backend per run: timeit repeats must not accumulate counters.
    engine = MPCEngine.for_delta(
        max(graph.n + graph.m, 2), DELTA, backend=backend_factory()
    )
    # Through the engine dispatch seam (not the hardcoded paper
    # pipeline): --engine certifies any registered algorithm on both
    # data planes.
    result = get_engine(engine_name).run(
        graph, GAP_BOUND, config=config, rng=seed, mpc=engine
    )
    return graph, result, engine


@register_benchmark(
    "e17_backend_comparison",
    title="Execution backends: local accounting vs enforced numpy shards",
    headers=["n", "rounds", "shards", "peak load", "exchanges", "KB moved",
             "local s", "sharded s"],
    smoke={
        "sizes": [256, 1024],
        "seed": 7,
        "max_walk_length": 64,
        "oversample": 6,
        "max_phases": 4,
    },
    full={
        "sizes": [20000, 100000],
        "seed": 7,
        "max_walk_length": 32,
        "oversample": 4,
        "max_phases": 2,
    },
    notes=(
        "Expected shape: identical labels and round counts on both "
        "backends; sharded exchanges stay within the charged rounds; "
        "shard fleet == engine peak_machines. The sharded counters "
        "(shard_count, peak_shard_load, bytes_exchanged, exchanges) are "
        "regression-gated by --compare."
    ),
    tags=("pipeline", "backends"),
)
def e17_backend_comparison(ctx):
    config = _config(ctx.params)
    for n in ctx.params["sizes"]:
        workload = Workload("permutation_regular", n, {"degree": DEGREE})

        start = time.perf_counter()
        graph, local_result, local_engine = _run(
            workload, ctx.seed, config, LocalBackend, ctx.engine
        )
        local_seconds = time.perf_counter() - start

        if n == ctx.params["sizes"][-1]:
            _, sharded_result, sharded_engine = ctx.timeit(
                "sharded-pipeline", _run, workload, ctx.seed, config,
                ShardedBackend, ctx.engine,
            )
            sharded_seconds = ctx.timings[-1].best
        else:
            start = time.perf_counter()
            _, sharded_result, sharded_engine = _run(
                workload, ctx.seed, config, ShardedBackend, ctx.engine
            )
            sharded_seconds = time.perf_counter() - start

        stats = sharded_engine.backend.stats()
        charges = sharded_engine.charges

        ctx.check(
            f"labels-identical-n{n}",
            np.array_equal(local_result.labels, sharded_result.labels),
            "both backends must produce bit-identical components",
        )
        ctx.check(
            f"labels-correct-n{n}",
            components_agree(sharded_result.labels, connected_components(graph)),
        )
        ctx.check(
            f"rounds-identical-n{n}",
            local_result.rounds == sharded_result.rounds,
            f"{local_result.rounds} vs {sharded_result.rounds}",
        )
        ctx.check(
            f"exchanges-within-rounds-n{n}",
            stats.exchanges <= sharded_result.rounds,
            f"{stats.exchanges} exchanges vs {sharded_result.rounds} rounds",
        )
        ctx.check(
            f"exchanges-attributed-n{n}",
            stats.exchanges - sum(c.exchanges for c in charges) <= 1,
            "at most the trailing stabilisation probe may be unattributed",
        )
        ctx.check(
            f"fleet-matches-accounting-n{n}",
            stats.shard_count == sharded_engine.peak_machines,
            f"{stats.shard_count} shards vs {sharded_engine.peak_machines} machines",
        )

        ctx.record(
            workload.label,
            row=[n, sharded_result.rounds, stats.shard_count,
                 stats.peak_shard_load, stats.exchanges,
                 f"{stats.bytes_exchanged / 1024:.0f}",
                 f"{local_seconds:.2f}", f"{sharded_seconds:.2f}"],
            n=n,
            pipeline_rounds=sharded_result.rounds,
            shard_count=stats.shard_count,
            peak_shard_load=stats.peak_shard_load,
            exchanges=stats.exchanges,
            bytes_exchanged=stats.bytes_exchanged,
            local_seconds=local_seconds,
            sharded_seconds=sharded_seconds,
            sharded_engine=ctx.account(sharded_engine),
        )
