"""E17 — backend parity: the Theorem 4 pipeline on every data plane.

The paper pipeline runs with identical seeds on ``LocalBackend`` and
``ShardedBackend`` at every size, and at the largest size on one warm
:class:`~repro.mpc.ProcessBackend` per pool size.  The backends may
change wall-clock, never results or accounting.  Expected shape:

* every size: bit-identical labels on local and sharded, equal to
  union-find; identical rounds; exchanges within the charged rounds, at
  most the trailing stabilisation probe unattributed; and a shard fleet
  equal to ``peak_machines`` — the rounds the engine reports are
  achievable under the hard per-shard memory and communication caps;
* every pool: labels bit-identical to both references, and the model
  counters (rounds, exchanges, bytes, shards, peak shard load)
  identical to sharded;
* the arena pool (2 workers, or ``--workers N``): O(size classes)
  shared-memory segments cold and none warm (recycled leases);
  per-stage dispatch barriers are recorded;
* one wall-clock gate, after every counter check: the full tier's best
  pool speedup over one worker, armed only with at least two usable
  CPUs.

The case runs the paper pipeline whatever ``--backend`` and ``--engine``
say; ``--workers N`` changes the pool sweep to ``{1, N}``.
"""

from __future__ import annotations

import time

import numpy as np

import repro
from repro.bench.registry import register_benchmark
from repro.bench.workloads import Workload
from repro.graph import components_agree, connected_components
from repro.mpc import LocalBackend, MPCEngine, ProcessBackend, ShardedBackend
from repro.mpc.process_backend import usable_cpu_count

DEGREE = 6
GAP_BOUND = 0.25
DELTA = 0.3

#: Pool size of the arena checks without ``--workers``.
ARENA_WORKERS = 2

#: Ceiling on cold-run segment allocations: one segment per (size class ×
#: concurrent lease), independent of the pipeline's operation count.
MAX_ARENA_SEGMENTS = 24

#: Plan shapes the pipeline submits → stable record-field stems.
PLAN_SHAPES = {
    "scatter-input": "scatter",
    "contract": "contract",
    "relabel": "relabel",
    "broadcast-level": "broadcast",
}


def _run(graph, seed: int, config, backend):
    """One timed pipeline execution on ``backend`` with a fresh engine.

    The backend is reset first so repeated runs do not accumulate
    counters (arena segments survive resets by design).
    """
    backend.reset()
    start = time.perf_counter()
    engine = MPCEngine.for_delta(max(graph.n + graph.m, 2), DELTA, backend=backend)
    result = repro.mpc_connected_components(
        graph, spectral_gap_bound=GAP_BOUND, config=config, rng=seed,
        engine=engine,
    )
    return result, engine, time.perf_counter() - start


def _counters(result, stats) -> dict:
    """The model counters every backend must agree on."""
    return {
        "pipeline_rounds": result.rounds,
        "exchanges": stats.exchanges,
        "bytes_exchanged": stats.bytes_exchanged,
        "shard_count": stats.shard_count,
        "peak_shard_load": stats.peak_shard_load,
    }


@register_benchmark(
    "e17_backend_parity",
    title="Backend parity: the paper pipeline on local, sharded and process",
    headers=["n", "backend", "seconds", "speedup", "rounds", "shards",
             "exchanges", "KB moved", "cold segs", "warm segs", "barriers"],
    smoke={
        "sizes": [1024, 4096],
        "workers": [1, 2],
        "seed": 11,
        "max_walk_length": 64,
        "oversample": 6,
        "max_phases": 4,
        "min_speedup": 0.0,
    },
    full={
        "sizes": [20000, 100000],
        "workers": [1, 2, 4],
        "seed": 11,
        "max_walk_length": 32,
        "oversample": 4,
        "max_phases": 2,
        "min_speedup": 1.5,
    },
    notes=(
        "Expected shape: labels, rounds and model counters bit-identical "
        "on every backend and pool size, fleet == peak_machines; the "
        "arena pool allocates O(size classes) segments cold and none "
        "warm; the full-tier pool speedup gate arms on multi-CPU hosts."
    ),
    tags=("pipeline", "backends", "scaling", "arena", "plans"),
)
def e17_backend_parity(ctx):
    params = ctx.params
    config = repro.PipelineConfig(
        delta=DELTA,
        expander_degree=4,
        max_walk_length=params["max_walk_length"],
        oversample=params["oversample"],
        max_phases=params["max_phases"],
    )
    for n in params["sizes"]:
        graph = Workload("permutation_regular", n, {"degree": DEGREE}).build(
            ctx.seed
        )
        local, _, local_seconds = _run(graph, ctx.seed, config, LocalBackend())
        sharded_backend = ShardedBackend()
        sharded, sharded_engine, sharded_seconds = _run(
            graph, ctx.seed, config, sharded_backend
        )
        reference = sharded_backend.stats()
        unattributed = reference.exchanges - sum(
            c.exchanges for c in sharded_engine.charges
        )
        for name, ok, detail in (
            ("labels-identical",
             np.array_equal(local.labels, sharded.labels),
             "both backends must produce bit-identical components"),
            ("labels-correct",
             components_agree(sharded.labels, connected_components(graph)),
             ""),
            ("rounds-identical", local.rounds == sharded.rounds,
             f"{local.rounds} vs {sharded.rounds}"),
            ("exchanges-within-rounds", reference.exchanges <= sharded.rounds,
             f"{reference.exchanges} exchanges vs {sharded.rounds} rounds"),
            ("exchanges-attributed", unattributed <= 1,
             "at most the trailing stabilisation probe may be unattributed"),
            ("fleet-matches-accounting",
             reference.shard_count == sharded_engine.peak_machines,
             f"{reference.shard_count} shards vs "
             f"{sharded_engine.peak_machines} machines"),
        ):
            ctx.check(f"{name}-n{n}", ok, detail)
        ctx.record(
            f"n={n}/sharded",
            row=[n, "sharded", f"{sharded_seconds:.3f}", "-", sharded.rounds,
                 reference.shard_count, reference.exchanges,
                 f"{reference.bytes_exchanged / 1024:.0f}", "-", "-", "-"],
            n=n,
            **_counters(sharded, reference),
            local_seconds=local_seconds,
            sharded_seconds=sharded_seconds,
            engine=ctx.account(sharded_engine),
        )

    # -- process pools at the largest size (the loop's last graph) ----------
    arena_workers = ctx.workers or ARENA_WORKERS
    sweep = sorted({1, ctx.workers}) if ctx.workers else params["workers"]
    cpus = usable_cpu_count()
    ctx.note(f"host exposes {cpus} usable CPU(s); pool sweep: workers={sweep}")
    baseline_seconds = None
    best_speedup = 0.0
    for workers in sweep:
        with ProcessBackend(workers=workers, min_parallel_items=0) as backend:
            _run(graph, ctx.seed, config, backend)  # cold: spawn, arena sizing
            cold = backend.arena_stats()
            result, engine, _ = ctx.timeit(
                f"pipeline-w{workers}", _run, graph, ctx.seed, config, backend
            )
            seconds = ctx.timings[-1].best
            warm = backend.arena_stats()
            stats = backend.stats()
        dispatch = stats.dispatch
        warm_segments = warm["segments"] - cold["segments"]
        ctx.check(
            f"labels-identical-w{workers}",
            np.array_equal(result.labels, local.labels)
            and np.array_equal(result.labels, sharded.labels),
            "process labels must be bit-identical to both references",
        )
        ctx.check(
            f"counters-match-sharded-w{workers}",
            _counters(result, stats) == _counters(sharded, reference),
            "worker pools must not change the model accounting",
        )
        if workers == arena_workers:
            ctx.check(
                "arena-cold-segments-bounded",
                cold["segments"] <= MAX_ARENA_SEGMENTS,
                f"{cold['segments']} segments for "
                f"{sum(stats.op_counts.values())} ops",
            )
            ctx.check(
                "arena-warm-segments-zero",
                warm_segments == 0,
                f"warm runs allocated {warm_segments} new segments",
            )
            ctx.check("arena-recycles-leases", warm["recycled"] > 0)

        baseline_seconds = baseline_seconds or seconds
        speedup = baseline_seconds / seconds if seconds > 0 else 0.0
        if workers > 1:
            best_speedup = max(best_speedup, speedup)
        ctx.record(
            f"n={n}/process-w{workers}",
            row=[n, f"process-w{workers}", f"{seconds:.3f}", f"{speedup:.2f}x",
                 result.rounds, stats.shard_count, stats.exchanges,
                 f"{stats.bytes_exchanged / 1024:.0f}", cold["segments"],
                 warm_segments, dispatch["barriers"]],
            n=n,
            workers=workers,
            seconds=seconds,
            speedup_vs_one_worker=speedup,
            **_counters(result, stats),
            shm_segments=cold["segments"],
            warm_segments=warm_segments,
            leases_recycled=warm["recycled"],
            dispatch_barriers=dispatch["barriers"],
            **{f"{stem}_barriers": dispatch["plan_barriers"].get(shape, 0)
               for shape, stem in PLAN_SHAPES.items()},
            shm_mbytes_copied=dispatch["shm_bytes_copied"] / 1e6,
            engine=ctx.account(engine),
        )

    # -- the wall-clock gate -------------------------------------------------
    timing = f"best pool speedup {best_speedup:.2f}x over workers=1"
    ctx.note(timing)
    min_speedup = params["min_speedup"]
    if min_speedup > 0 and max(sweep) > 1 and cpus >= 2:
        ctx.check(
            f"speedup-at-least-{min_speedup}x", best_speedup > min_speedup, timing
        )
    else:
        ctx.note(
            "pool speedup gate skipped: "
            + ("single-CPU host" if cpus < 2 else "record-only tier")
        )
