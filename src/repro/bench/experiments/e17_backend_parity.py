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
  shared-memory segments cold and none warm (recycled leases and
  pinned-input hits), plan fusion engaged, and the min-label broadcast
  run as ``csr_min_label``; per-stage dispatch barriers are recorded;
* two wall-clock gates, after every counter check: the full tier's best
  pool speedup over one worker, armed only with at least two usable
  CPUs; and the isolated round step — one ``csr_min_label`` against one
  sort-based ``min_label_exchange`` on a warm pool of the arena size —
  at least 1.3× faster at smoke scale (a CSR worker folds only its own
  contiguous slot range; the sort-based fold mask-scans all ``2m``
  incidences per worker) and never slower at the full tier's
  ``n = 10^6``, where the label gathers of both kernels miss cache.

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

#: Pool size of the arena checks and the round step without ``--workers``.
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

#: Round-step speedup floors: smoke gate, full tier's never-slower floor.
MIN_ROUNDSTEP_SPEEDUP = 1.3
FULL_ROUNDSTEP_FLOOR = 1.0


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


def _roundstep(ctx, workers: int) -> "tuple[float, float, int]":
    """Time one sort-based and one CSR min-label round on a warm pool;
    returns ``(sort_seconds, csr_seconds, incidences)``."""
    n = ctx.params["roundstep_n"]
    graph = Workload("permutation_regular", n, {"degree": DEGREE}).build(
        ctx.seed + 1
    )
    send = np.concatenate([graph.edges[:, 0], graph.edges[:, 1]])
    recv = np.concatenate([graph.edges[:, 1], graph.edges[:, 0]])
    # Read-only so the arena pins them, exactly like the engines do —
    # the timed calls then measure the kernels, not first-time uploads.
    send.setflags(write=False)
    recv.setflags(write=False)
    labels = np.arange(n, dtype=np.int64)
    with ProcessBackend(
        shard_memory=n + 2 * graph.m, workers=workers, min_parallel_items=0
    ) as pool:
        # Warm each shape once (pool spawn, pinned uploads).
        pool.min_label_exchange(labels, send, recv)
        pool.csr_min_label(labels, graph.indptr, graph.heads)
        sort_labels = ctx.timeit(
            "roundstep-sort",
            lambda: pool.min_label_exchange(labels, send, recv)[0],
        )
        sort_seconds = ctx.timings[-1].best
        csr_labels = ctx.timeit(
            "roundstep-csr",
            lambda: pool.csr_min_label(labels, graph.indptr, graph.heads)[0],
        )
        csr_seconds = ctx.timings[-1].best
    ctx.check(
        "roundstep-labels-identical",
        np.array_equal(sort_labels, csr_labels),
        "one gather round must equal one sort round bit for bit",
    )
    return sort_seconds, csr_seconds, int(graph.heads.size)


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
        "roundstep_n": 500000,
    },
    full={
        "sizes": [20000, 100000],
        "workers": [1, 2, 4],
        "seed": 11,
        "max_walk_length": 32,
        "oversample": 4,
        "max_phases": 2,
        "min_speedup": 1.5,
        "roundstep_n": 1000000,
    },
    notes=(
        "Expected shape: labels, rounds and model counters bit-identical "
        "on every backend and pool size, fleet == peak_machines; the "
        "arena pool allocates O(size classes) segments cold and none "
        "warm, fuses plans and runs the CSR broadcast; the full-tier "
        "pool speedup gate arms on multi-CPU hosts, and the isolated CSR "
        "round step beats the sort-based one (>= 1.3x smoke, never "
        "slower full)."
    ),
    tags=("pipeline", "backends", "scaling", "arena", "plans", "csr"),
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
            ctx.check(
                "arena-recycles-leases",
                warm["recycled"] > 0 and warm["pinned_hits"] > 0,
            )
            ctx.check(
                "fusion-engages",
                dispatch["serial_fused"] > 0,
                f"{dispatch['serial_fused']} plan steps kept in the parent",
            )
            ctx.check(
                "csr-engages",
                stats.csr["csr_builds"] > 0
                and stats.op_counts.get("csr_min_label", 0) > 0,
                f"{stats.csr}, {stats.op_counts}",
            )

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
            pinned_hits=warm["pinned_hits"],
            dispatch_barriers=dispatch["barriers"],
            serial_fused_steps=dispatch["serial_fused"],
            **{f"{stem}_barriers": dispatch["plan_barriers"].get(shape, 0)
               for shape, stem in PLAN_SHAPES.items()},
            shm_mbytes_copied=dispatch["shm_bytes_copied"] / 1e6,
            csr_builds=stats.csr["csr_builds"],
            engine=ctx.account(engine),
        )

    # -- the round step, then the two wall-clock gates ----------------------
    sort_seconds, csr_seconds, incidences = _roundstep(ctx, arena_workers)
    rs_speedup = sort_seconds / csr_seconds if csr_seconds > 0 else float("inf")
    ctx.record(
        "roundstep",
        row=[params["roundstep_n"], f"roundstep-w{arena_workers}",
             f"{csr_seconds:.4f}", f"{rs_speedup:.2f}x"] + ["-"] * 7,
        n=params["roundstep_n"],
        incidences=incidences,
        workers=arena_workers,
        sort_seconds=sort_seconds,
        csr_seconds=csr_seconds,
        speedup=rs_speedup,
    )
    timing = (
        f"best pool speedup {best_speedup:.2f}x over workers=1; round step "
        f"csr {csr_seconds * 1e3:.1f} ms vs sort {sort_seconds * 1e3:.1f} ms "
        f"({rs_speedup:.2f}x)"
    )
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
    floor = FULL_ROUNDSTEP_FLOOR if ctx.is_full else MIN_ROUNDSTEP_SPEEDUP
    ctx.check(
        "roundstep-speedup", rs_speedup >= floor, f"{timing}; need >= {floor}x"
    )
