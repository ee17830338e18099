"""E21 — engine race: paper pipeline vs Liu–Tarjan vs exponentiation.

Every registered connectivity engine answers the same question on the
same generator families through the same dispatch seam
(``mpc_connected_components(..., engine=)``), on the true-parallel
:class:`~repro.mpc.ProcessBackend` — so the race compares *algorithms*,
never data planes.  Per family and engine the artifact records MPC
rounds, algorithm phases, dispatch barriers,
materialised exchanges, bytes moved, and wall-clock seconds, all under
the ``--compare`` counter gates.  Expected shape:

* labels bit-identical across all three engines on every family (each
  engine is differentially certified against union-find truth in
  ``tests/test_engines.py``; here the cross-engine equality is asserted
  end-to-end on the process data plane);
* on the designated low-diameter families the exponentiation engine's
  ``O(log D)`` bound beats the paper pipeline's round count outright —
  the headline acceptance claim of the engine subsystem;
* the portfolio dispatcher's per-family pick is reported so a feature or
  threshold change shows up as a diff, not a silent re-route.

This case always exercises the process backend regardless of
``--backend``; ``--workers N`` resizes the pool (default 2).  The
``--engine`` axis is deliberately ignored: the race *is* the sweep over
engines.
"""

from __future__ import annotations

import time

import numpy as np

import repro
from repro.bench.registry import register_benchmark
from repro.bench.workloads import Workload
from repro.engines import choose_engine, estimate_features
from repro.graph import components_agree, connected_components
from repro.mpc import ProcessBackend

GAP_BOUND = 0.1
DELTA = 0.5

#: Engines raced head-to-head (the portfolio dispatcher is reported as a
#: per-family pick rather than re-run — it delegates to one of these).
RACE = ("paper", "liu_tarjan", "exponentiation")

#: Families whose components have low diameter at these sizes — the
#: regime where exponentiation's O(log D) rounds must beat the paper
#: pipeline's O(log log n) pipeline outright.
LOW_DIAMETER = ("star", "complete", "hypercube", "dumbbell")

#: Dense/structured families stay small so the race finishes in seconds.
SIZE_OVERRIDES = {"complete": 64, "hypercube": 64}


def _config(params: dict) -> "repro.PipelineConfig":
    return repro.PipelineConfig(
        delta=DELTA,
        expander_degree=4,
        max_walk_length=params["max_walk_length"],
        oversample=params["oversample"],
        max_phases=params["max_phases"],
    )


def _race_once(graph, seed: int, config, engine_name: str, backend):
    """One engine run through the public dispatch seam, with timing."""
    backend.reset()
    start = time.perf_counter()
    result = repro.mpc_connected_components(
        graph, spectral_gap_bound=GAP_BOUND, config=config, rng=seed,
        backend=backend, engine=engine_name,
    )
    seconds = time.perf_counter() - start
    return result, backend.stats(), seconds


@register_benchmark(
    "e21_engine_race",
    title="Connectivity engines raced head-to-head per generator family",
    headers=["family", "engine", "n", "rounds", "phases", "barriers",
             "exchanges", "KB moved", "seconds"],
    smoke={
        "families": ["star", "complete", "hypercube", "dumbbell",
                     "permutation_regular", "path"],
        "n": 192,
        "workers": 2,
        "seed": 23,
        "max_walk_length": 32,
        "oversample": 4,
        "max_phases": 2,
    },
    full={
        "families": ["complete", "cycle", "dumbbell", "erdos_renyi",
                     "expander_path", "grid", "hypercube", "paper_random",
                     "path", "permutation_regular", "ring_of_expanders",
                     "star"],
        "n": 2048,
        "workers": 2,
        "seed": 23,
        "max_walk_length": 64,
        "oversample": 6,
        "max_phases": 4,
    },
    notes=(
        "Expected shape: bit-identical labels across every engine and "
        "family; exponentiation strictly beats the paper pipeline's "
        "round count on the low-diameter families (star, complete, "
        "hypercube, dumbbell); rounds/phases/barriers/exchanges are all "
        "regression-gated by --compare."
    ),
    tags=("pipeline", "engines", "backends"),
)
def e21_engine_race(ctx):
    config = _config(ctx.params)
    n = ctx.params["n"]
    workers = ctx.workers or ctx.params["workers"]

    # One pool per engine, reused across families (reset() per run keeps
    # the counters attributable); a throwaway warm-up run per pool so the
    # seconds column compares algorithms, not process spawns.
    warmup = Workload("path", 32).build(ctx.seed)
    backends = {}
    picks = []
    try:
        for engine_name in RACE:
            backends[engine_name] = ProcessBackend(
                workers=workers, min_parallel_items=0
            )
            _race_once(warmup, ctx.seed, config, engine_name,
                       backends[engine_name])

        for family in ctx.params["families"]:
            size = SIZE_OVERRIDES.get(family, n)
            graph = Workload(family, size).build(ctx.seed)
            truth = connected_components(graph)

            features = estimate_features(graph, GAP_BOUND)
            pick = choose_engine(features)
            ctx.check(
                f"portfolio-pick-registered-{family}",
                pick in RACE,
                f"portfolio chose unknown engine {pick!r}",
            )
            picks.append(f"{family}→{pick}")
            ctx.record(
                f"{family}/portfolio-pick",
                family=family,
                n=size,
                pick=pick,
                est_diameter=features.est_diameter,
            )

            rounds = {}
            paper_labels = None
            for engine_name in RACE:
                result, stats, seconds = _race_once(
                    graph, ctx.seed, config, engine_name,
                    backends[engine_name],
                )
                rounds[engine_name] = result.rounds

                ctx.check(
                    f"labels-correct-{family}-{engine_name}",
                    components_agree(result.labels, truth),
                    "engine must reproduce union-find components",
                )
                if engine_name == "paper":
                    paper_labels = result.labels
                else:
                    ctx.check(
                        f"labels-identical-{family}-{engine_name}",
                        np.array_equal(result.labels, paper_labels),
                        "engines must agree bit-for-bit, not just up to "
                        "relabelling",
                    )

                ctx.record(
                    f"{family}/{engine_name}",
                    row=[family, engine_name, size, result.rounds,
                         result.phase_count, stats.dispatch["barriers"],
                         stats.exchanges,
                         f"{stats.bytes_exchanged / 1024:.0f}",
                         f"{seconds:.3f}"],
                    family=family,
                    n=size,
                    pipeline_rounds=result.rounds,
                    engine_phases=result.phase_count,
                    dispatch_barriers=stats.dispatch["barriers"],
                    plans_run=stats.plans,
                    exchanges=stats.exchanges,
                    bytes_exchanged=stats.bytes_exchanged,
                    seconds=seconds,
                    mpc=ctx.account(result.engine),
                )

            if family in LOW_DIAMETER:
                ctx.check(
                    f"exponentiation-beats-paper-{family}",
                    rounds["exponentiation"] < rounds["paper"],
                    f"O(log D) must win on low-diameter input: "
                    f"{rounds['exponentiation']} vs {rounds['paper']} rounds",
                )
    finally:
        for backend in backends.values():
            backend.close()

    ctx.note("portfolio picks: " + ", ".join(picks))
