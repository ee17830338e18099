"""E1 — Theorem 1/4 headline: rounds vs n on well-connected graphs.

Paper claim: ``O(log log n)`` MPC rounds for graphs whose components have
constant spectral gap, against the ``Θ(log n)`` of classical leader
election (random-mate) and label propagation (the ``liu_tarjan``
engine).  Expected shape: the pipeline column is (nearly) flat across
the sweep; every baseline column climbs.
"""

from __future__ import annotations

import repro
from repro import theory
from repro.baselines import random_mate_components
from repro.bench.registry import register_benchmark
from repro.bench.workloads import Workload
from repro.engines import get_engine
from repro.graph import components_agree, connected_components
from repro.mpc import MPCEngine

CONFIG = repro.PipelineConfig(
    delta=0.5, expander_degree=4, max_walk_length=160, oversample=6
)
GAP_BOUND = 0.25
DEGREE = 6


def _pipeline(
    workload: Workload, seed: int, backend: str = "local", engine: str = "paper"
):
    # Through the dispatch seam, not the hardcoded paper pipeline:
    # --engine races any registered connectivity engine over this sweep.
    graph = workload.build(seed)
    result = repro.mpc_connected_components(
        graph, spectral_gap_bound=GAP_BOUND, config=CONFIG, rng=seed,
        backend=backend, engine=engine,
    )
    assert components_agree(result.labels, connected_components(graph))
    return result


def _baselines(workload: Workload, seed: int) -> "tuple[int, int]":
    graph = workload.build(seed)
    engine_l = MPCEngine.for_delta(graph.n + graph.m, 0.5)
    get_engine("liu_tarjan").run(graph, GAP_BOUND, mpc=engine_l)
    engine_r = MPCEngine.for_delta(graph.n + graph.m, 0.5)
    random_mate_components(graph, rng=seed, engine=engine_r)
    return engine_l.rounds, engine_r.rounds


@register_benchmark(
    "e01_rounds_vs_n",
    title="MPC rounds vs n on constant-gap expanders (Theorem 1)",
    headers=["n", "pipeline", "liu-tarjan", "random-mate", "Thm1 shape",
             "log n shape"],
    smoke={"sizes": [256, 1024], "seed": 3},
    full={"sizes": [256, 1024, 4096, 16384], "seed": 3},
    notes=(
        "Expected shape: pipeline ~flat (log log n); baselines climb "
        "(log n). Absolute crossover lies beyond laptop n — the paper's "
        "win is asymptotic; the shape is the reproduced result."
    ),
    tags=("pipeline", "baselines"),
)
def e01_rounds_vs_n(ctx):
    sizes = ctx.params["sizes"]
    ours, mates = {}, {}
    for n in sizes:
        workload = Workload("permutation_regular", n, {"degree": DEGREE})
        if n == sizes[-1]:
            result = ctx.timeit(
                "pipeline", _pipeline, workload, ctx.seed, ctx.backend, ctx.engine
            )
        else:
            result = _pipeline(workload, ctx.seed, ctx.backend, ctx.engine)
        ours[n] = result.rounds
        liu_tarjan, mates[n] = _baselines(workload, ctx.seed)
        ctx.record(
            workload.label,
            row=[n, ours[n], liu_tarjan, mates[n],
                 f"{theory.theorem1_rounds(n, GAP_BOUND, delta=0.5):.1f}",
                 f"{theory.classical_pram_rounds(n):.1f}"],
            n=n,
            pipeline_rounds=ours[n],
            liu_tarjan_rounds=liu_tarjan,
            random_mate_rounds=mates[n],
            pipeline_engine=ctx.account(result.engine),
        )

    # Shape: the pipeline may not grow faster than the doubly-log budget,
    # while random-mate must keep climbing with log n.
    first, last = sizes[0], sizes[-1]
    ctx.check("pipeline-nearly-flat", ours[last] - ours[first] <= 8,
              f"{ours[first]} -> {ours[last]}")
    if ctx.is_full:
        ctx.check("random-mate-climbs", mates[last] >= mates[first] + 8,
                  f"{mates[first]} -> {mates[last]}")
    else:
        ctx.check("random-mate-climbs", mates[last] > mates[first],
                  f"{mates[first]} -> {mates[last]}")
