"""E16 — Section 1.3: spectral-gap vs diameter parametrisation.

Paper claim: this paper's ``O(log log n + log(1/λ))`` and Andoni et al.'s
``O(log D · log log n)`` are *incomparable* — ``D = O(log n/λ)`` always,
but a dumbbell (two expanders + one bridge) has tiny gap with tiny
diameter (diameter algorithm wins), while on well-connected graphs the
gap algorithm's parameter is the stronger one.  Expected shape: each
algorithm's cost tracks *its own* parameter across the instance family —
exponentiation phases follow ``log D`` and ignore λ; pipeline walk lengths
follow ``log(1/λ)`` and ignore D.  The diameter side is the
``exponentiation`` engine (graph exponentiation, arXiv:1910.05385):
its ``phase_count`` and ``rounds`` fill the ``[6]`` columns.
"""

from __future__ import annotations

import repro
from repro.bench.registry import register_benchmark
from repro.bench.workloads import Workload
from repro.engines import get_engine
from repro.graph import (
    components_agree,
    connected_components,
    diameter,
    spectral_gap,
)
from repro.mpc import MPCEngine, make_backend


def _instances(params: dict) -> "dict[str, Workload]":
    n = params["n"]
    return {
        "expander (λ big, D small)": Workload(
            "permutation_regular", n, {"degree": 8}
        ),
        "dumbbell (λ tiny, D small)": Workload(
            "dumbbell", n, {"degree": 8, "bridges": 1}
        ),
        "chain (λ tiny, D big)": Workload(
            "expander_path", n, {"count": params["short_chain"], "degree": 8}
        ),
        "long chain (λ tinier, D bigger)": Workload(
            "expander_path", n, {"count": params["long_chain"], "degree": 8}
        ),
    }


def _run_both(workload: Workload, seed: int, max_walk_length: int,
              backend: str = "local"):
    graph = workload.build(seed)
    gap = spectral_gap(graph)
    diam = diameter(graph, rng=seed)
    config = repro.PipelineConfig(
        delta=0.5, expander_degree=4, max_walk_length=max_walk_length,
        oversample=6,
    )

    exp_result = get_engine("exponentiation").run(graph, gap, mpc=MPCEngine(4096))
    assert components_agree(exp_result.labels, connected_components(graph))

    engine = MPCEngine(4096, backend=make_backend(backend))
    pipe_result = repro.mpc_connected_components(
        graph, gap, config=config, rng=seed, engine=engine
    )
    assert components_agree(pipe_result.labels, connected_components(graph))
    return gap, diam, exp_result.phase_count, exp_result.rounds, pipe_result


@register_benchmark(
    "e16_gap_vs_diameter",
    title="Gap vs diameter parametrisation (Section 1.3 comparison with [6])",
    headers=["instance", "gap λ", "diam D", "[6] phases", "[6] rounds",
             "pipeline walk T", "pipeline rounds"],
    smoke={"n": 192, "short_chain": 4, "long_chain": 8,
           "max_walk_length": 2048, "walk_factor": 2, "seed": 19},
    full={"n": 384, "short_chain": 8, "long_chain": 16,
          "max_walk_length": 2048, "walk_factor": 3, "seed": 19},
    notes=(
        "Expected shape: exponentiation phases follow log D and are blind "
        "to λ (dumbbell as cheap as the expander); the pipeline's walk "
        "length follows log(1/λ) and is blind to D (the dumbbell is its "
        "worst case despite D = O(log n)). The parametrisations are "
        "incomparable, exactly as Section 1.3 argues."
    ),
    tags=("pipeline", "baselines"),
)
def e16_gap_vs_diameter(ctx):
    stats = {}
    instances = _instances(ctx.params)
    for name, workload in instances.items():
        if name == "dumbbell (λ tiny, D small)":
            gap, diam, phases, exp_rounds, pipe = ctx.timeit(
                "both", _run_both, workload, ctx.seed,
                ctx.params["max_walk_length"], ctx.backend,
            )
        else:
            gap, diam, phases, exp_rounds, pipe = _run_both(
                workload, ctx.seed, ctx.params["max_walk_length"], ctx.backend
            )
        stats[name] = (gap, diam, phases, pipe.walk_length)
        ctx.record(
            name,
            row=[name, f"{gap:.4f}", diam, phases, exp_rounds,
                 pipe.walk_length, pipe.rounds],
            instance=name,
            gap=float(gap),
            graph_diameter=diam,
            exponentiation_phases=phases,
            exponentiation_rounds=exp_rounds,
            pipeline_walk_length=pipe.walk_length,
            pipeline_rounds=pipe.rounds,
        )

    expander = stats["expander (λ big, D small)"]
    dumbbell = stats["dumbbell (λ tiny, D small)"]
    long_chain = stats["long chain (λ tinier, D bigger)"]
    # [6]'s cost ignores λ: dumbbell no more expensive than the expander +1.
    ctx.check("exponentiation-blind-to-gap", dumbbell[2] <= expander[2] + 1,
              f"{dumbbell[2]} vs {expander[2]}")
    # [6]'s cost follows D: the long chain needs more phases than dumbbell.
    ctx.check("exponentiation-follows-diameter", long_chain[2] > dumbbell[2],
              f"{long_chain[2]} vs {dumbbell[2]}")
    # The pipeline's cost follows λ: dumbbell walks far longer than the
    # expander (up to the configured cap).
    ctx.check(
        "pipeline-follows-gap",
        dumbbell[3] >= ctx.params["walk_factor"] * expander[3],
        f"{dumbbell[3]} vs {ctx.params['walk_factor']}x {expander[3]}",
    )
