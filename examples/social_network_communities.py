"""Community detection on a social-network-like graph, gap unknown.

The paper's introduction motivates sparse connectivity with social
networks: massive, sparse (O(n) edges), and well-connected inside
communities.  This example builds a heavy-tailed community workload
(a few large communities plus a tail of small ones), runs the *adaptive*
pipeline (Corollary 7.1 — no spectral-gap knowledge), and compares its
round bill against the classical O(log n) comparators.

Run:  python examples/social_network_communities.py
"""

from __future__ import annotations

import repro
from repro.baselines import random_mate_components
from repro.engines import get_engine
from repro.graph import components_agree, connected_components
from repro.mpc import MPCEngine


def main(scale: str = "default") -> dict:
    if scale == "small":
        community_sizes = [80, 40]
    else:
        community_sizes = [3000, 1200, 600, 300]
    seed = 13

    graph, _ = repro.graph.community_graph(
        community_sizes, intra_degree=10, rng=seed, skew_tail=True
    )
    reference = connected_components(graph)
    print(f"social graph: n = {graph.n}, m = {graph.m}, "
          f"{int(reference.max()) + 1} communities (sizes skew-tailed)")

    print("\n== Adaptive pipeline (Corollary 7.1: spectral gap unknown) ==")
    config = repro.PipelineConfig(max_walk_length=192)
    adaptive = repro.mpc_connected_components_adaptive(graph, config=config, rng=seed)
    assert components_agree(adaptive.labels, reference)
    for it in adaptive.iterations:
        print(f"  guess λ'={it.gap_guess:.3f}  T={it.walk_length:<5} "
              f"rounds={it.rounds:<4} finished={it.finished_vertices:<6} "
              f"active={it.active_vertices}")
    print(f"  total MPC rounds: {adaptive.rounds}")

    print("\n== Classical comparators (same exact answer) ==")
    rows = []
    for name, runner in [
        ("liu-tarjan (Θ(log n))", lambda e: get_engine("liu_tarjan").run(graph, 0.0, mpc=e)),
        ("random-mate (Θ(log n))", lambda e: random_mate_components(graph, rng=seed, engine=e)),
    ]:
        engine = MPCEngine(adaptive.engine.machine_memory)
        result = runner(engine)
        assert components_agree(result.labels, reference)
        rows.append((name, engine.rounds))
        print(f"  {name:<26} {engine.rounds:>5} rounds")

    print(f"\n  adaptive pipeline          {adaptive.rounds:>5} rounds")
    print("\n(The pipeline spends rounds on walks/growth but its count is "
          "governed by log log n — on larger graphs the classical counts "
          "keep growing as log n while the pipeline's flattens; see bench "
          "E1 for the sweep.)")
    return {"adaptive_rounds": adaptive.rounds, "baselines": dict(rows)}


if __name__ == "__main__":
    main()
