"""Portfolio dispatcher: pick the engine from cheap workload features.

No single connectivity algorithm dominates: graph exponentiation is
round-optimal ``O(log D)`` on low-diameter inputs, the paper pipeline's
``O(log log n + log(1/λ))`` wins when components are well connected
(large spectral gap) regardless of size, and Liu–Tarjan's ``O(log n)``
is the robust fallback when neither regime is detected.  The portfolio
engine measures two cheap features — an estimated diameter from sampled
double-sweep BFS probes, and the caller's spectral-gap bound — and
delegates to the winner's regime:

========================  =========================================
Feature regime            Engine chosen
========================  =========================================
``est_diameter`` small    ``exponentiation`` (``O(log D)`` optimal)
``gap_bound`` large       ``paper`` (gap-driven round budget)
otherwise                 ``liu_tarjan`` (``O(log n)`` fallback)
========================  =========================================

Every engine returns the exact component partition, so the portfolio's
labels are bit-identical to the paper engine's no matter which engine it
picks — the choice only moves the round/wall-time trade-off.  The
feature probes run client-side on the input summary and are not charged
MPC rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.pipeline import PipelineResult
from repro.engines.base import (
    ConnectivityEngine,
    get_engine,
    incidence_arrays,
    register_engine,
)
from repro.graph.graph import Graph


@dataclass(frozen=True)
class WorkloadFeatures:
    """The cheap per-input features the dispatcher reads."""

    n: int
    m: int
    est_diameter: int
    gap_bound: float


def _eccentricity(
    n: int, send: np.ndarray, recv: np.ndarray, start: int
) -> "tuple[int, int]":
    """BFS eccentricity of ``start`` within its component.

    Returns ``(eccentricity, farthest_vertex)`` using vectorised
    level-synchronous relaxation over the incidence arrays.
    """
    dist = np.full(n, -1, dtype=np.int64)
    dist[start] = 0
    level = 0
    while True:
        fresh = (dist[send] == level) & (dist[recv] < 0)
        if not fresh.any():
            break
        dist[recv[fresh]] = level + 1
        level += 1
    farthest = int(np.argmax(dist))
    return int(dist[farthest]), farthest


def estimate_features(graph: Graph, gap_bound: float) -> WorkloadFeatures:
    """Measure the dispatcher's features with sampled double-sweep BFS.

    Three spread-out seed vertices are probed; each probe runs one BFS,
    then a second from the farthest vertex found (the classic
    double-sweep lower bound on that component's diameter).  The
    estimate is the maximum over probes — exact on single-component
    graphs whose diameter is realised from a probed component, and a
    lower bound otherwise, which errs toward the diameter-robust
    engines.
    """
    n = graph.n
    if graph.m == 0:
        return WorkloadFeatures(
            n=n, m=0, est_diameter=0, gap_bound=float(gap_bound)
        )
    send, recv = incidence_arrays(graph.edges)
    seeds = sorted({0, n // 3, (2 * n) // 3})
    est = 0
    for seed in seeds:
        _, far = _eccentricity(n, send, recv, seed)
        ecc, _ = _eccentricity(n, send, recv, far)
        est = max(est, ecc)
    return WorkloadFeatures(
        n=n, m=graph.m, est_diameter=est, gap_bound=float(gap_bound)
    )


def choose_engine(features: WorkloadFeatures) -> str:
    """The dispatch rule (documented in ``docs/engines.md``).

    Low estimated diameter (``≤ max(16, 2·log₂ n)``) selects
    ``exponentiation``; otherwise a strong spectral-gap bound
    (``≥ 0.25``) selects ``paper``; everything else falls back to
    ``liu_tarjan``.
    """
    low_diameter = max(16, 2 * math.ceil(math.log2(max(features.n, 2))))
    if features.est_diameter <= low_diameter:
        return "exponentiation"
    if features.gap_bound >= 0.25:
        return "paper"
    return "liu_tarjan"


@register_engine
class PortfolioEngine(ConnectivityEngine):
    """Feature-driven dispatch over the registered concrete engines."""

    name = "portfolio"

    def run(
        self,
        graph: Graph,
        spectral_gap_bound: float,
        *,
        config=None,
        rng=None,
        mpc=None,
    ) -> PipelineResult:
        """Measure features, pick a concrete engine, and delegate."""
        features = estimate_features(graph, spectral_gap_bound)
        chosen = get_engine(choose_engine(features))
        return chosen.run(
            graph, spectral_gap_bound, config=config, rng=rng, mpc=mpc
        )
