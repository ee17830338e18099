"""The Theorem 4 pipeline wrapped as a registered engine.

This is a thin adapter: the algorithm itself lives in
:mod:`repro.core.pipeline` and is unchanged — registering it gives the
dispatch seam (``mpc_connected_components(..., engine=...)``, the
portfolio, the e21 race) a uniform handle on the paper's own algorithm.
``mpc_connected_components`` runs it for ``engine=None`` and for an
accounting ``MPCEngine`` too, so every call reaches the stages through
this one path.
"""

from __future__ import annotations

from repro.core.pipeline import PipelineResult, _run_stages
from repro.engines.base import ConnectivityEngine, register_engine
from repro.graph.graph import Graph
from repro.utils.validation import check_in_range


@register_engine
class PaperEngine(ConnectivityEngine):
    """Theorem 4: regularize → randomize → random-graph CC (+ verify).

    Round complexity ``O((1/δ)(log log n + log(1/λ)))`` — independent of
    the graph's diameter, which is what the portfolio dispatcher selects
    it for in the well-connected (large spectral gap) regime.
    """

    name = "paper"

    def run(
        self,
        graph: Graph,
        spectral_gap_bound: float,
        *,
        config=None,
        rng=None,
        mpc=None,
    ) -> PipelineResult:
        """Run the unchanged three-stage pipeline, with verification, on
        ``mpc``."""
        spectral_gap_bound = check_in_range(
            spectral_gap_bound, "spectral_gap_bound", 1e-12, 2.0
        )
        config, rng, mpc = self._ensure(graph, config, rng, mpc)
        return _run_stages(graph, spectral_gap_bound, config, rng, mpc)
