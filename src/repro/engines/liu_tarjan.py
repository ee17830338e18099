"""Liu–Tarjan concurrent min-label propagation (arXiv:1812.06177).

The simplest of the "simple concurrent connected components" framework
variants: every round each vertex adopts the minimum label offered over
its incident edges (*connect*), then shortcuts to its parent's label
(*shortcut*).  Both halves of the round run as one
:class:`~repro.mpc.plan.RoundPlan` (see
:func:`repro.engines.base.min_label_round_plan`): a
``min_label_exchange`` over both orientations of the edge list — one
all-to-all shuffle — feeding a ``search`` over the freshly updated
label table.

Rounds: ``O(log n)`` in the worst case (label minima travel at least one
hop per round and the shortcut halves pointer chains), with far fewer on
low-diameter inputs.  Compared to the paper pipeline there is no
dependence on the spectral gap — the engine the portfolio falls back to
when neither the low-diameter nor the well-connected regime is
detected.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.pipeline import PipelineResult
from repro.engines.base import (
    ConnectivityEngine,
    canonicalize_plan,
    incidence_arrays,
    min_label_round_plan,
    register_engine,
)
from repro.graph.graph import Graph
from repro.mpc.plan import PlanBuilder


@register_engine
class LiuTarjanEngine(ConnectivityEngine):
    """Concurrent min-label propagation with parent-pointer shortcutting."""

    name = "liu_tarjan"

    def run(
        self,
        graph: Graph,
        spectral_gap_bound: float,
        *,
        config=None,
        rng=None,
        mpc=None,
    ) -> PipelineResult:
        """Propagate minimum labels to convergence; exact on any graph.

        ``spectral_gap_bound`` and ``rng`` are accepted for
        engine-contract uniformity and ignored: the algorithm is
        deterministic and needs no gap assumption.
        """
        config, rng, mpc = self._ensure(graph, config, rng, mpc)
        n = graph.n
        labels = np.arange(n, dtype=np.int64)
        if graph.m == 0:
            return PipelineResult(
                labels=labels, rounds=mpc.rounds, engine=mpc,
                walk_length=0, phase_count=0, verify_rounds=0,
            )

        # Place the input on the data plane (capacity check + trace
        # completeness), exactly like the paper pipeline's opening round.
        builder = PlanBuilder("scatter-input")
        mpc.run_plan(builder.build(builder.scatter(graph.edges)))
        send, recv = incidence_arrays(graph.edges)

        max_rounds = 4 * max(1, math.ceil(math.log2(max(n, 2)))) + 8
        iterations = 0
        with mpc.phase("LiuTarjan"):
            for _ in range(max_rounds):
                (new_labels,) = mpc.run_plan(
                    min_label_round_plan("lt-round", labels, send, recv)
                )
                new_labels = np.asarray(new_labels)
                # Work first, charge second: the connect shuffle (the n
                # labels plus the 2m incidences it holds) and the shortcut
                # search absorb the exchanges the plan made.
                mpc.charge_shuffle(n + 2 * graph.m, label="connect")
                mpc.charge_search(n, label="shortcut")
                iterations += 1
                if np.array_equal(new_labels, labels):
                    break
                labels = new_labels
            else:  # pragma: no cover - convergence is proven O(log n)
                raise RuntimeError(
                    f"liu_tarjan did not converge within {max_rounds} rounds"
                )
            (labels,) = mpc.run_plan(canonicalize_plan(labels))

        return PipelineResult(
            labels=np.asarray(labels),
            rounds=mpc.rounds,
            engine=mpc,
            walk_length=0,
            phase_count=iterations,
            verify_rounds=0,
        )
