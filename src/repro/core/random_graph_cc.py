"""Step 3 — Connectivity on (unions of) random graphs (Lemmas 6.1/6.2).

``random_graph_components`` chains the two stages of Section 6:

1. ``GrowComponents`` over ``F`` fresh batches — components reach
   ``n^{Ω(1)}`` size in ``O(log log n)`` rounds;
2. the Claim 6.14 broadcast on the final contraction graph — ``O(1)``
   diameter by Claim 6.13, hence ``O(1)`` rounds when the random-graph
   analysis holds; run to stabilisation, so the output labels are exactly
   the components of the union of all batches regardless.

Spanning-forest certificates from both stages combine into a spanning
forest of the batch-union graph (Claim 6.12 + the BFS tree).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.bfs_tree import broadcast_components
from repro.core.grow import GrowResult, contract_batch, grow_components
from repro.graph.components import canonical_labels
from repro.mpc.engine import MPCEngine, ensure_engine
from repro.utils.rng import ensure_rng


@dataclass(frozen=True)
class RandomGraphCCResult:
    """Labels + spanning forest + stage telemetry for Lemma 6.1."""

    labels: np.ndarray
    tree_edges: np.ndarray
    grow: GrowResult
    broadcast_rounds: int
    final_contraction_vertices: int
    final_contraction_edges: int


def random_graph_components(
    n: int,
    batches: "list[np.ndarray]",
    growth_schedule: "list[int]",
    rng=None,
    *,
    engine: "MPCEngine | None" = None,
    broadcast_budget: "int | None" = None,
) -> RandomGraphCCResult:
    """Find the components of the union of ``batches`` (Lemma 6.1).

    Each batch is an ``(k, 2)`` edge array on vertices ``[0, n)`` sampled
    (per true component) from the random-graph distribution ``G``; the
    schedule provides the per-phase growth targets ``Δ_i``.

    ``broadcast_budget=None`` (the default) runs the final broadcast to
    stabilisation — exact output, honest extra rounds on bad luck.  A
    finite budget enforces the paper's O(1)-round broadcast (Claim 6.14),
    leaving components unfinished when the random-graph analysis failed —
    the behaviour Corollary 7.1's growability check detects.
    """
    rng = ensure_rng(rng)
    engine = ensure_engine(engine)

    with engine.phase("GrowComponents"):
        grow = grow_components(n, batches, growth_schedule, rng, engine=engine)

    # Final contraction graph over the union of all batches.
    union = (
        np.concatenate(batches, axis=0)
        if batches
        else np.empty((0, 2), dtype=np.int64)
    )
    edges, representative = contract_batch(grow.labels, union, engine=engine)
    k = int(grow.labels.max()) + 1 if grow.labels.size else 0
    engine.charge_sort(union.shape[0], label="final contraction")

    with engine.phase("Broadcast"):
        result = broadcast_components(
            max(k, 1), edges, engine=engine, stop_after=broadcast_budget
        )

    final_labels = canonical_labels(result.labels[grow.labels])

    tree_parts = [grow.tree_edges]
    if result.tree_edges.size:
        tree_parts.append(union[representative[result.tree_edges]])
    tree_edges = np.concatenate([p for p in tree_parts if p.size] or
                                [np.empty((0, 2), dtype=np.int64)], axis=0)

    return RandomGraphCCResult(
        labels=final_labels,
        tree_edges=tree_edges,
        grow=grow,
        broadcast_rounds=result.rounds,
        final_contraction_vertices=k,
        final_contraction_edges=int(edges.shape[0]),
    )
