"""Low-diameter broadcast connectivity (Claim 6.14).

After ``GrowComponents``, the contracted graph has ``O(1)`` diameter
(Claim 6.13); components are finished by a label broadcast that costs one
MPC round per BFS level: every vertex repeatedly adopts the minimum label
among itself and its neighbours.  The wave from each component's minimum
vertex reaches distance-``j`` vertices in round ``j``, so the process
stabilises in ``max-component-diameter`` rounds — each counted on the
engine — and the final parent pointers form a BFS spanning tree.  Each
level is one ``csr_min_label`` fold over the frozen CSR arrays of the
input's :class:`~repro.graph.graph.Graph`.

Running to stabilisation also makes this the pipeline's honest fallback:
even if the earlier probabilistic phases under-merged (possible at library
scale, where the paper's astronomically safe constants are scaled down),
the broadcast finishes the job with correctness guaranteed, paying the
extra rounds openly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.components import canonical_labels
from repro.graph.graph import Graph
from repro.mpc.engine import MPCEngine, ensure_engine
from repro.mpc.plan import PlanBuilder
from repro.utils.validation import check_positive_int


@dataclass(frozen=True)
class BroadcastResult:
    """Outcome of the broadcast stage.

    ``labels`` are canonical component labels; ``tree_edges`` is one parent
    edge per non-root vertex (indices into the input edge array);
    ``rounds`` is the number of propagation rounds executed (= the largest
    BFS eccentricity of a component minimum, Claim 6.14's ``O(D)``).
    """

    labels: np.ndarray
    tree_edges: np.ndarray
    rounds: int


def broadcast_components(
    n: int,
    edges: np.ndarray,
    *,
    engine: "MPCEngine | None" = None,
    max_rounds: "int | None" = None,
    stop_after: "int | None" = None,
) -> BroadcastResult:
    """Min-label broadcast until stabilisation (Claim 6.14).

    ``edges`` is an ``(m, 2)`` array on vertices ``[0, n)``; self-loops are
    ignored.  ``max_rounds`` guards runaway inputs (default ``n``) and
    raises when exceeded; ``stop_after`` instead *stops* after that many
    rounds and returns the (possibly non-maximal) labels — this is the
    paper's O(1)-round regime of Claim 6.14, used by the adaptive variant,
    where an unconverged broadcast means "this gap guess was too large".

    Every level folds each vertex's minimum over its adjacency run in
    the frozen CSR arrays of one :class:`~repro.graph.graph.Graph`, as
    one ``csr_min_label`` plan on ``engine`` (a recorded round on its
    data plane).
    """
    n = check_positive_int(n, "n")
    engine = ensure_engine(engine)
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if max_rounds is None:
        max_rounds = n

    labels = np.arange(n, dtype=np.int64)
    parent_edge = np.full(n, -1, dtype=np.int64)

    if edges.shape[0] == 0:
        return BroadcastResult(
            labels=labels, tree_edges=np.empty(0, dtype=np.int64), rounds=0
        )

    m = edges.shape[0]
    # The graph's read-only owning CSR arrays satisfy the arena pinning
    # contract (one shared-memory upload for the whole broadcast) and the
    # wire digest cache (shipped once per worker).
    graph = Graph(n, edges)
    engine.backend.note_csr_build()
    indptr, heads, half = graph.indptr, graph.heads, graph.halfedges
    owner = np.repeat(np.arange(n, dtype=np.int64), graph.degrees)
    # Incidence position of each CSR slot in the edge-list orientation
    # order: half-edge 2e + 1 (v -> u, received at u) is position e,
    # half-edge 2e (received at v) is position m + e.  Recording the
    # largest delivering position per vertex makes the tree independent
    # of the slot order within a run.
    pos = np.where(half & 1, half >> 1, m + (half >> 1))
    runs = graph.degrees > 0
    starts = indptr[:-1][runs]

    rounds = 0
    while rounds < max_rounds:
        if stop_after is not None and rounds >= stop_after:
            break
        builder = PlanBuilder("broadcast-level")
        outs = builder.csr_min_label(labels, indptr, heads)
        new_labels, incoming = engine.run_plan(builder.build(outs))
        improved = new_labels < labels
        if not improved.any():
            break
        rounds += 1
        engine.charge_shuffle(m, label="broadcast level")
        # Record a delivering edge for every improved vertex: an incidence
        # whose incoming label equals the new minimum.  The final recording
        # (the wave from the component minimum) forms the BFS tree.
        cand = np.where(incoming == new_labels[owner], pos, -1)
        best = np.full(n, -1, dtype=np.int64)
        if starts.size:
            best[runs] = np.maximum.reduceat(cand, starts)
        sel = improved & (best >= 0)
        parent_edge[sel] = best[sel] % m
        labels = new_labels
    else:
        raise RuntimeError(f"broadcast did not stabilise within {max_rounds} rounds")

    tree_edges = parent_edge[parent_edge >= 0]
    return BroadcastResult(
        labels=canonical_labels(labels), tree_edges=tree_edges, rounds=rounds
    )
