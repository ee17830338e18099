"""Low-diameter broadcast connectivity (Claim 6.14).

After ``GrowComponents``, the contracted graph has ``O(1)`` diameter
(Claim 6.13); components are finished by a label broadcast that costs one
MPC round per BFS level: every vertex repeatedly adopts the minimum label
among itself and its neighbours.  The wave from each component's minimum
vertex reaches distance-``j`` vertices in round ``j``, so the process
stabilises in ``max-component-diameter`` rounds — each counted on the
engine — and the final parent pointers form a BFS spanning tree.  Each
level is one ``min_label_exchange`` over the two orientations of the
edge list.

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

    Every level is one ``min_label_exchange`` plan on ``engine`` (a
    recorded round on its data plane): edge copy ``p`` of the send list
    ``u ⧺ v`` carries its sending endpoint's label to the receiving
    endpoint ``(v ⧺ u)[p]``.  An improved vertex records the largest
    position ``p`` that delivered its new label, so the tree does not
    depend on how a backend orders the deliveries.

    Raises
    ------
    ValueError
        An edge endpoint lies outside ``[0, n)``.
    RuntimeError
        The broadcast did not stabilise within ``max_rounds`` rounds.
    """
    n = check_positive_int(n, "n")
    engine = ensure_engine(engine)
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if max_rounds is None:
        max_rounds = n

    labels = np.arange(n, dtype=np.int64)
    parent_edge = np.full(n, -1, dtype=np.int64)

    m = edges.shape[0]
    if m == 0:
        return BroadcastResult(
            labels=labels, tree_edges=np.empty(0, dtype=np.int64), rounds=0
        )
    if edges.min() < 0 or edges.max() >= n:
        raise ValueError("edge endpoint out of range [0, n)")

    send = np.concatenate([edges[:, 0], edges[:, 1]])
    recv = np.concatenate([edges[:, 1], edges[:, 0]])

    rounds = 0
    while rounds < max_rounds:
        if stop_after is not None and rounds >= stop_after:
            break
        builder = PlanBuilder("broadcast-level")
        outs = builder.min_label_exchange(labels, send, recv)
        new_labels, incoming = engine.run_plan(builder.build(outs))
        improved = new_labels < labels
        if not improved.any():
            break
        rounds += 1
        engine.charge_shuffle(m, label="broadcast level")
        # An improved vertex records its largest delivering position; the
        # final recording (the wave from the component minimum) forms the
        # BFS tree.
        delivering = np.flatnonzero(incoming == new_labels[recv])
        targets = recv[delivering]
        hit = improved[targets]
        best = np.full(n, -1, dtype=np.int64)
        np.maximum.at(best, targets[hit], delivering[hit])
        sel = best >= 0
        parent_edge[sel] = best[sel] % m
        labels = new_labels
    else:
        raise RuntimeError(f"broadcast did not stabilise within {max_rounds} rounds")

    tree_edges = parent_edge[parent_edge >= 0]
    return BroadcastResult(
        labels=canonical_labels(labels), tree_edges=tree_edges, rounds=rounds
    )
