"""``GrowComponents`` (Section 6.1): quadratic component growth.

Phase ``i`` consumes a *fresh* batch ``G̃_i`` of random-graph edges, builds
the contraction graph of that batch with respect to the current component
partition (Definition 2), and runs ``LeaderElection`` with leader
probability ``1/Δ_i`` where ``Δ_i = Δ^{2^{i-1}}`` — so components grow from
``Δ_{i}/Δ`` to ``Δ_{i+1}/Δ`` vertices, i.e. *quadratically* per phase
(Lemma 6.7), as opposed to the constant factor of classical leader-election
connectivity.  Fresh batches keep the edges used in phase ``i`` independent
of all earlier contraction decisions, which is what lets the almost-
regularity invariant (Claims 6.9/6.10) recurse.

Telemetry captures everything Lemma 6.7 asserts per phase — component-size
intervals, contraction-graph degree statistics, vertex counts — so the E7
bench can print measured-vs-claimed tables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.leader_election import leader_election
from repro.mpc.engine import MPCEngine, ensure_engine
from repro.mpc.plan import PlanBuilder
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_positive_int

#: Floor on the leader probability ``1/Δ_i``, so that a huge growth
#: target cannot make leaders vanish at library scale.
LEADER_FLOOR = 1e-4


@dataclass(frozen=True)
class PhaseTelemetry:
    """Measurements of one grow phase (the quantities in Lemma 6.7)."""

    phase: int
    growth_target: int
    leader_prob: float
    components_before: int
    components_after: int
    contraction_vertices: int
    contraction_edges: int
    mean_contraction_degree: float
    min_contraction_degree: int
    max_contraction_degree: int
    mean_component_size: float
    max_component_size: int
    unmatched: int


@dataclass(frozen=True)
class GrowResult:
    """Outcome of ``GrowComponents``.

    ``labels`` is a component-partition of the batch-union graph (never
    merges true components; possibly finer).  ``tree_edges`` are original
    vertex pairs certifying every merge (Claim 6.12: their union with
    later stages' certificates is a spanning forest).
    """

    labels: np.ndarray
    tree_edges: np.ndarray
    telemetry: "list[PhaseTelemetry]"


def contract_plan(labels: np.ndarray, batch: np.ndarray):
    """Record the contraction round (Definition 2) as a
    :class:`~repro.mpc.plan.RoundPlan`.

    One search (endpoint relabelling) feeding one reduce-by-key (dedup:
    min edge index per component pair), glued by the registered
    ``contract_keys`` / ``unpack_pair_keys`` transforms; outputs are
    ``(edges, representative)``.
    """
    builder = PlanBuilder("contract")
    k = int(labels.max()) + 1
    endpoint_labels = builder.search(labels, batch.ravel())
    keys, values = builder.transform("contract_keys", endpoint_labels, k=k)
    unique_keys, representative = builder.reduce_by_key(keys, values, op="min")
    edges = builder.transform("unpack_pair_keys", unique_keys, k=k)
    return builder.build([edges, representative])


def contract_batch(
    labels: np.ndarray, batch: np.ndarray, *, engine: "MPCEngine | None" = None
) -> "tuple[np.ndarray, np.ndarray]":
    """Contraction graph of ``batch`` w.r.t. ``labels`` (Definition 2).

    Returns ``(edges, representative)``: deduplicated cross-component edges
    in component ids, and for each one the index of the first original
    batch edge realising it (the certificate used for spanning trees).

    The round is recorded by :func:`contract_plan` and submitted once,
    on ``engine`` (the plan lands in its trace): the endpoint relabelling
    runs as one backend search and the dedup as one reduce-by-key (min
    edge index per component pair), so a sharded backend enforces its
    caps and counts the communication.
    """
    engine = ensure_engine(engine)
    labels = np.asarray(labels, dtype=np.int64)
    batch = np.asarray(batch, dtype=np.int64).reshape(-1, 2)
    if batch.shape[0] == 0:
        return np.empty((0, 2), dtype=np.int64), np.empty(0, dtype=np.int64)
    return engine.run_plan(contract_plan(labels, batch))


def grow_components(
    n: int,
    batches: "list[np.ndarray]",
    growth_schedule: "list[int]",
    rng=None,
    *,
    engine: "MPCEngine | None" = None,
) -> GrowResult:
    """Run ``GrowComponents`` over ``batches`` with the given per-phase
    growth targets (``Δ_i`` values).

    MPC cost per phase (Claim 6.6): one sort for the contraction/dedup, the
    two ``LeaderElection`` shuffles, and one search to re-label — all
    ``O(1/δ)`` rounds.  Each phase's contraction and relabelling run as
    plans on ``engine``.  The leader probability is ``1/Δ_i``, floored
    at :data:`LEADER_FLOOR`.
    """
    n = check_positive_int(n, "n")
    if len(batches) != len(growth_schedule):
        raise ValueError(
            f"need one growth target per batch: {len(batches)} batches, "
            f"{len(growth_schedule)} targets"
        )
    rng = ensure_rng(rng)
    engine = ensure_engine(engine)

    labels = np.arange(n, dtype=np.int64)
    tree_parts: "list[np.ndarray]" = []
    telemetry: "list[PhaseTelemetry]" = []

    for phase_index, (batch, growth) in enumerate(zip(batches, growth_schedule), 1):
        growth = check_positive_int(growth, "growth target")
        components_before = int(labels.max()) + 1

        # Work first, charge second: the charge absorbs the backend
        # exchanges the contraction just materialised.
        edges, representative = contract_batch(labels, batch, engine=engine)
        engine.charge_sort(batch.shape[0], label=f"contract phase {phase_index}")
        k = components_before
        degrees = np.zeros(k, dtype=np.int64)
        if edges.shape[0]:
            np.add.at(degrees, edges[:, 0], 1)
            np.add.at(degrees, edges[:, 1], 1)

        leader_prob = float(min(1.0, max(LEADER_FLOOR, 1.0 / growth)))
        result = leader_election(k, edges, leader_prob, rng, engine=engine)

        groups = result.groups
        matched = result.chosen_edge >= 0
        if matched.any():
            tree_parts.append(batch[representative[result.chosen_edge[matched]]])

        # One recorded round: search the leader table, canonicalise.
        builder = PlanBuilder("relabel")
        raw = builder.search(groups, labels)
        out = builder.transform("canonical_labels", raw)
        (new_labels,) = engine.run_plan(builder.build(out))
        engine.charge_search(n, label=f"relabel phase {phase_index}")

        sizes = np.bincount(new_labels)
        telemetry.append(
            PhaseTelemetry(
                phase=phase_index,
                growth_target=growth,
                leader_prob=leader_prob,
                components_before=components_before,
                components_after=int(new_labels.max()) + 1,
                contraction_vertices=k,
                contraction_edges=int(edges.shape[0]),
                mean_contraction_degree=float(degrees.mean()) if k else 0.0,
                min_contraction_degree=int(degrees.min()) if k else 0,
                max_contraction_degree=int(degrees.max()) if k else 0,
                mean_component_size=float(sizes.mean()),
                max_component_size=int(sizes.max()),
                unmatched=int(np.sum(~result.is_leader & (result.leader_of < 0))),
            )
        )
        labels = new_labels

    tree_edges = (
        np.concatenate(tree_parts, axis=0)
        if tree_parts
        else np.empty((0, 2), dtype=np.int64)
    )
    return GrowResult(labels=labels, tree_edges=tree_edges, telemetry=telemetry)
