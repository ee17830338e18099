"""Theorem 2 — ``SublinearConn``: connectivity on *arbitrary* graphs with
mildly sublinear memory.

For machines of memory ``s = n^{Ω(1)}``:

1. **Walk**: run a random walk of length ``t = Õ(d³)`` from every vertex
   (``SimpleRandomWalk`` works unchanged on irregular graphs — the walks
   are just not independent, which this algorithm never needs) and connect
   each vertex to the distinct vertices its walk visited.  By the
   Barnes–Feige bound, every walk either covers its whole component or
   visits ``≥ d`` distinct vertices, so the resulting graph ``G̃`` has
   minimum "effective degree" ``d ≈ Õ(n)/s``.  O(log t) rounds.
2. **Contract**: one ``LeaderElection`` with leader probability
   ``Θ(log n / d)`` — components of size ``≈ d/log n`` collapse, leaving
   ``H`` with ``Õ(n/d) = O(s/polylog)`` vertices.  O(1) rounds.
3. **Sketch**: every vertex of ``H`` emits an ``O(log³)``-bit AGM sketch
   (Prop. 8.1) to one coordinator machine, which decodes all components
   locally.  O(1) rounds.

Scale substitutions: ``d = ceil(c·n/s)`` (the paper's
``n log⁴n / s`` polylog factor is meaningless at laptop ``n``), and the
walk budget ``t = min(cap, c_t · d³ log n)`` — the cubic Barnes–Feige
exponent is kept, the cap only guards wall-clock time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.leader_election import leader_election
from repro.graph.components import canonical_labels
from repro.graph.graph import Graph
from repro.mpc.engine import MPCEngine
from repro.sketch.agm import AGMSketch, agm_connected_components
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_positive_int


@dataclass(frozen=True)
class SublinearConnResult:
    """Output and telemetry of ``SublinearConn``."""

    labels: np.ndarray
    rounds: int
    engine: MPCEngine
    degree_target: int
    walk_length: int
    contracted_vertices: int
    sketch_words_per_vertex: int

    @property
    def component_count(self) -> int:
        """Number of components in the returned labelling."""
        return int(self.labels.max()) + 1 if self.labels.size else 0


def degree_target(n: int, machine_memory: int, *, boost: float = 1.0) -> int:
    """The paper's ``d = n·polylog/s`` with the polylog dropped for scale."""
    n = check_positive_int(n, "n")
    machine_memory = check_positive_int(machine_memory, "machine_memory")
    return max(2, math.ceil(boost * n / machine_memory))


def walk_budget(d: int, n: int, *, factor: float = 1.0, cap: int = 20_000) -> int:
    """Barnes–Feige walk length ``t = Θ(d³ log n)`` (Section 8), capped."""
    d = check_positive_int(d, "d")
    n = check_positive_int(n, "n")
    return int(min(cap, max(4, math.ceil(factor * d**3 * math.log(max(n, 2))))))


def _walk_visits(
    graph: Graph, t: int, keep: int, rng
) -> "tuple[np.ndarray, np.ndarray]":
    """Walk ``t`` steps from every vertex simultaneously; return edge
    endpoints ``(source, visited)`` for up to ``keep`` distinct visited
    vertices per walk (degree boosting needs only ``d`` of them)."""
    n = graph.n
    indptr, heads = graph.indptr, graph.heads
    degrees = np.asarray(graph.degrees)
    if degrees.min() == 0:
        raise ValueError("walks undefined with isolated vertices (strip first)")

    current = np.arange(n, dtype=np.int64)
    visits = np.empty((t + 1, n), dtype=np.int64)
    visits[0] = current
    for step in range(1, t + 1):
        offsets = (rng.random(n) * degrees[current]).astype(np.int64)
        current = heads[indptr[current] + offsets]
        visits[step] = current

    # Distinct visits per walk, truncated to `keep`.
    sources = []
    targets = []
    columns = visits.T  # (n, t+1)
    sorted_cols = np.sort(columns, axis=1)
    for v in range(n):
        row = sorted_cols[v]
        distinct = row[np.concatenate(([True], row[1:] != row[:-1]))]
        distinct = distinct[distinct != v][:keep]
        if distinct.size:
            sources.append(np.full(distinct.size, v, dtype=np.int64))
            targets.append(distinct)
    if not sources:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    return np.concatenate(sources), np.concatenate(targets)


def sublinear_connectivity(
    graph: Graph,
    machine_memory: int,
    rng=None,
    *,
    engine: "MPCEngine | None" = None,
    walk_factor: float = 1.0,
    walk_cap: int = 20_000,
    leader_boost: float = 2.0,
) -> SublinearConnResult:
    """Theorem 2: components of an arbitrary graph in
    ``O(log log n + log(n/s))`` rounds with memory ``s``.

    Always exact: the AGM stage decodes the contracted graph completely,
    and contraction never crosses true components.
    """
    machine_memory = check_positive_int(machine_memory, "machine_memory")
    rng = ensure_rng(rng)
    if engine is None:
        engine = MPCEngine(machine_memory)

    n = graph.n
    if graph.m == 0:
        return SublinearConnResult(
            labels=np.arange(n, dtype=np.int64),
            rounds=engine.rounds,
            engine=engine,
            degree_target=0,
            walk_length=0,
            contracted_vertices=n,
            sketch_words_per_vertex=0,
        )

    degrees = np.asarray(graph.degrees)
    isolated = np.flatnonzero(degrees == 0)
    core_idx = np.flatnonzero(degrees > 0)
    core, _ = graph.subgraph(core_idx)

    d = degree_target(n, machine_memory)
    t = walk_budget(d, n, factor=walk_factor, cap=walk_cap)

    # Step 1: walks boost the minimum degree (SimpleRandomWalk semantics;
    # O(log t) MPC rounds via pointer doubling, Claim 5.7).
    with engine.phase("Walk"):
        src, dst = _walk_visits(core, t, keep=4 * d, rng=rng)
        layered = core.n * (2 * t) * (t + 1)
        engine.charge_shuffle(layered, label="sample G_S")
        doublings = max(1, math.ceil(math.log2(t)))
        for _ in range(doublings):
            engine.charge_search(layered, label="pointer double")
        engine.charge_sort(core.n * (t + 1), label="collect visited (Mark)")
        engine.note_data_volume(core.n * t)

    walk_edges = np.stack([src, dst], axis=1) if src.size else np.empty((0, 2), np.int64)
    boosted_edges = np.concatenate([core.edges, walk_edges], axis=0)

    # Step 2: one leader election with p = Θ(log n / d).
    with engine.phase("Contract"):
        p = min(1.0, leader_boost * math.log(max(core.n, 2)) / d)
        election = leader_election(core.n, boosted_edges, p, rng, engine=engine)
        groups = canonical_labels(election.groups)
        engine.charge_sort(boosted_edges.shape[0], label="contract to H")

    contracted = Graph(int(groups.max()) + 1, groups[core.edges]).simplify()

    # Step 3: AGM sketches to a coordinator (Prop. 8.1).
    with engine.phase("Sketch"):
        sketch = AGMSketch.from_graph(contracted, rng)
        engine.charge_shuffle(contracted.n, label="send sketches to coordinator")
        engine.charge_broadcast(contracted.n, label="shared randomness")
        h_labels, _ = agm_connected_components(contracted, rng, sketch=sketch)

    core_labels = h_labels[groups]
    labels = np.full(n, -1, dtype=np.int64)
    labels[core_idx] = core_labels
    if isolated.size:
        offset = int(core_labels.max()) + 1 if core_labels.size else 0
        labels[isolated] = offset + np.arange(isolated.size)

    return SublinearConnResult(
        labels=canonical_labels(labels),
        rounds=engine.rounds,
        engine=engine,
        degree_target=d,
        walk_length=t,
        contracted_vertices=contracted.n,
        sketch_words_per_vertex=sketch.words_per_vertex(),
    )
