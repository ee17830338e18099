"""Parallel random-walk machinery (Section 5.1, Theorem 3).

``simple_random_walk`` implements ``SimpleRandomWalk(G, t)`` over the
sampled layered graph: every vertex obtains a walk target distributed as
``D_RW(v, t)``, and ``detect_independence`` (the ``Mark`` /
``DetectIndependence`` procedures) flags the ``Ω(n)`` starts whose paths are
vertex-disjoint — whose targets are therefore *mutually independent*
(Observation 5.2).  ``independent_random_walks`` repeats the construction
Θ(log n) times in parallel and keeps, for each vertex, the target from the
first run in which its path was disjoint (Theorem 3's proof).

``direct_walk_targets`` is the pipeline's walk sampler: it
samples the *same* product distribution ``⊗_v D_RW(v, t)`` directly (one
independent walker per vertex and walk) instead of materialising the
``O(n t²)`` layered graph, and charges the engine the same round costs
(both charge through :func:`_charge_simple_random_walk`).  Two facts make
it cheap and parallel, without changing the distribution:

* a lazy ``t``-step walk, which stays put on each step with an independent
  fair coin, is distributed as a plain walk of ``Binomial(t, ½)`` steps —
  so each walker draws its move count once, as the popcount of ``t`` fair
  bits, and the walkers still moving at a step form a shrinking prefix;
* walkers are mutually independent, so each *column* (one walk from every
  vertex) draws from its own stream, ``SeedSequence(root,
  spawn_key=(column,))``.  The columns run as the backend ``walk`` op
  (:func:`repro.mpc.kernels.walk_columns`), split across workers by the
  pooled backends, with endpoints that do not depend on the backend or
  the worker count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.layered import (
    build_jump_tables,
    paths_from_starts,
    sample_layered_graph,
)
from repro.graph.graph import Graph
from repro.mpc.engine import MPCEngine, ensure_engine
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_positive_int


def next_power_of_two(x: int) -> int:
    """Smallest power of two ``>= x`` (``x`` must be positive)."""
    x = check_positive_int(x, "x")
    return 1 << (x - 1).bit_length()


def _charge_simple_random_walk(engine: MPCEngine, n: int, t: int) -> int:
    """Charge ``engine`` Theorem 3's rounds for one ``SimpleRandomWalk``
    from ``n`` vertices with power-of-two length ``t``.

    Under one ``"SimpleRandomWalk"`` phase: a shuffle that samples the
    ``n·2t·(t+1)`` layered vertices of ``G_S``, ``log₂ t`` pointer-doubling
    searches and ``log₂ t`` marking searches over them, and the sort of
    the ``n·(t+1)`` path vertices that detects collisions.  Returns the
    layered vertex count.
    """
    layered_size = n * (2 * t) * (t + 1)
    doublings = t.bit_length() - 1
    with engine.phase("SimpleRandomWalk"):
        engine.charge_shuffle(layered_size, label="sample G_S")
        for _ in range(doublings):
            engine.charge_search(layered_size, label="pointer double")
        for _ in range(doublings):
            engine.charge_search(layered_size, label="mark paths")
        engine.charge_sort(n * (t + 1), label="detect collisions")
    return layered_size


@dataclass(frozen=True)
class WalkRun:
    """Output of one ``SimpleRandomWalk`` execution.

    ``targets[v]`` is the endpoint of a ``t``-step walk from ``v`` (always
    valid, always distributed ``D_RW(v, t)``); ``independent[v]`` flags the
    vertices whose walks are mutually independent of every other walk in
    this run (disjoint paths).
    """

    targets: np.ndarray
    independent: np.ndarray
    t: int


def simple_random_walk(
    graph: Graph,
    t: int,
    rng=None,
    *,
    engine: "MPCEngine | None" = None,
) -> WalkRun:
    """``SimpleRandomWalk(G, t)`` + ``DetectIndependence`` (Section 5.1).

    ``graph`` must be regular; ``t`` is rounded up to a power of two
    (walking longer than the mixing time is harmless).  MPC costs
    (Theorem 3): ``O(log t)`` doubling iterations, each a parallel search
    over the ``O(n t²)`` layered vertices, plus the marking pass.
    """
    engine = ensure_engine(engine)
    run = _walk_run(graph, t, ensure_rng(rng))
    _charge_simple_random_walk(engine, graph.n, run.t)
    return run


def _walk_run(graph: Graph, t: int, rng: np.random.Generator) -> WalkRun:
    """One uncharged ``SimpleRandomWalk`` + ``DetectIndependence`` run."""
    t = next_power_of_two(t)
    sampled = sample_layered_graph(graph, t, rng)
    jumps = build_jump_tables(sampled)
    starts = sampled.distinguished_starts()
    paths = paths_from_starts(sampled, jumps, starts)
    endpoints = paths[:, -1]
    targets = sampled.base_vertex(endpoints)
    independent = detect_independence(paths)
    return WalkRun(targets=targets, independent=independent, t=t)


def detect_independence(paths: np.ndarray) -> np.ndarray:
    """``DetectIndependence``: keep starts whose paths share no layered
    vertex with any other start's path.

    ``paths`` is the ``(k, t+1)`` matrix from ``paths_from_starts``.  A
    layered vertex visited by two different paths disqualifies *both*
    (conservative, as in the paper: any multiply-marked vertex removes
    every path through it).  Within-path repeats are impossible (layers
    strictly increase), so counting occurrences suffices.
    """
    k, _ = paths.shape
    flat = paths.ravel()
    order = np.argsort(flat, kind="stable")
    sorted_vertices = flat[order]
    # Boundaries of equal runs.
    new_run = np.empty(sorted_vertices.size, dtype=bool)
    new_run[0] = True
    np.not_equal(sorted_vertices[1:], sorted_vertices[:-1], out=new_run[1:])
    run_ids = np.cumsum(new_run) - 1
    run_sizes = np.bincount(run_ids)
    shared = run_sizes[run_ids] > 1  # this occurrence lies in a shared vertex
    owner = order // paths.shape[1]  # row (start) of each occurrence
    bad_owner = np.zeros(k, dtype=bool)
    np.logical_or.at(bad_owner, owner, shared)
    return ~bad_owner


def independent_random_walks(
    graph: Graph,
    t: int,
    rng=None,
    *,
    max_runs: int = 24,
    engine: "MPCEngine | None" = None,
) -> np.ndarray:
    """Theorem 3: one independent ``t``-step walk target per vertex.

    Runs ``simple_random_walk`` repeatedly (the paper does Θ(log n) runs in
    parallel — rounds are charged for one run, data volume for all) and
    takes each vertex's target from the first run where its path was
    disjoint.  Raises if some vertex never succeeds within ``max_runs``
    (probability ``2^{-max_runs}`` per vertex by Lemma 5.3).
    """
    rng = ensure_rng(rng)
    engine = ensure_engine(engine)
    targets = np.full(graph.n, -1, dtype=np.int64)
    pending = np.ones(graph.n, dtype=bool)
    runs = 0
    layered_size = 0
    while pending.any():
        if runs >= max_runs:
            raise RuntimeError(
                f"{int(pending.sum())} vertices lack independent walks "
                f"after {max_runs} runs (Lemma 5.3 gives p>=1/2 per run)"
            )
        run = _walk_run(graph, t, rng)
        if runs == 0:
            # Parallel runs: rounds charged once, after the first.
            layered_size = _charge_simple_random_walk(engine, graph.n, run.t)
        adopt = pending & run.independent
        targets[adopt] = run.targets[adopt]
        pending &= ~run.independent
        runs += 1
    # Data volume scales with the number of parallel repetitions.
    engine.note_data_volume(layered_size * runs)
    return targets


def direct_walk_targets(
    graph: Graph,
    t: int,
    walks_per_vertex: int,
    rng=None,
    *,
    engine: "MPCEngine | None" = None,
) -> np.ndarray:
    """Sample ``walks_per_vertex`` mutually independent ``t``-step lazy
    walk endpoints from every vertex of a regular graph.

    Returns the ``(n, walks_per_vertex)`` int64 endpoints: the product
    distribution Theorem 3's data structure produces, so the pipeline
    uses it in place of that structure, and the engine is charged the
    rounds of :func:`simple_random_walk` (Theorem 3 runs its Θ(log n)
    repetitions in parallel, so they cost the rounds of one).

    The walk is the lazy chain.  The paper adds Δ self-loops for
    laziness (Section 5.2), which is the same as a fair stay coin per
    step; a walker that flips ``t`` independent stay coins makes
    ``Binomial(t, ½)`` moves, each a uniform port.  So every walker draws
    its move count once (the popcount of ``t`` fair bits) and then walks
    that many plain steps: exactly the lazy distribution, with no coin
    per step.

    The walkers of one *column* (one walk from each vertex) draw from the
    stream ``SeedSequence(root, spawn_key=(column,))``, where ``root`` is
    drawn once from ``rng``.  The columns run as the backend's ``walk``
    op (:meth:`~repro.mpc.backends.ExecutionBackend.walk`, on the
    engine's backend), which the pools split across workers by column; a
    seed gives bit-identical endpoints on every backend and every worker
    count.  The empty graph gives an empty ``(0, walks_per_vertex)``
    array.
    """
    engine = ensure_engine(engine)
    t = check_positive_int(t, "t")
    walks_per_vertex = check_positive_int(walks_per_vertex, "walks_per_vertex")
    if not graph.is_regular():
        raise ValueError("direct walker requires a regular graph")
    n = graph.n
    if n == 0:
        return np.empty((0, walks_per_vertex), dtype=np.int64)
    degree = graph.degree(0)
    if degree == 0:
        raise ValueError("graph must have positive degree")
    rng = ensure_rng(rng)

    root = int.from_bytes(rng.bytes(16), "little")
    targets = engine.backend.walk(graph.heads, degree, t, walks_per_vertex, root)

    layered_size = _charge_simple_random_walk(engine, n, next_power_of_two(t))
    engine.note_data_volume(layered_size * walks_per_vertex)
    return targets.T
