"""The full Theorem 4 pipeline and the Corollary 7.1 adaptive variant.

``mpc_connected_components`` chains the three transformations:

1. **Regularize** (Lemma 4.1) — replacement product with expander clouds;
2. **Randomize** (Lemma 5.1) — independent mixing-length walks turn every
   component into a random graph, pre-split into fresh per-phase batches;
3. **Random-graph connectivity** (Lemma 6.1) — quadratic leader election
   (``GrowComponents``) plus the O(1)-diameter broadcast.

Total rounds: ``O((1/δ)(log log n + log(1/λ)))`` — the regularization is
O(1) sorts, the walk structure costs ``O(log T) = O(log log n + log(1/λ))``
searches, growing costs ``O(log log n)`` phases, and the final broadcast
O(1) levels.  A last *verification* pass contracts the original edges by
the computed labels and broadcasts to stabilisation: with the paper's
constants it is a no-op costing one sort; at library scale it doubles as
the honest fallback, so the returned labels are always exactly the true
components and any extra work is visible in the round count.

``mpc_connected_components_adaptive`` implements Corollary 7.1: geometric
gap guessing ``λ'_{j+1} = (λ'_j)^{1.1}`` with a growability check between
iterations, for inputs whose spectral gap is unknown.

Both entry points take a ``backend`` argument selecting the execution data
plane (see :mod:`repro.mpc.backends`): ``"local"`` runs the historical
accounting-only numpy path; ``"sharded"`` runs the same pipeline end to end
on numpy shards with enforced per-shard memory and per-round communication
caps, producing bit-identical labels plus shard-level resource counters in
``engine.summary()["backend"]``; ``"process"`` executes those sharded
kernels on a pool of OS worker processes over shared memory
(:class:`~repro.mpc.process_backend.ProcessBackend`) — bit-identical
labels, rounds, and counters, with real wall-clock parallelism on
multi-core hosts.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np

from repro.core.bfs_tree import broadcast_components
from repro.core.config import PipelineConfig
from repro.core.grow import contract_batch
from repro.core.random_graph_cc import RandomGraphCCResult, random_graph_components
from repro.core.randomize import RandomizedGraph, randomize_components
from repro.core.regularize import RegularizedGraph, regularize
from repro.graph.components import canonical_labels
from repro.graph.graph import Graph
from repro.mpc.backends import ExecutionBackend, make_backend
from repro.mpc.engine import MPCEngine
from repro.mpc.plan import PlanBuilder
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_in_range


@dataclass(frozen=True)
class PipelineResult:
    """Everything a bench needs from one pipeline execution."""

    labels: np.ndarray
    rounds: int
    engine: MPCEngine
    walk_length: int
    phase_count: int
    verify_rounds: int
    regularized: "RegularizedGraph | None" = None
    randomized: "RandomizedGraph | None" = None
    cc: "RandomGraphCCResult | None" = None

    @property
    def component_count(self) -> int:
        """Number of components in the returned labelling."""
        return int(self.labels.max()) + 1 if self.labels.size else 0


def _finalize_against_graph(
    graph: Graph,
    labels: np.ndarray,
    engine: MPCEngine,
) -> "tuple[np.ndarray, int]":
    """Contract ``graph`` by ``labels`` and broadcast to stabilisation.

    Returns exact component labels and the number of broadcast rounds
    (0 when the pipeline's labels were already maximal).
    """
    edges, _ = contract_batch(labels, graph.edges, engine=engine)
    engine.charge_sort(graph.m, label="growability check")
    if edges.shape[0] == 0:
        return canonical_labels(labels), 0
    k = int(labels.max()) + 1
    result = broadcast_components(k, edges, engine=engine)
    return canonical_labels(result.labels[labels]), result.rounds


@contextlib.contextmanager
def _accounting_engine(
    graph: Graph,
    config: PipelineConfig,
    engine: "MPCEngine | None",
    backend: "str | ExecutionBackend | None",
):
    """The accounting engine an entry point runs on.

    A caller-supplied ``engine`` is used as is, and ``backend`` must then
    stay ``None`` (:class:`ValueError` otherwise).  Without one, a fresh
    ``MPCEngine.for_delta`` is built over ``make_backend(backend)``; a
    backend built here from a string spec is owned by this call and is
    closed on exit, even when an exception escapes mid-run — relying on
    the ProcessBackend finalizer instead can race pool shutdown at
    interpreter exit and leaves arena segments linked until garbage
    collection.  Counters stay readable after the close, and a closed
    backend restarts on demand.
    """
    if engine is not None:
        if backend is not None:
            raise ValueError(
                "pass the backend through the engine when supplying one "
                "(MPCEngine(..., backend=...))"
            )
        yield engine
        return
    owns_backend = not isinstance(backend, ExecutionBackend)
    engine = MPCEngine.for_delta(
        max(graph.n + graph.m, 2), config.delta, backend=make_backend(backend)
    )
    try:
        yield engine
    finally:
        if owns_backend:
            engine.backend.close()


def mpc_connected_components(
    graph: Graph,
    spectral_gap_bound: float,
    *,
    config: "PipelineConfig | None" = None,
    rng=None,
    engine: "MPCEngine | str | object | None" = None,
    backend: "str | ExecutionBackend | None" = None,
) -> PipelineResult:
    """Theorem 4: find all connected components of ``graph``, given a lower
    bound on the spectral gap of each component.

    The returned labels are always exact: a verification broadcast runs
    to stabilisation after the three stages.

    Parameters
    ----------
    graph:
        Input (sparse) undirected graph.
    spectral_gap_bound:
        The paper's ``λ ∈ (0, 1]``: a lower bound on ``λ₂`` of every
        connected component.  Smaller bounds mean longer walks
        (``T = O(log(n/γ)/λ)``) and more rounds.
    config, rng:
        Tuning constants and randomness.
    engine:
        Either the accounting :class:`~repro.mpc.engine.MPCEngine` to run
        the paper pipeline on (a fresh ``MPCEngine.for_delta`` is created
        from ``config.delta`` if absent) or an *algorithm engine*
        selector — the name or instance of a registered
        :mod:`repro.engines` connectivity engine (``"paper"``,
        ``"liu_tarjan"``, ``"exponentiation"``, ``"portfolio"``).  An
        algorithm engine runs on a fresh accounting engine built from
        ``config.delta`` over the ``backend`` argument; to combine a
        named engine with your own ``MPCEngine`` (e.g. for trace
        capture), call ``repro.engines.get_engine(name).run(...,
        mpc=...)`` directly.
    backend:
        Execution backend for the data plane: ``"local"`` (accounting
        only, the default), ``"sharded"`` (numpy shards with enforced
        per-shard memory and per-round communication caps), ``"process"``
        (the sharded kernels on a worker-process pool), or an
        :class:`~repro.mpc.backends.ExecutionBackend` instance.  When an
        ``MPCEngine`` is supplied its attached backend is used instead
        and this argument must stay ``None`` (:class:`ValueError`
        otherwise).
    """
    # Lazy import: repro.engines depends on this module.
    from repro.engines import resolve_engine

    config = config or PipelineConfig()
    spectral_gap_bound = check_in_range(
        spectral_gap_bound, "spectral_gap_bound", 1e-12, 2.0
    )
    rng = ensure_rng(rng)
    if engine is None or isinstance(engine, MPCEngine):
        algorithm, mpc = resolve_engine("paper"), engine
    else:
        algorithm, mpc = resolve_engine(engine), None
    with _accounting_engine(graph, config, mpc, backend) as mpc:
        return algorithm.run(
            graph, spectral_gap_bound, config=config, rng=rng, mpc=mpc
        )


def _run_stages(
    graph: Graph,
    spectral_gap_bound: float,
    config: PipelineConfig,
    rng,
    engine: MPCEngine,
    *,
    finalize: bool = True,
) -> PipelineResult:
    """The three Theorem 4 stages plus verification, on a ready engine.

    ``finalize=False`` skips the verification broadcast and holds the
    stage-3 broadcast to ``config.broadcast_budget`` rounds: the
    Corollary 7.1 guess loop runs it that way on every guess but the
    last, so an oversized gap guess visibly leaves components unfinished.
    """
    if graph.m == 0:
        # Every vertex is isolated: nothing to do.
        labels = np.arange(graph.n, dtype=np.int64)
        return PipelineResult(
            labels=labels,
            rounds=engine.rounds,
            engine=engine,
            walk_length=0,
            phase_count=0,
            verify_rounds=0,
        )

    # Place the input on the data plane: a sharded backend checks the edge
    # list fits its fleet before any stage runs (and counts the placement).
    # Recorded as a plan so a captured trace replays the placement too.
    builder = PlanBuilder("scatter-input")
    engine.run_plan(builder.build(builder.scatter(graph.edges)))

    with engine.phase("Step1-Regularize"):
        reg = regularize(
            graph, expander_degree=config.expander_degree, rng=rng, engine=engine
        )
    product_graph = reg.graph
    n_product = product_graph.n

    walk_length = config.walk_length(n_product, spectral_gap_bound)
    phases = config.phase_count(n_product)
    schedule = config.growth_schedule(n_product)

    with engine.phase("Step2-Randomize"):
        rand = randomize_components(
            product_graph,
            walk_length,
            batches=phases,
            batch_half_degree=config.batch_half_degree,
            rng=rng,
            engine=engine,
        )

    with engine.phase("Step3-RandomGraphCC"):
        cc = random_graph_components(
            n_product,
            rand.batches,
            schedule,
            rng,
            engine=engine,
            # finalize: run the broadcast to stabilisation (exactness);
            # otherwise enforce the paper's O(1)-round budget (Claim 6.14)
            # so oversized gap guesses visibly fail (Corollary 7.1).
            broadcast_budget=None if finalize else config.broadcast_budget,
        )

    labels = reg.lift_labels(cc.labels)
    verify_rounds = 0
    if finalize:
        with engine.phase("Verify"):
            labels, verify_rounds = _finalize_against_graph(graph, labels, engine)

    return PipelineResult(
        labels=labels,
        rounds=engine.rounds,
        engine=engine,
        walk_length=walk_length,
        phase_count=phases,
        verify_rounds=verify_rounds,
        regularized=reg,
        randomized=rand,
        cc=cc,
    )


@dataclass(frozen=True)
class AdaptiveIteration:
    """Telemetry for one gap guess of Corollary 7.1."""

    gap_guess: float
    walk_length: int
    rounds: int
    finished_vertices: int
    active_vertices: int


@dataclass(frozen=True)
class AdaptiveResult:
    """Outcome of the Corollary 7.1 adaptive pipeline: exact component
    ``labels``, total ``rounds``, the accounting ``engine``, and per-guess
    ``iterations`` telemetry.
    """

    labels: np.ndarray
    rounds: int
    engine: MPCEngine
    iterations: "list[AdaptiveIteration]"


def mpc_connected_components_adaptive(
    graph: Graph,
    *,
    config: "PipelineConfig | None" = None,
    rng=None,
    engine: "MPCEngine | None" = None,
    backend: "str | ExecutionBackend | None" = None,
    initial_gap: float = 0.5,
    gap_exponent: float = 1.1,
    min_gap: "float | None" = None,
) -> AdaptiveResult:
    """Corollary 7.1: components without knowing the spectral gap.

    Runs the pipeline with guesses ``λ'_1 = 1/2``, ``λ'_{j+1} = (λ'_j)^{1.1}``
    on the still-unfinished part of the graph.  After each run, a component
    is *final* iff no input edge leaves it (the growability post-check,
    one sort); others are retried with the smaller guess.  Components with
    gap ``λ₂(G_i)`` finish once ``λ'_j ≤ λ₂(G_i)``, after
    ``O(log log(1/λ₂(G_i)))`` guesses.

    ``engine`` is an accounting :class:`~repro.mpc.engine.MPCEngine` or
    ``None``; ``backend`` follows :func:`mpc_connected_components`.

    Raises
    ------
    TypeError
        ``engine`` is neither ``None`` nor an ``MPCEngine``.
    """
    if engine is not None and not isinstance(engine, MPCEngine):
        raise TypeError(
            f"engine must be an MPCEngine or None, got {type(engine).__name__}"
        )
    config = config or PipelineConfig()
    rng = ensure_rng(rng)
    if min_gap is None:
        min_gap = 1.0 / max(graph.n**2, 4)
    with _accounting_engine(graph, config, engine, backend) as engine:
        return _run_adaptive(
            graph, config, rng, engine,
            initial_gap=initial_gap, gap_exponent=gap_exponent, min_gap=min_gap,
        )


def _run_adaptive(
    graph: Graph,
    config: PipelineConfig,
    rng,
    engine: MPCEngine,
    *,
    initial_gap: float,
    gap_exponent: float,
    min_gap: float,
) -> AdaptiveResult:
    """The Corollary 7.1 guess loop, on a ready engine."""
    n = graph.n
    final_labels = np.full(n, -1, dtype=np.int64)
    next_label = 0
    active = np.ones(n, dtype=bool)
    iterations: "list[AdaptiveIteration]" = []
    gap_guess = initial_gap

    while active.any():
        active_idx = np.flatnonzero(active)
        sub, vertex_list = graph.subgraph(active_idx)
        rounds_before = engine.rounds
        exhausted = gap_guess < min_gap

        gap = check_in_range(
            max(gap_guess, min_gap), "spectral_gap_bound", 1e-12, 2.0
        )
        # On the last allowed guess, finalize so termination is certain.
        result = _run_stages(sub, gap, config, rng, engine, finalize=exhausted)
        labels = result.labels

        # Growability check (one sort): a label is final iff no edge of the
        # active subgraph crosses out of it.
        engine.charge_sort(sub.m, label="growability check")
        if sub.m:
            lu = labels[sub.edges[:, 0]]
            lv = labels[sub.edges[:, 1]]
            crossing = np.unique(np.concatenate([lu[lu != lv], lv[lu != lv]]))
        else:
            crossing = np.empty(0, dtype=np.int64)
        growable = np.zeros(int(labels.max()) + 1, dtype=bool)
        growable[crossing] = True

        finished_mask = ~growable[labels]
        finished_vertices = vertex_list[finished_mask]
        if finished_mask.any():
            parts = np.unique(labels[finished_mask])
            rank = np.searchsorted(parts, labels[finished_mask])
            final_labels[finished_vertices] = next_label + rank
            next_label += int(parts.size)
        active[finished_vertices] = False

        iterations.append(
            AdaptiveIteration(
                gap_guess=gap_guess,
                walk_length=result.walk_length,
                rounds=engine.rounds - rounds_before,
                finished_vertices=int(finished_vertices.size),
                active_vertices=int(active.sum()),
            )
        )
        gap_guess = gap_guess**gap_exponent

    return AdaptiveResult(
        labels=canonical_labels(final_labels),
        rounds=engine.rounds,
        engine=engine,
        iterations=iterations,
    )
