"""Engine/backend cross-product certification.

The engine layer's contract (``docs/engines.md``) is differential: every
registered connectivity engine must produce the *exact* component
partition — bit-identical across all execution backends — and its plan
stream must capture and replay like the paper pipeline's.  This module
gates:

* **Differential** — ``liu_tarjan`` and ``exponentiation`` vs the
  union-find ground truth across all 12 generator families on
  local/sharded/process±arena, with bit-identical labels and equal
  round counts;
* **Accounting** — every registered engine on ``ShardedBackend`` at
  δ = 0.3 over the 12 families: the shard fleet equals
  ``peak_machines``, exchanges fit the charged rounds, and at most one
  exchange goes unattributed;
* **Replay** — a hypothesis property: each engine's recorded plans
  replay bit-identically (labels and exchange counters) on all three
  backends, for arbitrary random multigraphs;
* **Square step** — hypothesis properties: the ``wedge_keys`` transform
  emits each unordered pair of a capped midpoint span once, half the
  stream of the per-midpoint loop it replaced (kept here as the
  reference), with the same distinct keys, and the square plan's output
  is unchanged;
* **Portfolio** — the dispatcher never returns labels differing from
  the paper engine, and its feature rules pick the documented regimes;
* **Registry and front-end dispatch** — ``engine="paper"`` is
  bit-identical to the default path, unknown names fail loudly, and the
  ``engine=``/``backend=`` seam composes.
"""

import dataclasses
import inspect
import pathlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.bench.workloads import Workload, family_names
from repro.engines import (
    ConnectivityEngine,
    choose_engine,
    engine_names,
    estimate_features,
    get_engine,
    resolve_engine,
)
from repro.engines.base import _t_wedge_keys
from repro.engines.exponentiation import _square_plan
from repro.graph import (
    Graph,
    canonical_labels,
    components_agree,
    dumbbell_graph,
    path_graph,
    permutation_regular_graph,
)
from repro.graph.union_find import DisjointSetUnion
from repro.mpc import LocalBackend, MPCEngine, ProcessBackend, ShardedBackend
from repro.mpc.plan import replay

CONFIG = repro.PipelineConfig(
    delta=0.5, expander_degree=4, max_walk_length=32, oversample=4, max_phases=2
)
GAP_BOUND = 0.1
SEED = 23
SIZE_OVERRIDES = {"complete": 64, "hypercube": 64}
NEW_ENGINES = ("liu_tarjan", "exponentiation")
#: A small machine memory (n^0.3), where an under-charged volume shows as
#: a shard fleet larger than the machines the engine reports.
ACCOUNTING_DELTA = 0.3


def union_find_truth(graph) -> np.ndarray:
    """Sequential ground truth: DSU over the edge list."""
    dsu = DisjointSetUnion(graph.n)
    dsu.union_edges(graph.edges)
    return canonical_labels(dsu.labels())


def build(family: str, n: int = 192):
    return Workload(family, SIZE_OVERRIDES.get(family, n)).build(SEED)


def run_engine(graph, engine: str, backend: str):
    """One engine run through the public front-end on a named backend."""
    if backend == "process":
        backend = ProcessBackend(workers=2, min_parallel_items=0)
    try:
        return repro.mpc_connected_components(
            graph, GAP_BOUND, config=CONFIG, rng=SEED, engine=engine,
            backend=backend,
        )
    finally:
        if isinstance(backend, ProcessBackend):
            backend.close()


# ---------------------------------------------------------------------------
# Differential: both new engines, all 12 families, all backends
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("engine", NEW_ENGINES)
@pytest.mark.parametrize("family", family_names())
class TestEngineDifferential:
    def test_all_backends_match_truth(self, family, engine):
        graph = build(family)
        truth = union_find_truth(graph)
        local = run_engine(graph, engine, "local")
        sharded = run_engine(graph, engine, "sharded")
        process = run_engine(graph, engine, "process")
        assert components_agree(local.labels, truth)
        # Stronger than agreement: engines canonicalise, so the labels
        # are bit-identical to the canonical truth and across backends.
        assert np.array_equal(local.labels, truth)
        assert np.array_equal(local.labels, sharded.labels)
        assert np.array_equal(local.labels, process.labels)
        assert local.rounds == sharded.rounds == process.rounds


@pytest.mark.parametrize("engine", engine_names())
@pytest.mark.parametrize("family", family_names())
def test_sharded_fleet_matches_accounting(family, engine):
    """At δ = 0.3 every engine charges the volume its operations hold.

    The sharded fleet equals the engine's ``peak_machines``, the
    materialised exchanges fit the charged rounds, and at most the
    trailing stabilisation probe goes unattributed.
    """
    graph = build(family)
    config = dataclasses.replace(CONFIG, delta=ACCOUNTING_DELTA)
    mpc = MPCEngine.for_delta(
        max(graph.n + graph.m, 2), ACCOUNTING_DELTA, backend=ShardedBackend()
    )
    result = get_engine(engine).run(
        graph, GAP_BOUND, config=config, rng=SEED, mpc=mpc
    )
    stats = mpc.backend.stats()
    assert stats.shard_count == mpc.peak_machines
    assert stats.exchanges <= result.rounds
    assert stats.exchanges - sum(c.exchanges for c in mpc.charges) <= 1


@pytest.mark.parametrize("family", family_names())
def test_portfolio_matches_paper_labels(family):
    """The dispatcher must never change the answer, only the cost."""
    graph = build(family)
    paper = repro.mpc_connected_components(
        graph, GAP_BOUND, config=CONFIG, rng=SEED, engine="paper"
    )
    portfolio = repro.mpc_connected_components(
        graph, GAP_BOUND, config=CONFIG, rng=SEED, engine="portfolio"
    )
    assert np.array_equal(portfolio.labels, paper.labels)


# ---------------------------------------------------------------------------
# Hypothesis: recorded plans replay bit-identically on all three backends
# ---------------------------------------------------------------------------


@st.composite
def multigraphs(draw):
    """Arbitrary small multigraphs (self-loops and parallel edges too)."""
    n = draw(st.integers(min_value=2, max_value=40))
    m = draw(st.integers(min_value=0, max_value=60))
    endpoint = st.integers(min_value=0, max_value=n - 1)
    edges = draw(
        st.lists(st.tuples(endpoint, endpoint), min_size=m, max_size=m)
    )
    return Graph(n, np.array(edges, dtype=np.int64).reshape(-1, 2))


@pytest.mark.parametrize("engine", NEW_ENGINES)
@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(graph=multigraphs())
def test_engine_trace_replays_on_all_backends(tmp_path, engine, graph):
    """Capture on sharded; replay must be bit-identical on every backend.

    ``ReplayResult.ok`` certifies every plan output (including the final
    labels) matches the capture bit-for-bit; the exchange counters must
    reproduce exactly on the enforced backends and be zero on the
    accounting-only local backend.
    """
    path = pathlib.Path(tmp_path) / f"{engine}-{graph.n}-{graph.m}.json"
    backend = ShardedBackend()
    with MPCEngine.for_delta(
        max(graph.n + graph.m, 2), CONFIG.delta, backend=backend,
        trace=str(path),
    ) as mpc:
        result = get_engine(engine).run(
            graph, GAP_BOUND, config=CONFIG, rng=SEED, mpc=mpc
        )
        captured = backend.stats().exchanges
    assert np.array_equal(result.labels, union_find_truth(graph))
    for name in ("local", "sharded", "process"):
        replayed = replay(path, backend=name)
        assert replayed.ok
        expected = 0 if name == "local" else captured
        assert replayed.stats.exchanges == expected


# ---------------------------------------------------------------------------
# Hypothesis: the square step's wedge emits each pair once per midpoint
# ---------------------------------------------------------------------------


def ordered_wedge_keys(sorted_pairs: np.ndarray, k: int, cap: int) -> np.ndarray:
    """Reference wedge: a Python loop over midpoint spans emitting every
    *ordered* pair of span positions ``i != j`` (each wedge twice)."""
    mid, other = sorted_pairs[:, 0], sorted_pairs[:, 1]
    keys = [np.empty(0, dtype=np.int64)]
    for v in np.unique(mid).tolist():
        span = other[mid == v][: cap + 1]
        left = np.repeat(span, span.size)
        right = np.tile(span, span.size)
        sel = left != right
        keys.append(
            np.minimum(left[sel], right[sel]) * k + np.maximum(left[sel], right[sel])
        )
    return np.concatenate(keys)


def wedge_charge(sorted_pairs: np.ndarray, n: int, cap: int) -> int:
    """The square dedup's charge: ``Σ g(g−1)/2`` over capped spans ``g``."""
    spans = np.minimum(np.bincount(sorted_pairs[:, 0], minlength=n), cap + 1)
    return int((spans * (spans - 1) // 2).sum())


@st.composite
def midpoint_sorted_incidences(draw):
    """``(h, 2)`` incidences sorted by midpoint, repeated neighbours
    allowed, with a cap from 0 to the largest span + 1."""
    n = draw(st.integers(min_value=1, max_value=30))
    h = draw(st.integers(min_value=0, max_value=80))
    vertex = st.integers(min_value=0, max_value=n - 1)
    pairs = np.array(
        draw(st.lists(st.tuples(vertex, vertex), min_size=h, max_size=h)),
        dtype=np.int64,
    ).reshape(-1, 2)
    pairs = pairs[np.argsort(pairs[:, 0], kind="stable")]
    largest = int(np.bincount(pairs[:, 0]).max()) if h else 0
    cap = draw(st.integers(min_value=0, max_value=largest + 1))
    return n, pairs, cap


@settings(max_examples=150, deadline=None)
@given(case=midpoint_sorted_incidences())
def test_exponentiation_wedge_emits_each_pair_once(case):
    n, pairs, cap = case
    keys = _t_wedge_keys(pairs, k=n, cap=cap)
    assert keys.dtype == np.int64
    # The loop's distinct keys, each exactly half as often: every pair
    # of span positions once instead of in both orders.
    distinct, counts = np.unique(keys, return_counts=True)
    loop_distinct, loop_counts = np.unique(
        ordered_wedge_keys(pairs, n, cap), return_counts=True
    )
    assert np.array_equal(distinct, loop_distinct)
    assert np.array_equal(2 * counts, loop_counts)
    # A span of distinct neighbours repeats no pair.
    for v in np.unique(pairs[:, 0]).tolist():
        span = pairs[pairs[:, 0] == v]
        span_keys = _t_wedge_keys(span, k=n, cap=cap)
        if np.unique(span[: cap + 1, 1]).size == min(span.shape[0], cap + 1):
            assert np.unique(span_keys).size == span_keys.size
    # With every span's neighbours distinct, the stream is the charge.
    distinct_pairs = np.unique(pairs, axis=0)
    assert _t_wedge_keys(distinct_pairs, k=n, cap=cap).size == wedge_charge(
        distinct_pairs, n, cap
    )


@st.composite
def deduped_edges_and_cap(draw):
    """A deduplicated simple edge list ``u < v`` and a wedge cap."""
    n = draw(st.integers(min_value=2, max_value=30))
    vertex = st.integers(min_value=0, max_value=n - 1)
    raw = np.array(
        draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=60)),
        dtype=np.int64,
    ).reshape(-1, 2)
    raw = raw[raw[:, 0] != raw[:, 1]]
    edges = np.unique(np.sort(raw, axis=1), axis=0)
    cap = draw(st.integers(min_value=0, max_value=n))
    return n, edges, cap


@settings(max_examples=60, deadline=None)
@given(case=deduped_edges_and_cap())
def test_exponentiation_square_plan_output_unchanged(case):
    """The square plan still returns the loop's deduplicated wedges."""
    n, edges, cap = case
    (doubled,) = LocalBackend().run_plan(_square_plan(edges, n, cap))
    incidences = np.concatenate([edges, edges[:, ::-1]])
    incidences = incidences[np.argsort(incidences[:, 0], kind="stable")]
    expected = np.unique(ordered_wedge_keys(incidences, n, cap))
    assert np.array_equal(
        np.asarray(doubled).reshape(-1, 2),
        np.stack([expected // n, expected % n], axis=1),
    )


# ---------------------------------------------------------------------------
# Round scaling: each engine's cost follows its own parameter
# ---------------------------------------------------------------------------


class TestEngineScaling:
    def test_exponentiation_phases_track_log_diameter(self):
        """A path (D = n) needs ~log n phases, a dumbbell
        (D = O(log n)) at least two fewer."""
        path = run_engine(path_graph(512), "exponentiation", "local")
        bell = run_engine(dumbbell_graph(256, 8, rng=0), "exponentiation", "local")
        assert path.phase_count <= np.log2(512) + 2
        assert bell.phase_count <= path.phase_count - 2

    def test_exponentiation_phases_grow_with_path_length(self):
        short = run_engine(path_graph(32), "exponentiation", "local").phase_count
        long = run_engine(path_graph(512), "exponentiation", "local").phase_count
        assert long > short
        # ...but only logarithmically: 16x the diameter, ≤ +5 phases.
        assert long <= short + 5

    def test_exponentiation_expander_constant_phases(self):
        graph = permutation_regular_graph(1024, 8, rng=2)
        assert run_engine(graph, "exponentiation", "local").phase_count <= 4

    @pytest.mark.parametrize("engine", NEW_ENGINES)
    @pytest.mark.parametrize(
        "edges",
        [[(0, 1), (0, 1), (1, 1), (2, 3)], []],
        ids=["multigraph", "empty"],
    )
    def test_small_graphs_match_truth(self, engine, edges):
        graph = Graph(4, np.array(edges, dtype=np.int64).reshape(-1, 2))
        result = run_engine(graph, engine, "local")
        assert np.array_equal(result.labels, union_find_truth(graph))
        if not edges:
            assert result.phase_count == 0 and result.rounds == 0

    @pytest.mark.parametrize("n", [64, 128, 256, 512, 1024])
    def test_liu_tarjan_rounds_logarithmic_on_path(self, n):
        assert run_engine(path_graph(n), "liu_tarjan", "local").rounds <= 5 * np.log2(n)


# ---------------------------------------------------------------------------
# Portfolio feature rules
# ---------------------------------------------------------------------------


class TestPortfolioDispatch:
    def test_low_diameter_picks_exponentiation(self):
        features = estimate_features(build("star"), GAP_BOUND)
        assert features.est_diameter <= 2
        assert choose_engine(features) == "exponentiation"

    def test_high_diameter_weak_gap_picks_liu_tarjan(self):
        features = estimate_features(build("path"), GAP_BOUND)
        assert features.est_diameter == 191
        assert choose_engine(features) == "liu_tarjan"

    def test_high_diameter_strong_gap_picks_paper(self):
        features = estimate_features(build("path"), 0.5)
        assert choose_engine(features) == "paper"

    def test_empty_graph_features(self):
        features = estimate_features(Graph(5, np.empty((0, 2), dtype=np.int64)), 0.1)
        assert features.est_diameter == 0 and features.m == 0


# ---------------------------------------------------------------------------
# Registry and front-end dispatch
# ---------------------------------------------------------------------------


class TestEngineRegistry:
    def test_registered_names(self):
        assert engine_names() == [
            "exponentiation", "liu_tarjan", "paper", "portfolio",
        ]

    def test_get_engine_unknown_name(self):
        with pytest.raises(KeyError, match="liu_tarjan"):
            get_engine("nope")

    def test_resolve_engine_passthrough_and_typeerror(self):
        instance = get_engine("paper")
        assert resolve_engine(instance) is instance
        assert resolve_engine("paper") is instance
        with pytest.raises(TypeError):
            resolve_engine(42)

    def test_base_run_is_abstract(self):
        with pytest.raises(NotImplementedError):
            ConnectivityEngine().run(build("cycle", 8), GAP_BOUND)

    @pytest.mark.parametrize("name", ["abstract", *engine_names()])
    def test_run_signature_is_the_contract(self, name):
        """Every engine takes exactly the contract's arguments: no
        paper-only knob for the other engines to accept and ignore."""
        engine = ConnectivityEngine() if name == "abstract" else get_engine(name)
        params = inspect.signature(engine.run).parameters
        assert [(p, params[p].kind.name) for p in params] == [
            ("graph", "POSITIONAL_OR_KEYWORD"),
            ("spectral_gap_bound", "POSITIONAL_OR_KEYWORD"),
            ("config", "KEYWORD_ONLY"),
            ("rng", "KEYWORD_ONLY"),
            ("mpc", "KEYWORD_ONLY"),
        ]

    def test_paper_engine_matches_default_path(self):
        graph = build("permutation_regular", 256)
        default = repro.mpc_connected_components(
            graph, GAP_BOUND, config=CONFIG, rng=SEED
        )
        named = repro.mpc_connected_components(
            graph, GAP_BOUND, config=CONFIG, rng=SEED, engine="paper"
        )
        assert np.array_equal(default.labels, named.labels)
        assert default.rounds == named.rounds
        summaries = [p.to_json() for p in default.engine.phase_summaries()]
        assert summaries == [p.to_json() for p in named.engine.phase_summaries()]

    def test_named_engine_with_backend_instance_stays_open(self):
        graph = build("cycle", 64)
        backend = ShardedBackend()
        result = repro.mpc_connected_components(
            graph, GAP_BOUND, config=CONFIG, rng=SEED,
            engine="liu_tarjan", backend=backend,
        )
        assert backend.stats().plans > 0
        assert np.array_equal(result.labels, union_find_truth(graph))

    def test_mpc_engine_argument_still_accounts(self):
        graph = build("cycle", 64)
        mpc = MPCEngine(256)
        result = repro.mpc_connected_components(
            graph, GAP_BOUND, config=CONFIG, rng=SEED, engine=mpc
        )
        assert result.engine is mpc and mpc.rounds == result.rounds

    def test_engines_ignore_gap_and_seed(self):
        """The label-propagation engines are deterministic: gap bound
        and RNG seed must not change anything."""
        graph = build("dumbbell", 128)
        runs = [
            repro.mpc_connected_components(
                graph, gap, config=CONFIG, rng=seed, engine="exponentiation"
            )
            for gap, seed in ((0.1, 1), (0.9, 2))
        ]
        assert np.array_equal(runs[0].labels, runs[1].labels)
        assert runs[0].rounds == runs[1].rounds
