"""Pipeline-level differential test harness.

Runs the full Theorem 4 pipeline on *all four* execution backends
(accounting-only local, enforced sharded, true-parallel process pool,
wire-protocol rpc) plus the two classical baselines (Shiloach–Vishkin
and random-mate) across every registered generator family and asserts
canonical-label agreement with the union-find ground truth; the
``liu_tarjan`` and ``exponentiation`` engines get the same differential
in ``tests/test_engines.py``.  On top of the correctness differential:

* **Seeded determinism** — identical RNG seeds must give identical
  labels, round counts, and phase breakdowns on every backend, across
  δ ∈ {0.3, 0.5, 0.7};
* **Round certification at pipeline granularity** — every
  ``MPCEngine`` charge emitted during ``mpc_connected_components`` must
  cover the ``ShardedBackend`` exchanges it materialised, within the
  declared round budget;
* **Scale** — the ``slow`` tier runs ``n = 10^5`` end to end on the
  sharded backend with enforced caps.
"""

import numpy as np
import pytest

import repro
from repro.baselines import random_mate_components, shiloach_vishkin_components
from repro.bench.workloads import Workload, family_names
from repro.graph import canonical_labels, components_agree
from repro.graph.union_find import DisjointSetUnion
from repro.mpc import MPCEngine, ProcessBackend, RpcBackend, ShardedBackend

#: Laptop-scale constants: short capped walks under-mix on the weakly
#: connected families, and the honest verification broadcast finishes the
#: job — output labels stay exact either way, which is what we test.
CONFIG = repro.PipelineConfig(
    delta=0.5, expander_degree=4, max_walk_length=32, oversample=4, max_phases=2
)
GAP_BOUND = 0.1
SEED = 23

#: Family-specific sizes: keep every pipeline run sub-second while still
#: producing multi-component / multi-shard structure.
SIZE_OVERRIDES = {"complete": 64, "hypercube": 64}

BASELINES = {
    "shiloach_vishkin": lambda graph: shiloach_vishkin_components(graph).labels,
    "random_mate": lambda graph: random_mate_components(graph, rng=SEED).labels,
}


def union_find_truth(graph) -> np.ndarray:
    """Sequential ground truth: DSU over the edge list."""
    dsu = DisjointSetUnion(graph.n)
    dsu.union_edges(graph.edges)
    return canonical_labels(dsu.labels())


def build(family: str, n: int = 192):
    return Workload(family, SIZE_OVERRIDES.get(family, n)).build(SEED)


def run_pipeline(graph, backend: str, *, delta: float = 0.5, rng: int = SEED):
    config = CONFIG.with_overrides(delta=delta)
    if backend == "process":
        # Force every operation through the worker pool (the default
        # min_parallel_items would keep laptop-scale ops on the serial
        # kernels and leave the IPC path untested).
        backend = ProcessBackend(workers=2, min_parallel_items=0)
    elif backend == "rpc":
        # Force every operation across the wire protocol for the same
        # reason min_parallel_items is zeroed above.
        backend = RpcBackend(workers=2, min_wire_items=0)
    try:
        return repro.mpc_connected_components(
            graph, GAP_BOUND, config=config, rng=rng, backend=backend
        )
    finally:
        if isinstance(backend, (ProcessBackend, RpcBackend)):
            backend.close()


# ---------------------------------------------------------------------------
# Differential: pipeline (all four backends) + baselines vs union-find truth
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("family", family_names())
class TestDifferential:
    def test_pipeline_all_backends_match_truth(self, family):
        graph = build(family)
        truth = union_find_truth(graph)
        local = run_pipeline(graph, "local")
        sharded = run_pipeline(graph, "sharded")
        process = run_pipeline(graph, "process")
        rpc = run_pipeline(graph, "rpc")
        assert components_agree(local.labels, truth)
        assert components_agree(sharded.labels, truth)
        assert components_agree(process.labels, truth)
        assert components_agree(rpc.labels, truth)
        # Stronger than agreement: the backends are bit-identical, over
        # shared memory and across the wire.
        assert np.array_equal(local.labels, sharded.labels)
        assert np.array_equal(local.labels, process.labels)
        assert np.array_equal(local.labels, rpc.labels)
        assert local.rounds == sharded.rounds == process.rounds == rpc.rounds
        # The min-label broadcast runs on a CSR index on every data plane.
        for name, result in (("sharded", sharded), ("process", process),
                             ("rpc", rpc)):
            stats = result.engine.backend.stats()
            assert stats.csr["csr_builds"] > 0, name
            assert stats.op_counts["csr_min_label"] > 0, name

    @pytest.mark.parametrize("baseline", sorted(BASELINES))
    def test_baselines_match_truth(self, family, baseline):
        graph = build(family)
        truth = union_find_truth(graph)
        assert components_agree(BASELINES[baseline](graph), truth)


# ---------------------------------------------------------------------------
# CSR broadcast vs the sort-layout reference, per family, per backend
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("family", family_names())
class TestCSRDifferential:
    """The CSR gather broadcast must be invisible everywhere but the
    ``csr`` counters: labels, rounds, exchanges, and byte counts are
    bit-identical to the sort-layout reference broadcast
    (``sort_broadcast`` in ``tests/conftest.py``, one
    ``min_label_exchange`` scatter per level) on every family and every
    backend."""

    def _sharded(self, graph):
        backend = ShardedBackend()
        result = repro.mpc_connected_components(
            graph, GAP_BOUND, config=CONFIG, rng=SEED, backend=backend
        )
        return result, backend.stats()

    def test_sharded_counters_identical(self, family, sort_broadcast):
        graph = build(family)
        with sort_broadcast():
            off, off_stats = self._sharded(graph)
        on, on_stats = self._sharded(graph)
        assert components_agree(off.labels, union_find_truth(graph))
        assert np.array_equal(on.labels, off.labels)
        assert on.rounds == off.rounds
        assert (
            on_stats.exchanges,
            on_stats.bytes_exchanged,
            on_stats.shard_count,
            on_stats.peak_shard_load,
        ) == (
            off_stats.exchanges,
            off_stats.bytes_exchanged,
            off_stats.shard_count,
            off_stats.peak_shard_load,
        )
        # Only the CSR counters may differ: the CSR broadcast builds an
        # index and runs csr_min_label, and the reference never does.
        assert on_stats.csr["csr_builds"] > 0
        assert on_stats.op_counts["csr_min_label"] > 0
        assert all(v == 0 for v in off_stats.csr.values())
        assert "csr_min_label" not in off_stats.op_counts

    def test_pool_backends_match_sort_reference(self, family, sort_broadcast):
        graph = build(family)
        with sort_broadcast():
            off, _ = self._sharded(graph)
        for backend in ("local", "process", "rpc"):
            result = run_pipeline(graph, backend)
            assert np.array_equal(result.labels, off.labels), backend
            assert result.rounds == off.rounds, backend


# ---------------------------------------------------------------------------
# Seeded determinism across backends and deltas
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("delta", [0.3, 0.5, 0.7])
class TestSeededDeterminism:
    def _summaries(self, graph, backend, delta):
        result = run_pipeline(graph, backend, delta=delta)
        return (
            result.labels,
            result.rounds,
            [p.to_json() for p in result.engine.phase_summaries()],
        )

    def test_same_seed_same_run(self, delta):
        graph = build("permutation_regular", 256)
        for backend in ("local", "sharded", "process"):
            labels_a, rounds_a, phases_a = self._summaries(graph, backend, delta)
            labels_b, rounds_b, phases_b = self._summaries(graph, backend, delta)
            assert np.array_equal(labels_a, labels_b)
            assert rounds_a == rounds_b
            assert phases_a == phases_b

    def test_backends_agree_exactly(self, delta):
        graph = build("dumbbell", 256)
        labels_l, rounds_l, phases_l = self._summaries(graph, "local", delta)
        labels_s, rounds_s, phases_s = self._summaries(graph, "sharded", delta)
        labels_p, rounds_p, phases_p = self._summaries(graph, "process", delta)
        labels_r, rounds_r, phases_r = self._summaries(graph, "rpc", delta)
        assert np.array_equal(labels_l, labels_s)
        assert np.array_equal(labels_l, labels_p)
        assert np.array_equal(labels_l, labels_r)
        assert rounds_l == rounds_s == rounds_p == rounds_r
        # Phase breakdowns agree up to the data-plane exchange counters
        # (zero on the accounting-only backend by definition); the two
        # enforced backends must agree on those too.
        def strip(phases):
            return [{k: v for k, v in p.items() if k != "exchanges"}
                    for p in phases]

        assert strip(phases_l) == strip(phases_s)
        assert phases_s == phases_p
        assert phases_s == phases_r

    def test_different_seed_different_randomness(self, delta):
        # Canonical labels are seed-invariant (they only encode the true
        # partition), but the walk targets feeding the pipeline are not:
        # identical batches across seeds would mean the RNG is not actually
        # threaded through.
        graph = build("permutation_regular", 256)
        a = run_pipeline(graph, "sharded", delta=delta, rng=1)
        b = run_pipeline(graph, "sharded", delta=delta, rng=2)
        assert np.array_equal(a.labels, b.labels)  # partition is seed-invariant
        assert not np.array_equal(
            a.randomized.batches[0], b.randomized.batches[0]
        ), "walk batches must depend on the seed"


# ---------------------------------------------------------------------------
# Round certification at pipeline granularity
# ---------------------------------------------------------------------------


def certified_run(n=1024, memory=2048):
    graph = Workload("permutation_regular", n, {"degree": 6}).build(SEED)
    backend = ShardedBackend()
    engine = MPCEngine(memory, backend=backend)
    result = repro.mpc_connected_components(
        graph, GAP_BOUND, config=CONFIG, rng=SEED, engine=engine
    )
    return result, engine, backend


class TestPipelineRoundCertification:
    """Every charge must cover the exchanges it materialised.

    A charge's exchange budget is its declared rounds plus a constant
    slack of 2: one barrier for a stabilisation probe inherited from the
    preceding stage (detecting broadcast convergence costs one
    non-improving level the engine never charges) and one for splitter /
    placement metadata folded into a following charge.
    """

    def test_exchanges_within_declared_rounds(self):
        result, engine, backend = certified_run()
        assert backend.stats().exchanges > 0  # multi-shard run really moved data
        for charge in engine.charges:
            assert charge.exchanges <= charge.rounds + 2, (
                f"{charge.phase}/{charge.label}: {charge.exchanges} exchanges "
                f"exceed {charge.rounds} declared rounds"
            )

    def test_total_exchanges_within_total_rounds(self):
        result, engine, backend = certified_run()
        assert backend.stats().exchanges <= result.rounds

    def test_every_exchange_is_attributed(self):
        result, engine, backend = certified_run()
        attributed = sum(c.exchanges for c in engine.charges)
        # At most the trailing stabilisation probe of the final broadcast
        # may land after the last charge.
        assert 0 <= backend.stats().exchanges - attributed <= 1

    def test_every_stage_materialises_exchanges(self):
        result, engine, backend = certified_run()
        by_phase = {p.name: p.exchanges for p in engine.phase_summaries()}
        assert by_phase["Step3-RandomGraphCC"] > 0
        assert by_phase["Verify"] > 0

    def test_phase_exchanges_within_phase_rounds(self):
        result, engine, backend = certified_run()
        for phase in engine.phase_summaries():
            assert phase.exchanges <= phase.rounds + phase.charges

    def test_charges_match_local_backend_charges(self):
        """The sharded data plane must not change the control plane: the
        charge sequence (labels, kinds, rounds) is backend-invariant."""
        graph = Workload("permutation_regular", 1024, {"degree": 6}).build(SEED)
        engine_l = MPCEngine(2048)
        repro.mpc_connected_components(
            graph, GAP_BOUND, config=CONFIG, rng=SEED, engine=engine_l
        )
        _, engine_s, _ = certified_run()
        seq_l = [(c.label, c.kind, c.rounds, c.items) for c in engine_l.charges]
        seq_s = [(c.label, c.kind, c.rounds, c.items) for c in engine_s.charges]
        assert seq_l == seq_s


# ---------------------------------------------------------------------------
# Scale: the enforced sharded pipeline at n = 10^5
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_sharded_pipeline_at_1e5_matches_local():
    """Acceptance: the full pipeline runs end to end on the sharded
    backend with enforced per-shard caps at n = 10^5 and produces labels
    identical to the local backend."""
    n = 100_000
    graph = Workload("permutation_regular", n, {"degree": 6}).build(SEED)
    config = CONFIG.with_overrides(delta=0.35)
    truth = union_find_truth(graph)

    local = repro.mpc_connected_components(
        graph, GAP_BOUND, config=config, rng=SEED, backend="local"
    )
    backend = ShardedBackend()
    engine = MPCEngine.for_delta(graph.n + graph.m, 0.35, backend=backend)
    sharded = repro.mpc_connected_components(
        graph, GAP_BOUND, config=config, rng=SEED, engine=engine
    )

    assert np.array_equal(local.labels, sharded.labels)
    assert components_agree(sharded.labels, truth)
    stats = backend.stats()
    assert stats.shard_count == engine.peak_machines > 100
    assert 0 < stats.exchanges <= sharded.rounds
    assert stats.peak_shard_load <= backend.shard_memory


@pytest.mark.slow
def test_adaptive_runs_on_sharded_backend():
    graph = Workload("dumbbell", 512).build(SEED)
    result = repro.mpc_connected_components_adaptive(
        graph, config=CONFIG, rng=SEED, backend="sharded"
    )
    assert components_agree(result.labels, union_find_truth(graph))


def test_backend_with_engine_is_rejected():
    graph = build("cycle", 64)
    engine = MPCEngine(256)
    with pytest.raises(ValueError):
        repro.mpc_connected_components(
            graph, GAP_BOUND, config=CONFIG, rng=SEED, engine=engine,
            backend="sharded",
        )
    with pytest.raises(ValueError):
        repro.mpc_connected_components_adaptive(
            graph, config=CONFIG, rng=SEED, engine=engine, backend="sharded"
        )
