"""Unit and integration tests for the true-parallel ``ProcessBackend``.

The backend inherits all accounting from ``ShardedBackend`` and overrides
only the compute kernels, so the contract under test is twofold: every
kernel must be *bit-identical* to the serial backend (same outputs for
sort/search/reduce/min-label on any input), and every counter the engine
reports must be unchanged by the worker pool.  ``min_parallel_items=0``
forces each operation through the worker processes — without it,
laptop-scale inputs would silently use the serial fallback.
"""

import numpy as np
import pytest

import repro
from repro.bench.workloads import Workload
from repro.mpc import (
    BACKENDS,
    MPCEngine,
    ProcessBackend,
    ShardedBackend,
    backend_names,
    make_backend,
)
from repro.mpc.machine import MachineMemoryError

WORKERS = 3


@pytest.fixture
def pair():
    """A (serial, parallel) backend pair with identical shard caps."""
    serial = ShardedBackend(shard_memory=256)
    parallel = ProcessBackend(shard_memory=256, workers=WORKERS,
                              min_parallel_items=0)
    yield serial, parallel
    parallel.close()


def rng():
    return np.random.default_rng(1234)


# ---------------------------------------------------------------------------
# Kernel parity: bit-identical outputs on every operation
# ---------------------------------------------------------------------------


class TestKernelParity:
    def test_sort_by_key(self, pair):
        serial, parallel = pair
        keys = rng().integers(0, 50, 4000)  # heavy ties exercise stability
        values = rng().integers(0, 10**9, 4000)
        assert np.array_equal(
            serial.sort(values, order_by=keys),
            parallel.sort(values, order_by=keys),
        )

    def test_sort_values_only(self, pair):
        serial, parallel = pair
        values = rng().integers(-(10**6), 10**6, 3000)
        assert np.array_equal(serial.sort(values), parallel.sort(values))

    def test_sort_multicolumn_values(self, pair):
        serial, parallel = pair
        edges = rng().integers(0, 500, (2000, 2))
        keys = rng().integers(0, 100, 2000)
        assert np.array_equal(
            serial.sort(edges, order_by=keys),
            parallel.sort(edges, order_by=keys),
        )

    def test_sort_is_stable_like_argsort(self, pair):
        _, parallel = pair
        keys = np.repeat(np.arange(7), 300)
        rng().shuffle(keys)
        tags = np.arange(keys.size)
        out = parallel.sort(tags, order_by=keys)
        assert np.array_equal(out, tags[np.argsort(keys, kind="stable")])

    def test_search(self, pair):
        serial, parallel = pair
        table = rng().integers(0, 10**9, 1500)
        queries = rng().integers(0, 1500, 5000)
        assert np.array_equal(
            serial.search(table, queries), parallel.search(table, queries)
        )

    @pytest.mark.parametrize("op", ["min", "max", "sum"])
    def test_reduce_by_key(self, pair, op):
        serial, parallel = pair
        keys = rng().integers(0, 200, 6000)
        values = rng().integers(-(10**6), 10**6, 6000)
        u1, r1 = serial.reduce_by_key(keys, values, op=op)
        u2, r2 = parallel.reduce_by_key(keys, values, op=op)
        assert np.array_equal(u1, u2)
        assert np.array_equal(r1, r2)

    @pytest.mark.parametrize("dtype", [np.bool_, np.int32])
    def test_reduce_sum_widens_like_serial(self, pair, dtype):
        # np.add.reduceat widens bools and small ints to int64; the pooled
        # fold must return that dtype, not truncate into the input's.
        serial, parallel = pair
        keys = rng().integers(0, 50, 4000)
        values = rng().integers(0, 2**20, 4000).astype(dtype)
        u1, r1 = serial.reduce_by_key(keys, values, op="sum")
        u2, r2 = parallel.reduce_by_key(keys, values, op="sum")
        assert r2.dtype == r1.dtype == np.int64
        assert np.array_equal(u1, u2) and np.array_equal(r1, r2)

    def test_reduce_min_matches_first_occurrence_dedup(self, pair):
        # The contraction dedup relies on op="min" over ascending indices
        # reproducing np.unique(keys, return_index=True) exactly.
        _, parallel = pair
        keys = rng().integers(0, 64, 4000)
        idx = np.arange(keys.size)
        unique, representative = parallel.reduce_by_key(keys, idx, op="min")
        expected_unique, expected_first = np.unique(keys, return_index=True)
        assert np.array_equal(unique, expected_unique)
        assert np.array_equal(representative, expected_first)

    def test_min_label_exchange(self, pair):
        serial, parallel = pair
        labels = rng().integers(0, 10**9, 2000)
        send = rng().integers(0, 2000, 7000)
        recv = rng().integers(0, 2000, 7000)
        nl1, inc1 = serial.min_label_exchange(labels, send, recv)
        nl2, inc2 = parallel.min_label_exchange(labels, send, recv)
        assert np.array_equal(nl1, nl2)
        assert np.array_equal(inc1, inc2)

    def test_csr_min_label_with_degree_zero_rows(self, pair):
        serial, parallel = pair
        degrees = rng().integers(0, 4, 1500)
        degrees[::5] = 0  # isolated vertices: empty neighbour runs
        indptr = np.concatenate([[0], np.cumsum(degrees)])
        indices = rng().integers(0, 1500, int(indptr[-1]))
        labels = rng().integers(0, 10**9, 1500)
        nl1, inc1 = serial.csr_min_label(labels, indptr, indices)
        nl2, inc2 = parallel.csr_min_label(labels, indptr, indices)
        assert np.array_equal(nl1, nl2)
        assert np.array_equal(inc1, inc2)

    def test_unknown_reducer_raises(self, pair):
        _, parallel = pair
        with pytest.raises(ValueError):
            parallel.reduce_by_key(np.arange(10), np.arange(10), op="median")

    def test_nonfinite_float_keys_fall_back_to_serial(self, pair):
        serial, parallel = pair
        keys = rng().standard_normal(2000)
        keys[17] = np.nan
        values = np.arange(2000)
        assert np.array_equal(
            serial.sort(values, order_by=keys),
            parallel.sort(values, order_by=keys),
        )

    def test_object_dtype_payloads_fall_back_to_serial(self):
        # PyObject pointers must never cross process boundaries via shm.
        serial = ShardedBackend(shard_memory=64)
        parallel = ProcessBackend(shard_memory=64, workers=2,
                                  min_parallel_items=0)
        try:
            keys = np.arange(600)[::-1].copy()
            values = np.array([f"v{i}" for i in range(600)], dtype=object)
            out = parallel.sort(values, order_by=keys)
            assert np.array_equal(out, serial.sort(values, order_by=keys))
            assert not parallel._procs  # serial fallback: pool never started
        finally:
            parallel.close()

    def test_serial_fallback_below_threshold_is_identical(self):
        serial = ShardedBackend(shard_memory=64)
        parallel = ProcessBackend(shard_memory=64, workers=2)  # default threshold
        try:
            keys = rng().integers(0, 9, 300)
            values = rng().integers(0, 99, 300)
            u1, r1 = serial.reduce_by_key(keys, values, op="min")
            u2, r2 = parallel.reduce_by_key(keys, values, op="min")
            assert np.array_equal(u1, u2) and np.array_equal(r1, r2)
            assert not parallel._procs  # pool never started
        finally:
            parallel.close()


# ---------------------------------------------------------------------------
# Counter parity: the pool must not change the model accounting
# ---------------------------------------------------------------------------


class TestCounterParity:
    def test_all_counters_match_sharded(self, pair):
        serial, parallel = pair
        keys = rng().integers(0, 100, 3000)
        values = rng().integers(0, 10**6, 3000)
        labels = rng().integers(0, 10**6, 1000)
        endpoints = rng().integers(0, 1000, 3000)
        for backend in (serial, parallel):
            backend.scatter(values)
            backend.sort(values, order_by=keys)
            backend.search(labels, endpoints)
            backend.reduce_by_key(keys, values, op="min")
            backend.min_label_exchange(labels, endpoints, endpoints[::-1].copy())
        s, p = serial.stats(), parallel.stats()
        assert (s.shard_count, s.peak_shard_load, s.exchanges,
                s.bytes_exchanged, s.op_counts) == (
            p.shard_count, p.peak_shard_load, p.exchanges,
            p.bytes_exchanged, p.op_counts)

    def test_stats_reports_workers_and_name(self, pair):
        _, parallel = pair
        stats = parallel.stats()
        assert stats.name == "process"
        assert stats.workers == WORKERS
        assert stats.to_json()["workers"] == WORKERS

    def test_max_shards_cap_enforced(self):
        backend = ProcessBackend(shard_memory=16, max_shards=2, workers=2,
                                 min_parallel_items=0)
        try:
            with pytest.raises(MachineMemoryError):
                backend.scatter(np.arange(1000))
        finally:
            backend.close()

    def test_pipeline_charge_sequence_matches_local(self):
        graph = Workload("permutation_regular", 512, {"degree": 6}).build(5)
        engine_local = MPCEngine(1024)
        repro.mpc_connected_components(graph, 0.1, rng=5, engine=engine_local)
        backend = ProcessBackend(workers=2, min_parallel_items=0)
        try:
            engine_proc = MPCEngine(1024, backend=backend)
            repro.mpc_connected_components(graph, 0.1, rng=5, engine=engine_proc)
            seq = [(c.label, c.kind, c.rounds, c.items) for c in engine_local.charges]
            seq_p = [(c.label, c.kind, c.rounds, c.items) for c in engine_proc.charges]
            assert seq == seq_p
            assert engine_proc.summary()["backend"]["workers"] == 2
        finally:
            backend.close()


# ---------------------------------------------------------------------------
# Pool lifecycle and failure handling
# ---------------------------------------------------------------------------


class TestPoolLifecycle:
    def test_close_is_idempotent_and_pool_restarts(self, pair):
        _, parallel = pair
        values = rng().integers(0, 9, 1000)
        first = parallel.sort(values)
        parallel.close()
        parallel.close()
        assert np.array_equal(parallel.sort(values), first)

    def test_context_manager_closes_pool(self):
        with ProcessBackend(shard_memory=128, workers=2,
                            min_parallel_items=0) as backend:
            backend.sort(np.arange(500)[::-1].copy())
            assert backend._procs
        assert not backend._procs

    def test_worker_error_propagates(self, pair):
        _, parallel = pair
        parallel._ensure_pool()
        unknown = {"op": "no-such-op", "inputs": [], "outputs": [], "params": {}}
        with pytest.raises(RuntimeError, match="failed"):
            parallel._dispatch([([unknown], {}, {})])

    def test_worker_death_reports_runtime_error_not_stale_lease(self, pair):
        # A dead worker closes the backend (arena included) while the
        # operation's leases are still held; the cleanup must not mask
        # the worker-death diagnostic with an ArenaLeaseError.
        _, parallel = pair
        parallel._ensure_pool()
        parallel._pipes[0].close()  # simulate a worker dying mid-command
        with pytest.raises(RuntimeError, match="died mid-dispatch"):
            parallel.sort(rng().integers(0, 9, 2000))
        # Pool and arena restart cleanly on the next operation.
        assert np.array_equal(
            parallel.sort(np.arange(10, 0, -1)), np.arange(1, 11)
        )

    def test_reset_keeps_pool_but_clears_counters(self, pair):
        _, parallel = pair
        parallel.sort(rng().integers(0, 9, 2000))
        assert parallel.stats().exchanges > 0
        procs = list(parallel._procs)
        parallel.reset()
        assert parallel.stats().exchanges == 0
        assert parallel._procs == procs  # pool survives engine resets

    def test_workers_validation(self):
        with pytest.raises(ValueError):
            ProcessBackend(workers=0)
        with pytest.raises(ValueError):
            ProcessBackend(min_parallel_items=-1)


# ---------------------------------------------------------------------------
# Registry and selection plumbing
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_registered_in_backends(self):
        assert BACKENDS["process"] is ProcessBackend
        assert "process" in backend_names()

    def test_make_backend_with_options(self):
        backend = make_backend("process", workers=2, min_parallel_items=0)
        try:
            assert isinstance(backend, ProcessBackend)
            assert backend.workers == 2
        finally:
            backend.close()

    def test_default_workers_override_scopes_the_pool_size(self):
        from repro.mpc import default_worker_count, default_workers

        base = default_worker_count()
        with default_workers(7):
            assert default_worker_count() == 7
            backend = ProcessBackend()  # no explicit workers
            assert backend.workers == 7
            backend.close()
        assert default_worker_count() == base
        with default_workers(None):  # no-op scope
            assert default_worker_count() == base

    def test_run_case_threads_workers_into_named_backends(self):
        # --workers must reach backends built by name inside experiments
        # (the bench runner wraps the experiment in default_workers()).
        from repro.bench.registry import register_benchmark, unregister_benchmark
        from repro.bench.runner import run_case

        name = "zz_probe_default_workers"
        params = {"seed": 0}

        @register_benchmark(name, title="probe", headers=["w"],
                            smoke=params, full=params)
        def probe(ctx):
            backend = make_backend(ctx.backend)
            ctx.record("probe", workers=backend.workers)

        try:
            result = run_case(name, suite="smoke", backend="process", workers=7)
            assert result.workers == 7
            assert result.records[0]["workers"] == 7
        finally:
            unregister_benchmark(name)

    def test_pipeline_accepts_process_string(self):
        graph = Workload("cycle", 96).build(3)
        result = repro.mpc_connected_components(graph, 0.1, rng=3,
                                                backend="process")
        local = repro.mpc_connected_components(graph, 0.1, rng=3,
                                               backend="local")
        assert np.array_equal(result.labels, local.labels)
        assert result.rounds == local.rounds

    def test_pipeline_closes_backend_it_constructed(self):
        # A pool started during a backend="process" run must not outlive
        # the call (the pipeline owns string-spec backends).
        from repro.mpc import default_workers

        graph = Workload("permutation_regular", 256, {"degree": 6}).build(3)
        with default_workers(2):
            result = repro.mpc_connected_components(
                graph, 0.1, rng=3, backend="process"
            )
        backend = result.engine.backend
        assert isinstance(backend, ProcessBackend)
        assert not backend._procs  # closed on return
        # Counters survive the close.
        assert backend.stats().op_counts

    def test_pipeline_does_not_close_caller_instance(self):
        graph = Workload("cycle", 96).build(3)
        backend = ProcessBackend(workers=2, min_parallel_items=0)
        try:
            repro.mpc_connected_components(graph, 0.1, rng=3, backend=backend)
            assert backend._procs  # caller-owned pool stays up
        finally:
            backend.close()


# ---------------------------------------------------------------------------
# Arena integration and fused dispatch
# ---------------------------------------------------------------------------


class TestArenaIntegration:
    def test_arena_segments_recycle_across_operations(self, pair):
        _, parallel = pair
        values = rng().integers(0, 10**6, 3000)
        parallel.sort(values)
        cold = parallel.arena_stats()["segments"]
        for _ in range(5):
            parallel.sort(values)
        warm = parallel.arena_stats()
        assert warm["segments"] == cold  # steady state: zero new segments
        assert warm["recycled"] > 0

    def test_arena_survives_reset(self, pair):
        _, parallel = pair
        parallel.sort(rng().integers(0, 9, 2000))
        segments = parallel.arena_stats()["segments"]
        arena = parallel._arena
        parallel.reset()
        assert parallel._arena is arena  # segments survive engine resets
        assert parallel.arena_stats()["segments"] == segments
        assert parallel.stats().dispatch["barriers"] == 0  # run counters clear

    def test_pinned_inputs_upload_once(self, pair):
        _, parallel = pair
        labels = rng().integers(0, 10**9, 2000)
        send = rng().integers(0, 2000, 7000)
        recv = rng().integers(0, 2000, 7000)
        send.setflags(write=False)
        recv.setflags(write=False)
        first = parallel.min_label_exchange(labels, send, recv)
        copied_once = parallel.shm_bytes_copied
        second = parallel.min_label_exchange(labels, send, recv)
        assert np.array_equal(first[0], second[0])
        assert parallel.arena_stats()["pinned_hits"] == 2  # send and recv
        # The second exchange re-uploaded only the labels, not the 2×7000
        # incidence words.
        assert parallel.shm_bytes_copied - copied_once == labels.nbytes

    def test_min_label_is_one_fused_barrier(self, pair):
        serial, parallel = pair
        labels = rng().integers(0, 10**9, 2000)
        send = rng().integers(0, 2000, 7000)
        recv = rng().integers(0, 2000, 7000)
        nl_s, _ = serial.min_label_exchange(labels, send, recv)
        nl_p, _ = parallel.min_label_exchange(labels, send, recv)
        assert np.array_equal(nl_s, nl_p)
        dispatch = parallel.stats().dispatch
        assert dispatch["barriers"] == 1  # gather + fold fused, one barrier
        assert dispatch["steps"] > dispatch["messages"]  # plans carry >1 step

    def test_stats_embed_arena_and_dispatch(self, pair):
        serial, parallel = pair
        parallel.sort(rng().integers(0, 9, 2000))
        doc = parallel.stats().to_json()
        assert doc["arena"]["segments"] > 0
        assert doc["dispatch"]["barriers"] == 1
        # Normalized schema: in-process backends emit the same keys,
        # zero-filled, so artifact consumers never branch on the backend.
        serial_doc = serial.stats().to_json()
        assert serial_doc["arena"] == {
            key: 0 for key in doc["arena"]
        }
        assert serial_doc["dispatch"]["barriers"] == 0
        assert serial_doc["dispatch"]["plan_barriers"] == {}
        assert set(serial_doc["dispatch"]) == set(doc["dispatch"])
        assert serial_doc["workers"] == 0
