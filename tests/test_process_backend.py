"""Unit and integration tests for the true-parallel ``ProcessBackend``.

The backend inherits all accounting from ``ShardedBackend`` and overrides
only the walk and sketch-ingest kernels, so the contract under test is
twofold: every op must be *bit-identical* to the serial backend (same
outputs for sort/search/reduce/min-label/walk on any input), and every
counter the engine reports must be unchanged by the worker pool.  Only
the walk and sketch ingest reach the workers; ``min_parallel_items=0``
forces each of them through the pool — without it, laptop-scale inputs
would silently use the serial fallback.  Sort, search, reduce and the
min-label level run in the parent at any size.
"""

import os
import pathlib
import signal
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

import repro
from repro.bench.workloads import Workload
from repro.mpc import (
    BACKENDS,
    MPCEngine,
    ProcessBackend,
    RpcBackend,
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


#: Out-degree of the probe walk's random out-neighbour table.
DEGREE = 4


def walk(backend, n=500, columns=4, entropy=7):
    """A probe walk: ``columns`` lazy 16-step walk columns from every
    vertex of a random ``n``-vertex out-neighbour table.  On a pool at
    ``min_parallel_items=0`` it runs on the workers (the walk is one of
    the two ops a pool runs)."""
    heads = np.random.default_rng(n).integers(0, n, n * DEGREE)
    return backend.walk(heads, DEGREE, 16, columns, entropy)


def _running(pid: int) -> bool:
    """Whether ``pid`` is a live process (a zombie awaiting its reaper
    has exited)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


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
        # np.add.reduceat widens bools and small ints to int64; the fold
        # must return that dtype, not truncate into the input's.
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

    def test_walk(self, pair):
        serial, parallel = pair
        assert np.array_equal(walk(serial), walk(parallel))
        assert parallel.stats().dispatch["barriers"] == 1

    def test_unknown_reducer_raises(self, pair):
        _, parallel = pair
        with pytest.raises(ValueError):
            parallel.reduce_by_key(np.arange(10), np.arange(10), op="median")

    def test_serial_fallback_below_threshold_is_identical(self):
        serial = ShardedBackend(shard_memory=64)
        parallel = ProcessBackend(shard_memory=64, workers=2)  # default threshold
        try:
            # 500 vertices x 4 columns = 2,000 endpoints, below 32,768.
            assert np.array_equal(walk(serial), walk(parallel))
            assert not parallel._procs  # pool never started
        finally:
            parallel.close()


# ---------------------------------------------------------------------------
# Sort and reduce run in the parent on every pool
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("pool", [
    lambda: ProcessBackend(shard_memory=4096, workers=2, min_parallel_items=0),
    lambda: RpcBackend(shard_memory=4096, workers=2, min_wire_items=0),
], ids=["process", "rpc"])
def test_sort_and_reduce_never_reach_a_pool(pool):
    """A pool at a zero size threshold still sorts and reduces in the
    parent: same results and model counters as ``ShardedBackend``, and
    nothing is dispatched, uploaded or framed.  ``reduce_by_key(keys,
    keys)`` is graph exponentiation's square-step dedup."""
    keys = np.random.default_rng(3).integers(0, 1 << 40, 40000)
    serial, backend = ShardedBackend(shard_memory=4096), pool()
    try:
        want, got = (
            (b.sort(keys), *b.reduce_by_key(keys, keys, op="min"))
            for b in (serial, backend)
        )
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        s, p = serial.stats(), backend.stats()
        assert s.exchanges > 0
        assert (p.exchanges, p.bytes_exchanged) == (s.exchanges, s.bytes_exchanged)
        doc = p.to_json()
        assert doc["dispatch"]["barriers"] == 0
        assert doc["dispatch"]["shm_bytes_copied"] == 0
        assert doc["transport"]["op_frames"] == 0
        # No worker ever started.
        if isinstance(backend, ProcessBackend):
            assert not backend._procs and backend._arena is None
        else:
            assert backend._pool is None
    finally:
        backend.close()


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
        first = walk(parallel)
        parallel.close()
        parallel.close()
        assert np.array_equal(walk(parallel), first)

    def test_context_manager_closes_pool(self):
        with ProcessBackend(shard_memory=128, workers=2,
                            min_parallel_items=0) as backend:
            walk(backend)
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
        start_pool = parallel._ensure_pool

        def worker_dies_after_the_liveness_check():
            start_pool()
            del parallel._ensure_pool  # one shot: the restart below is real
            # Simulate a worker dying mid-command.  Closing the pipe before
            # the check would let the worker see EOF and exit, and the
            # check would then restart the pool instead.
            parallel._pipes[0].close()

        parallel._ensure_pool = worker_dies_after_the_liveness_check
        with pytest.raises(RuntimeError, match="died mid-dispatch"):
            walk(parallel)
        # Pool and arena restart cleanly on the next operation.
        assert np.array_equal(
            walk(parallel, n=50), walk(ShardedBackend(shard_memory=256), n=50)
        )

    def test_pool_restarts_are_counted(self):
        # Replacing a pool that lost a worker is one restart; the first
        # start and a start after close() are not, and reset() clears it.
        backend = ProcessBackend(64, workers=2, min_parallel_items=0)
        expected = walk(ShardedBackend(64))

        def restarts():
            return backend.stats().to_json()["transport"]["workers_restarted"]

        try:
            walk(backend)
            assert restarts() == 0
            pids = {proc.pid for proc in backend._procs}
            os.kill(backend._procs[0].pid, signal.SIGKILL)
            backend._procs[0].join(timeout=10)
            assert np.array_equal(walk(backend), expected)
            assert not pids & {proc.pid for proc in backend._procs}
            assert restarts() == 1
            backend.close()
            walk(backend)
            assert restarts() == 1
            backend.reset()
            assert restarts() == 0
        finally:
            backend.close()

    def test_restart_after_a_mid_operation_death_is_counted(self, pair):
        _, parallel = pair
        start_pool = parallel._ensure_pool

        def worker_dies_after_the_liveness_check():
            start_pool()
            del parallel._ensure_pool
            parallel._pipes[0].close()

        parallel._ensure_pool = worker_dies_after_the_liveness_check
        with pytest.raises(RuntimeError, match="died mid-dispatch"):
            walk(parallel)
        assert parallel.stats().transport["workers_restarted"] == 0
        walk(parallel, n=50)
        assert parallel.stats().transport["workers_restarted"] == 1

    def test_reset_keeps_pool_but_clears_counters(self, pair):
        _, parallel = pair
        walk(parallel)  # starts the pool
        parallel.sort(rng().integers(0, 9, 2000))
        assert parallel.stats().exchanges > 0
        assert parallel.stats().dispatch["barriers"] > 0
        procs = list(parallel._procs)
        assert procs
        parallel.reset()
        assert parallel.stats().exchanges == 0
        assert parallel.stats().dispatch["barriers"] == 0
        assert parallel._procs == procs  # pool survives engine resets

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/stat"), reason="reads process state in /proc"
    )
    def test_workers_exit_when_the_parent_is_killed(self):
        """A killed parent runs no cleanup; its workers must still see
        EOF on their pipes and exit, not block in ``recv`` forever."""
        script = textwrap.dedent("""
            import numpy as np
            from repro.mpc import ProcessBackend

            backend = ProcessBackend(64, workers=2, min_parallel_items=0)
            backend.walk(np.arange(1000) % 250, 4, 8, 2, 0)  # starts the pool
            print(*(proc.pid for proc in backend._procs), flush=True)
            input()  # hold the pool until killed
        """)
        src = str(pathlib.Path(repro.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        parent = subprocess.Popen(
            [sys.executable, "-c", script], env=env, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        workers = []
        try:
            workers = [int(pid) for pid in parent.stdout.readline().split()]
            assert len(workers) == 2
            parent.send_signal(signal.SIGKILL)
            parent.wait(timeout=10)
            deadline = time.monotonic() + 5.0
            while any(map(_running, workers)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not any(map(_running, workers))
        finally:
            parent.kill()
            parent.wait(timeout=10)
            for pid in workers:
                if _running(pid):
                    os.kill(pid, signal.SIGKILL)

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
# Arena integration and dispatch
# ---------------------------------------------------------------------------


class TestArenaIntegration:
    def test_arena_segments_recycle_across_operations(self, pair):
        _, parallel = pair
        walk(parallel)
        cold = parallel.arena_stats()["segments"]
        for entropy in range(5):
            walk(parallel, entropy=entropy)
        warm = parallel.arena_stats()
        assert warm["segments"] == cold  # steady state: zero new segments
        assert warm["recycled"] > 0

    def test_arena_survives_reset(self, pair):
        _, parallel = pair
        walk(parallel)
        segments = parallel.arena_stats()["segments"]
        arena = parallel._arena
        parallel.reset()
        assert parallel._arena is arena  # segments survive engine resets
        assert parallel.arena_stats()["segments"] == segments
        assert parallel.stats().dispatch["barriers"] == 0  # run counters clear

    def test_min_label_and_search_run_in_the_parent(self, pair):
        """Search and the min-label level have no pooled kernel: one
        gather or ``minimum.at`` in the parent beats a dispatch."""
        serial, parallel = pair
        labels = rng().integers(0, 10**9, 2000)
        send = rng().integers(0, 2000, 7000)
        recv = rng().integers(0, 2000, 7000)
        nl_s, inc_s = serial.min_label_exchange(labels, send, recv)
        nl_p, inc_p = parallel.min_label_exchange(labels, send, recv)
        assert np.array_equal(nl_s, nl_p) and np.array_equal(inc_s, inc_p)
        assert np.array_equal(
            serial.search(labels, send), parallel.search(labels, send)
        )
        assert parallel.stats().dispatch["barriers"] == 0
        assert not parallel._procs  # the pool never started

    def test_stats_embed_arena_and_dispatch(self, pair):
        serial, parallel = pair
        walk(parallel)
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
