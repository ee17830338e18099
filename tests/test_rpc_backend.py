"""RpcBackend certification: trace replay bit-identity, counter parity,
wire thresholds, digest dedup, stats schema, and the registry error fix.

The certification order mirrors the deployment story: the wire backend
must first replay captured per-engine plan streams bit-identically
(outputs *and* exchange/byte counters) before it joins the live
differential matrix in ``tests/test_differential.py``.
"""

import numpy as np
import pytest

import repro
from repro.bench.workloads import Workload
from repro.mpc import (
    BACKENDS,
    MPCEngine,
    RpcBackend,
    ShardedBackend,
    backend_names,
    content_digest,
    graph_digest,
    make_backend,
    replay,
)
from repro.mpc.backends import TRANSPORT_STATS_ZERO
from repro.mpc.plan import load_trace

SEED = 23
CONFIG = repro.PipelineConfig(
    delta=0.5, expander_degree=4, max_walk_length=32, oversample=4,
    max_phases=2,
)


@pytest.fixture(scope="module")
def rpc_backend():
    backend = RpcBackend(shard_memory=64, workers=2, min_wire_items=0)
    yield backend
    backend.close()


# ---------------------------------------------------------------------------
# Replay certification (per engine)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("engine_name", ["paper", "liu_tarjan", "exponentiation"])
def test_replay_certifies_rpc_backend(tmp_path, engine_name):
    # Capture the engine's plan stream on the serial sharded backend...
    graph = Workload("permutation_regular", 160, {"degree": 6}).build(SEED)
    path = tmp_path / "trace.json"
    from repro.engines import get_engine

    with MPCEngine.for_delta(
        graph.n + graph.m, CONFIG.delta, backend=ShardedBackend(),
        trace=str(path),
    ) as engine:
        get_engine(engine_name).run(
            graph, 0.1, config=CONFIG, rng=SEED, mpc=engine
        )
        captured = engine.backend.stats()
    # ...then replay it across the wire with every op forced through
    # the frames: outputs and the gated counters must match exactly.
    rpc = RpcBackend(workers=2, min_wire_items=0)
    try:
        replayed = replay(path, backend=rpc)
        assert replayed.ok, replayed.mismatches[:3]
        assert replayed.stats.exchanges == captured.exchanges
        assert replayed.stats.bytes_exchanged == captured.bytes_exchanged
        assert replayed.stats.op_counts == captured.op_counts
        transport = rpc.transport_stats()
        # Sorts and reduces cross the wire; Liu–Tarjan's stream has
        # neither (its search and min-label level run in the parent).
        ops = {
            step["op"] for plan in load_trace(path)["plans"]
            for step in plan["steps"]
        }
        if ops & {"sort", "reduce_by_key"}:
            assert transport["op_frames"] > 0
            assert transport["op_wire_bytes"] > 0
    finally:
        rpc.close()


# ---------------------------------------------------------------------------
# Kernel parity + wire threshold
# ---------------------------------------------------------------------------


class TestKernelParity:
    def _inputs(self, n=4096):
        rng = np.random.default_rng(SEED)
        return (
            rng.integers(0, 500, n),
            rng.integers(0, 1 << 40, (n, 2)),
            rng.integers(0, 1 << 40, n // 2),
            rng.integers(0, n // 2, n),
        )

    def test_ops_bit_identical_to_sharded(self, rpc_backend):
        keys, values, table, queries = self._inputs()
        ref = ShardedBackend(shard_memory=64)
        assert np.array_equal(
            ref.sort(values, order_by=keys),
            rpc_backend.sort(values, order_by=keys),
        )
        assert np.array_equal(
            ref.search(table, queries), rpc_backend.search(table, queries)
        )
        for op in ("min", "max", "sum"):
            unique_a, reduced_a = ref.reduce_by_key(keys, values, op)
            unique_b, reduced_b = rpc_backend.reduce_by_key(keys, values, op)
            assert np.array_equal(unique_a, unique_b)
            assert np.array_equal(reduced_a, reduced_b)
        labels = np.random.default_rng(1).integers(0, 1 << 30, 900)
        send = np.random.default_rng(2).integers(0, 900, 1200)
        recv = np.random.default_rng(3).integers(0, 900, 1200)
        labels_a, incoming_a = ref.min_label_exchange(labels, send, recv)
        labels_b, incoming_b = rpc_backend.min_label_exchange(
            labels, send, recv
        )
        assert np.array_equal(labels_a, labels_b)
        assert np.array_equal(incoming_a, incoming_b)
        # The sharded accounting is inherited, not reimplemented: the
        # model counters agree exactly.
        assert ref.stats().exchanges == rpc_backend.stats().exchanges

    def test_min_wire_items_keeps_small_ops_serial(self):
        backend = RpcBackend(shard_memory=64, workers=2, min_wire_items=10**9)
        try:
            keys, values, table, queries = self._inputs(512)
            backend.sort(values, order_by=keys)
            backend.search(table, queries)
            assert backend.transport_stats()["op_frames"] == 0
        finally:
            backend.close()

    def test_digest_dedup_ships_repeats_as_references(self, rpc_backend):
        keys, values, _, _ = self._inputs()
        before = dict(rpc_backend.transport_stats())
        rpc_backend.sort(values, order_by=keys)
        rpc_backend.sort(values, order_by=keys)
        after = rpc_backend.transport_stats()
        # The second identical op resolves both arrays from the worker
        # caches: strictly more hits, no new misses beyond the first.
        assert after["digest_hits"] > before["digest_hits"]
        assert (
            after["digest_misses"] - before["digest_misses"]
            <= 2 * rpc_backend.workers
        )

    def test_each_op_input_is_digested_once(self, rpc_backend, monkeypatch):
        """One op hashes each input once, not once per worker frame and
        again for the cache-eviction sizes."""
        import repro.mpc.rpc as rpc

        keys, values, _, _ = self._inputs()
        rpc_backend.sort(values, order_by=keys)  # ship once: the op below is warm
        calls = []

        def counting_digest(array):
            calls.append(array.nbytes)
            return content_digest(array)

        monkeypatch.setattr(rpc, "content_digest", counting_digest)
        rpc_backend.sort(values, order_by=keys)
        assert rpc_backend.workers == 2
        assert len(calls) == 2  # keys and values

    def test_small_cache_evicts_and_keeps_serial_results(self):
        """A frame never evicts a cached digest it references: the
        worker drops evicted digests before decoding the frame."""
        backend = RpcBackend(
            shard_memory=64, workers=2, min_wire_items=0, cache_bytes=50_000
        )
        ref = ShardedBackend(shard_memory=64)
        rng = np.random.default_rng(SEED)
        values = rng.integers(0, 1 << 40, 4000)  # 32 kB: cached by sort 1
        keys = [rng.integers(0, 500, 4000) for _ in range(3)]
        try:
            # Sort 1 fills each worker's cache past its budget; sort 2
            # references ``values`` and ships a new key array, so the
            # eviction must drop the first keys, never ``values``.
            for k in keys:
                assert np.array_equal(
                    backend.sort(values, order_by=k), ref.sort(values, order_by=k)
                )
            for op in ("min", "sum"):
                got = backend.reduce_by_key(keys[0], values, op)
                want = ref.reduce_by_key(keys[0], values, op)
                assert all(np.array_equal(g, w) for g, w in zip(got, want))
            assert backend.dead_workers() == []
            assert backend.workers_restarted == 0
        finally:
            backend.close()

    def test_object_dtype_falls_back_to_serial(self, rpc_backend):
        values = np.array([{"a": 1}, {"b": 2}, None, "x"] * 64, dtype=object)
        keys = np.arange(values.shape[0])
        before = rpc_backend.transport_stats()["op_frames"]
        out = rpc_backend.sort(values, order_by=keys[::-1])
        assert out[0] == "x"
        assert rpc_backend.transport_stats()["op_frames"] == before


# ---------------------------------------------------------------------------
# Stats schema
# ---------------------------------------------------------------------------


class TestStatsSchema:
    def test_transport_block_always_emitted(self):
        # One schema for every backend: non-wire backends emit the
        # zero-filled transport block.
        doc = ShardedBackend(shard_memory=64).stats().to_json()
        assert doc["transport"] == TRANSPORT_STATS_ZERO

    def test_rpc_transport_block_schema(self, rpc_backend):
        doc = rpc_backend.stats().to_json()
        assert set(doc["transport"]) == set(TRANSPORT_STATS_ZERO)
        assert doc["workers"] == rpc_backend.workers

    def test_reset_clears_transport_counters(self):
        backend = RpcBackend(shard_memory=64, workers=2, min_wire_items=0)
        try:
            backend.sort(np.arange(100)[::-1].copy())
            assert backend.transport_stats()["op_frames"] > 0
            backend.reset()
            assert backend.transport_stats() == dict(TRANSPORT_STATS_ZERO)
        finally:
            backend.close()


# ---------------------------------------------------------------------------
# Registry error message (regression: bare KeyError on unknown names)
# ---------------------------------------------------------------------------


class TestRegistryErrors:
    def test_unknown_backend_lists_available_names(self):
        with pytest.raises(ValueError, match="unknown backend 'nope'"):
            make_backend("nope")
        with pytest.raises(ValueError, match="rpc"):
            make_backend("nope")

    def test_rpc_is_registered(self):
        assert "rpc" in backend_names()
        backend = make_backend("rpc", workers=2)
        try:
            assert isinstance(backend, RpcBackend)
        finally:
            backend.close()

    def test_constructor_keyerror_is_not_mislabelled(self):
        # A KeyError escaping a backend *constructor* must propagate
        # as-is instead of being rewrapped as an unknown-name error.
        class Exploding:
            def __init__(self, **kwargs):
                raise KeyError("inner constructor failure")

        BACKENDS["exploding"] = Exploding
        try:
            with pytest.raises(KeyError, match="inner constructor failure"):
                make_backend("exploding")
        finally:
            del BACKENDS["exploding"]


# ---------------------------------------------------------------------------
# Digest helpers
# ---------------------------------------------------------------------------


class TestDigests:
    def test_content_digest_covers_dtype_shape_payload(self):
        a = np.arange(6, dtype=np.int64)
        assert content_digest(a) == content_digest(a.copy())
        assert content_digest(a) != content_digest(a.astype(np.int32))
        assert content_digest(a) != content_digest(a.reshape(2, 3))
        assert content_digest(np.int8(-3)) != content_digest(
            np.array([-3], dtype=np.int8)
        )

    def test_graph_digest_keys_by_vertices_and_edges(self):
        edges = np.array([[0, 1], [1, 2]], dtype=np.int64)
        assert graph_digest(3, edges) == graph_digest(3, edges.copy())
        assert graph_digest(3, edges) != graph_digest(4, edges)
        assert graph_digest(3, edges) != graph_digest(3, edges[::-1])
