"""Tests for the pluggable execution backends (local + sharded).

Covers the operation semantics (both backends must compute identical
results — the differential suites rely on bit-equality), the operand
checks every backend shares (pools included), the shard-cap
enforcement property (``MachineMemoryError`` exactly when the input
exceeds ``max_shards × shard_memory``), and the agreement between the
engine's machine accounting and the backend's observed fleet.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import Graph
from repro.mpc import (
    BackendStats,
    LocalBackend,
    MachineMemoryError,
    MPCEngine,
    ProcessBackend,
    RpcBackend,
    ShardedBackend,
    make_backend,
)

BOTH = [LocalBackend, lambda: ShardedBackend(shard_memory=16)]


def _rng(seed=0):
    return np.random.default_rng(seed)


class TestOperationSemantics:
    """Both backends must produce identical results for every op."""

    @pytest.mark.parametrize("factory", BOTH)
    def test_sort(self, factory):
        values = _rng(1).integers(0, 1000, size=200)
        assert np.array_equal(factory().sort(values), np.sort(values, kind="stable"))

    @pytest.mark.parametrize("factory", BOTH)
    def test_sort_by_key(self, factory):
        values = np.arange(100)
        keys = _rng(2).integers(0, 50, size=100)
        expected = values[np.argsort(keys, kind="stable")]
        assert np.array_equal(factory().sort(values, order_by=keys), expected)

    @pytest.mark.parametrize("factory", BOTH)
    def test_search(self, factory):
        table = _rng(3).integers(0, 10**6, size=120)
        queries = _rng(4).integers(0, 120, size=300)
        assert np.array_equal(factory().search(table, queries), table[queries])

    @pytest.mark.parametrize("factory", BOTH)
    @pytest.mark.parametrize("op,ufunc", [("min", np.minimum), ("max", np.maximum),
                                          ("sum", np.add)])
    def test_reduce_by_key(self, factory, op, ufunc):
        keys = _rng(5).integers(0, 20, size=150)
        values = _rng(6).integers(0, 1000, size=150)
        unique, reduced = factory().reduce_by_key(keys, values, op=op)
        assert np.array_equal(unique, np.unique(keys))
        for k, r in zip(unique, reduced):
            assert r == ufunc.reduce(values[keys == k])

    @pytest.mark.parametrize("factory", BOTH)
    def test_reduce_by_key_min_index_matches_unique(self, factory):
        """op='min' over ascending indices == np.unique first-occurrence —
        the contraction dedup depends on this exactly."""
        keys = _rng(7).integers(0, 30, size=200)
        idx = np.arange(200)
        unique, reduced = factory().reduce_by_key(keys, idx, op="min")
        expected_keys, expected_first = np.unique(keys, return_index=True)
        assert np.array_equal(unique, expected_keys)
        assert np.array_equal(reduced, expected_first)

    @pytest.mark.parametrize("factory", BOTH)
    def test_reduce_by_key_empty(self, factory):
        unique, reduced = factory().reduce_by_key(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        )
        assert unique.size == 0 and reduced.size == 0

    @pytest.mark.parametrize("factory", BOTH)
    def test_reduce_by_key_rejects_unknown_op(self, factory):
        with pytest.raises(ValueError):
            factory().reduce_by_key(np.array([1]), np.array([1]), op="median")

    @pytest.mark.parametrize("factory", BOTH)
    def test_min_label_exchange(self, factory):
        labels = np.array([5, 1, 7, 3, 9], dtype=np.int64)
        send = np.array([0, 1, 2, 4], dtype=np.int64)
        recv = np.array([2, 0, 3, 2], dtype=np.int64)
        new_labels, incoming = factory().min_label_exchange(labels, send, recv)
        assert np.array_equal(incoming, labels[send])
        expected = labels.copy()
        np.minimum.at(expected, recv, labels[send])
        assert np.array_equal(new_labels, expected)

    @pytest.mark.parametrize("factory", BOTH)
    def test_csr_min_label(self, factory, csr_min_label_reference):
        """Vertex 4 is isolated (an empty run); vertices 1 and 3 carry
        self-loops; the rows span several 16-word shards."""
        edges = np.array([(0, 2), (1, 1), (2, 3), (3, 3), (5, 6), (6, 0)])
        graph = Graph(7, edges)
        labels = np.array([5, 1, 7, 3, 9, 2, 8], dtype=np.int64)
        got = factory().csr_min_label(labels, graph.indptr, graph.heads)
        want = csr_min_label_reference(labels, graph.indptr, graph.heads)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w)
        assert got[0][4] == labels[4]

    @pytest.mark.parametrize("factory", BOTH)
    def test_scatter_roundtrip(self, factory):
        values = np.arange(40)
        placed = factory().scatter(values)
        assert isinstance(placed, np.ndarray)
        assert np.array_equal(placed, values)


#: Every backend family, pools forced onto their workers: a malformed
#: operand must be rejected before any pool would run a kernel.
ALL_FOUR = {
    "local": LocalBackend,
    "sharded": lambda: ShardedBackend(shard_memory=4),
    "process": lambda: ProcessBackend(4, workers=2, min_parallel_items=0),
    "rpc": lambda: RpcBackend(4, workers=2, min_wire_items=0),
}
KEYS = np.array([3, 1, 2, 1, 3, 0, 2, 2, 1, 0])


@pytest.mark.parametrize("name", sorted(ALL_FOUR))
class TestKeyedOperandChecks:
    """``sort`` and ``reduce_by_key`` reject the same malformed operands
    with the same ``ValueError`` on every backend."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda b: b.reduce_by_key(KEYS, np.arange(12), op="sum"),
            lambda b: b.reduce_by_key(KEYS, np.arange(8), op="min"),
            lambda b: b.reduce_by_key(KEYS.reshape(2, 5), np.arange(10)),
            lambda b: b.reduce_by_key(KEYS, np.arange(10), op="median"),
            lambda b: b.sort(np.arange(12), order_by=KEYS),
            lambda b: b.sort(np.arange(10), order_by=KEYS.reshape(5, 2)),
            lambda b: b.sort(KEYS.reshape(2, 5)),
        ],
        ids=[
            "reduce-more-values", "reduce-fewer-values", "reduce-2d-keys",
            "reduce-unknown-op", "sort-more-values", "sort-2d-keys",
            "sort-2d-values",
        ],
    )
    def test_rejects_malformed(self, name, call):
        backend = ALL_FOUR[name]()
        try:
            with pytest.raises(ValueError, match="keys must be 1-D|unknown reducer"):
                call(backend)
        finally:
            backend.close()

    def test_accepts_row_values(self, name):
        """2-D values keep working: one key per value row."""
        backend = ALL_FOUR[name]()
        values = np.arange(20).reshape(10, 2)
        try:
            order = np.argsort(KEYS, kind="stable")
            assert np.array_equal(backend.sort(values, order_by=KEYS), values[order])
            unique, reduced = backend.reduce_by_key(KEYS, values, op="sum")
        finally:
            backend.close()
        assert np.array_equal(unique, [0, 1, 2, 3])
        assert np.array_equal(reduced, [values[KEYS == k].sum(axis=0) for k in unique])


class TestShardedAccounting:
    def test_single_shard_ops_are_local(self):
        backend = ShardedBackend(shard_memory=1024)
        backend.sort(np.arange(10)[::-1])
        backend.search(np.arange(10), np.array([3, 4]))
        stats = backend.stats()
        assert stats.exchanges == 0
        assert stats.bytes_exchanged == 0
        assert stats.shard_count == 1

    def test_multi_shard_ops_exchange(self):
        backend = ShardedBackend(shard_memory=16)
        backend.sort(_rng(8).integers(0, 1000, size=100))
        stats = backend.stats()
        assert stats.exchanges == 1
        assert stats.bytes_exchanged > 0
        assert stats.shard_count == 7  # ceil(100/16)
        assert stats.peak_shard_load == 16

    def test_exchange_delta_attribution(self):
        backend = ShardedBackend(shard_memory=16)
        assert backend.take_exchange_delta() == 0
        backend.sort(_rng(9).integers(0, 100, size=64))
        backend.search(np.arange(64), _rng(10).integers(0, 64, size=64))
        assert backend.take_exchange_delta() == 2
        assert backend.take_exchange_delta() == 0

    def test_reset_clears_counters(self):
        backend = ShardedBackend(shard_memory=16)
        backend.sort(_rng(11).integers(0, 100, size=64))
        backend.reset()
        stats = backend.stats()
        assert (stats.exchanges, stats.bytes_exchanged, stats.shard_count,
                stats.peak_shard_load) == (0, 0, 0, 0)
        assert stats.op_counts == {}

    def test_stats_to_json_roundtrips(self):
        stats = ShardedBackend(shard_memory=8).stats()
        doc = stats.to_json()
        assert doc["name"] == "sharded"
        assert doc["shard_memory"] == 8
        assert isinstance(doc["op_counts"], dict)

    def test_requires_shard_memory(self):
        backend = ShardedBackend()
        with pytest.raises(RuntimeError):
            backend.sort(np.arange(4))

    def test_attach_binds_engine_memory(self):
        backend = ShardedBackend()
        MPCEngine(64, backend=backend)
        assert backend.shard_memory == 64

    def test_attach_keeps_explicit_memory(self):
        backend = ShardedBackend(shard_memory=8)
        MPCEngine(64, backend=backend)
        assert backend.shard_memory == 8


class TestCapEnforcement:
    """The property the model demands: input exceeding ``max_shards × s``
    cannot be placed; anything within always can."""

    @pytest.mark.parametrize("max_shards", [1, 2, 5])
    @pytest.mark.parametrize("memory", [2, 7, 16])
    def test_scatter_cap_sweep(self, max_shards, memory):
        capacity = max_shards * memory
        for items in (0, 1, capacity - 1, capacity, capacity + 1, 2 * capacity):
            backend = ShardedBackend(shard_memory=memory, max_shards=max_shards)
            if items > capacity:
                with pytest.raises(MachineMemoryError):
                    backend.scatter(np.zeros(items, dtype=np.int64))
            else:
                backend.scatter(np.zeros(items, dtype=np.int64))
                assert backend.stats().peak_shard_load <= memory
                assert backend.stats().shard_count == max(
                    1, -(-items // memory)
                )

    def test_engine_charges_enforce_caps(self):
        backend = ShardedBackend(shard_memory=10, max_shards=3)
        engine = MPCEngine(10, backend=backend)
        engine.charge_sort(30, label="fits exactly")
        with pytest.raises(MachineMemoryError):
            engine.charge_sort(31, label="one word too many")

    def test_note_data_volume_enforces_caps(self):
        backend = ShardedBackend(shard_memory=10, max_shards=3)
        engine = MPCEngine(10, backend=backend)
        with pytest.raises(MachineMemoryError):
            engine.note_data_volume(31)

    def test_peak_machines_agrees_with_shard_count(self):
        backend = ShardedBackend()
        engine = MPCEngine(50, backend=backend)
        for items in (7, 499, 120, 350):
            engine.charge_sort(items)
        assert engine.peak_machines == backend.stats().shard_count == 10

    @settings(max_examples=60, deadline=None)
    @given(
        memory=st.integers(2, 64),
        max_shards=st.integers(1, 8),
        items=st.integers(0, 600),
    )
    def test_cap_property(self, memory, max_shards, items):
        """Hypothesis sweep: MachineMemoryError iff items > shards × s,
        and the observed fleet always matches the engine's accounting."""
        backend = ShardedBackend(shard_memory=memory, max_shards=max_shards)
        engine = MPCEngine(memory, backend=backend)
        if items > max_shards * memory:
            with pytest.raises(MachineMemoryError):
                engine.charge_sort(items)
        else:
            engine.charge_sort(items)
            assert engine.peak_machines == backend.stats().shard_count
            assert backend.stats().peak_shard_load <= memory


class TestMakeBackend:
    def test_by_name(self):
        assert isinstance(make_backend("local"), LocalBackend)
        assert isinstance(make_backend("sharded"), ShardedBackend)

    def test_with_options(self):
        backend = make_backend("sharded", shard_memory=32, max_shards=4)
        assert backend.shard_memory == 32
        assert backend.max_shards == 4

    def test_none_passthrough(self):
        assert make_backend(None) is None

    def test_instance_passthrough(self):
        backend = LocalBackend()
        assert make_backend(backend) is backend

    def test_instance_with_options_rejected(self):
        with pytest.raises(ValueError):
            make_backend(LocalBackend(), shard_memory=8)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_backend("quantum")

    def test_bad_type(self):
        with pytest.raises(TypeError):
            make_backend(42)


class TestEngineIntegration:
    def test_default_backend_is_local(self):
        engine = MPCEngine(16)
        assert isinstance(engine.backend, LocalBackend)

    def test_summary_embeds_backend_stats(self):
        engine = MPCEngine(16, backend=ShardedBackend())
        engine.charge_sort(100)
        doc = engine.summary()["backend"]
        assert doc["name"] == "sharded"
        assert doc["shard_count"] == engine.peak_machines

    def test_local_charges_record_zero_exchanges(self):
        engine = MPCEngine(16)
        engine.charge_sort(100)
        assert engine.charges[0].exchanges == 0

    def test_reset_resets_backend(self):
        backend = ShardedBackend(shard_memory=8)
        engine = MPCEngine(8, backend=backend)
        engine.charge_sort(100)
        engine.reset()
        assert backend.stats().shard_count == 0

    def test_stats_dataclass_defaults(self):
        stats = BackendStats(name="local")
        assert stats.exchanges == 0
        assert stats.to_json()["op_counts"] == {}
