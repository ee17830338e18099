"""Sharded AGM sketch: fused scatter, linearity merges, backend parity.

The load-bearing claims: the fused flat-index scatter is bit-identical
to the per-level/per-row reference loop; shard partials of any partition
of the update stream sum back to the monolithic sketch exactly (int64
wraparound addition is commutative and associative; fingerprints reduce
mod p at batch boundaries); and every ingest backend — in-process,
sharded, process-pool shm, rpc worker-resident — produces the same
merged sketch with the same accounting.
"""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.mpc import (
    LocalBackend,
    ProcessBackend,
    RpcBackend,
    RpcWorkerError,
    ShardedBackend,
)
from repro.sketch import (
    MERSENNE_P,
    SKETCH_STATS_ZERO,
    AGMSketch,
    ShardedAGMSketch,
    SketchStats,
    agm_decode_components,
)
from repro.sketch.one_sparse import _pow_mod
from repro.sketch.sharded import SketchPartial
from repro.streaming import EventBatch, StreamingConnectivity

#: Small shape so hypothesis suites stay fast; both sides of every
#: comparison draw it from the same seed.
SMALL = dict(sparsity=2, rows=2, boruvka_rounds=2)

hyp_settings = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _reference_round_update(sketch, edges, weights):
    """The pre-fusion per-level/per-row scatter, kept as the oracle."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    weights = np.asarray(weights, dtype=np.int64)
    u, v = edges[:, 0], edges[:, 1]
    keep = (u != v) & (weights != 0)
    if not keep.any():
        return
    u, v, w = u[keep], v[keep], weights[keep]
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    edge_ids = lo * sketch.n + hi
    owners = np.concatenate([lo, hi])
    ids = np.concatenate([edge_ids, edge_ids])
    signed = np.concatenate([w, -w])
    levels, rows, cols = sketch.shape
    depth = sketch.level_hash.level(ids, levels - 1)
    powers = _pow_mod(
        np.full(ids.shape, sketch.fingerprint_base), ids, MERSENNE_P
    ).astype(np.int64)
    finger = ((signed % MERSENNE_P) * powers) % MERSENNE_P
    for i, hasher in enumerate(sketch.row_hashes):
        col = (hasher.values(ids) % np.uint64(cols)).astype(np.int64)
        for level in range(levels):
            active = depth >= level
            np.add.at(
                sketch.totals[:, level, i],
                (owners[active], col[active]),
                signed[active],
            )
            np.add.at(
                sketch.moments[:, level, i],
                (owners[active], col[active]),
                signed[active] * ids[active],
            )
            np.add.at(
                sketch.fingers[:, level, i],
                (owners[active], col[active]),
                finger[active],
            )
    sketch.fingers %= MERSENNE_P


def _sketches_equal(a: AGMSketch, b: AGMSketch) -> bool:
    return len(a.rounds) == len(b.rounds) and all(
        np.array_equal(x.totals, y.totals)
        and np.array_equal(x.moments, y.moments)
        and np.array_equal(x.fingers, y.fingers)
        for x, y in zip(a.rounds, b.rounds)
    )


def _random_batches(rng, n, batches=3, m=12):
    out = []
    for _ in range(batches):
        edges = rng.integers(0, n, size=(m, 2), dtype=np.int64)
        weights = rng.integers(-2, 3, size=m).astype(np.int64)
        out.append((edges, weights))
    return out


# -- fused scatter vs the reference loop -------------------------------------


@pytest.mark.parametrize(
    "shards", [None, 1, 2, 5], ids=["AGMSketch", "shards=1", "shards=2", "shards=5"]
)
def test_fused_scatter_matches_reference_loop(shards):
    rng = np.random.default_rng(5)
    n = 24
    if shards is None:
        fused = AGMSketch.empty(n, 7, **SMALL)
    else:
        fused = ShardedAGMSketch.empty(n, 7, shards=shards, **SMALL)
    reference = AGMSketch.empty(n, 7, **SMALL)
    for edges, weights in _random_batches(rng, n, batches=4, m=20):
        fused.update_edges(edges, weights)
        for round_sketch in reference.rounds:
            _reference_round_update(round_sketch, edges, weights)
    merged = fused if shards is None else fused.merge()
    assert _sketches_equal(merged, reference)


def test_fused_scatter_handles_self_loops_and_zero_weights():
    n = 10
    sketch = AGMSketch.empty(n, 3, **SMALL)
    sketch.update_edges(
        np.array([[1, 1], [2, 3]], dtype=np.int64),
        np.array([5, 0], dtype=np.int64),
    )
    for round_sketch in sketch.rounds:
        assert not round_sketch.totals.any()
        assert not round_sketch.fingers.any()


# -- in-process sharding -----------------------------------------------------


@pytest.mark.parametrize("shards", [1, 2, 5])
def test_sharded_merge_bit_identical(shards):
    rng = np.random.default_rng(11)
    n = 30
    mono = AGMSketch.empty(n, 13, **SMALL)
    sharded = ShardedAGMSketch.empty(n, 13, shards=shards, **SMALL)
    assert sharded.shard_count == shards
    for edges, weights in _random_batches(rng, n):
        mono.update_edges(edges, weights)
        sharded.update_edges(edges, weights)
    assert _sketches_equal(mono, sharded.merge())
    assert sharded.words_per_vertex() == mono.words_per_vertex()


@pytest.mark.parametrize("shards", [1, 2])
def test_merge_is_read_only_and_views_a_lone_partial(shards):
    sharded = ShardedAGMSketch.empty(10, 3, shards=shards, **SMALL)
    sharded.update_edges(np.array([[0, 9], [2, 5]], dtype=np.int64))
    merged = sharded.merge()
    assert not merged.block.flags.writeable
    assert not merged.rounds[0].totals.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        merged.update_edges(np.array([[1, 2]], dtype=np.int64))
    partials = [part.data for part in sharded._store.partials]
    # One block is shared, not copied; several are concatenated.
    assert [np.shares_memory(merged.block, p) for p in partials] == [shards == 1] * shards
    assert all(p.flags.writeable for p in partials)  # ingest keeps writing


def test_closed_sketch_refuses_update_and_merge():
    sharded = ShardedAGMSketch.empty(8, 1, shards=2, **SMALL)
    sharded.close()
    with pytest.raises(RuntimeError, match="closed"):
        sharded.update_edges(np.array([[0, 1]], dtype=np.int64))
    with pytest.raises(RuntimeError, match="closed"):
        sharded.merge()
    sharded.close()  # idempotent


def test_shard_count_capped_at_n():
    sharded = ShardedAGMSketch.empty(4, 1, shards=9, **SMALL)
    assert sharded.shard_count == 4
    assert sharded.shard_ranges == [(0, 1), (1, 2), (2, 3), (3, 4)]


def test_sharded_decode_matches_monolithic():
    n = 40
    edges = np.array(
        [[i, i + 1] for i in range(n // 2 - 1)]
        + [[i, i + 1] for i in range(n // 2, n - 1)],
        dtype=np.int64,
    )
    mono = AGMSketch.empty(n, 21)
    mono.update_edges(edges)
    sharded = ShardedAGMSketch.empty(n, 21, shards=3)
    sharded.update_edges(edges)
    assert np.array_equal(
        agm_decode_components(sharded.merge()), agm_decode_components(mono)
    )


def test_sharded_update_validates_like_monolithic():
    sharded = ShardedAGMSketch.empty(8, 1, shards=2, **SMALL)
    with pytest.raises(ValueError, match=r"out of range"):
        sharded.update_edges(np.array([[0, 8]], dtype=np.int64))
    with pytest.raises(ValueError, match=r"out of range"):
        sharded.update_edges(np.array([[-1, 2]], dtype=np.int64))
    with pytest.raises(ValueError, match=r"weights shape"):
        sharded.update_edges(
            np.array([[0, 1]], dtype=np.int64), np.array([1, 1], dtype=np.int64)
        )


# -- stats + store guards ----------------------------------------------------


def test_sketch_stats_schema_and_accounting():
    stats = SketchStats()
    assert stats.to_json() == dict(SKETCH_STATS_ZERO)
    sharded = ShardedAGMSketch.empty(12, 3, shards=3, stats=stats, **SMALL)
    expected_words = 3 * 3 * 12 * sharded._specs[0].cells  # rounds x planes x n
    assert stats.partial_words == expected_words
    sharded.update_edges(np.array([[0, 5], [6, 11]], dtype=np.int64))
    assert stats.shard_updates == 3
    sharded.merge()
    sharded.merge()
    assert stats.merges == 2
    assert set(stats.to_json()) == set(SKETCH_STATS_ZERO)


def test_resident_store_refuses_in_process_access():
    backend = RpcBackend(workers=2, min_wire_items=0)
    try:
        sharded = ShardedAGMSketch.empty(8, 1, shards=2, backend=backend, **SMALL)
        store = sharded._store
        with pytest.raises(RuntimeError, match="resident"):
            store.apply_serial(
                np.array([[0, 1]], dtype=np.int64), np.array([1], dtype=np.int64)
            )
        with pytest.raises(RuntimeError, match="resident"):
            store.local_partial_data()
        sharded.close()
    finally:
        backend.close()


def test_partial_descriptor_requires_lease():
    part = SketchPartial(0, 4, np.zeros((1, 3, 4, 2), dtype=np.int64))
    with pytest.raises(RuntimeError, match="lease"):
        part.descriptor
    part.release()  # idempotent without a lease
    assert part.data is None


# -- hypothesis: the linearity monoid ----------------------------------------


def _batches_strategy(n, max_batches=3, max_edges=8):
    edge = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    batch = st.lists(
        st.tuples(edge, st.integers(-2, 2)), min_size=1, max_size=max_edges
    )
    return st.lists(batch, min_size=1, max_size=max_batches)


def _as_arrays(batch):
    edges = np.array([e for e, _ in batch], dtype=np.int64).reshape(-1, 2)
    weights = np.array([w for _, w in batch], dtype=np.int64)
    return edges, weights


@hyp_settings
@given(data=st.data())
def test_partition_of_stream_sums_to_monolith_any_order(data):
    n = data.draw(st.integers(4, 16))
    shards = data.draw(st.integers(1, 4))
    batches = data.draw(_batches_strategy(n))
    order = data.draw(st.permutations(range(len(batches))))

    mono = AGMSketch.empty(n, 17, **SMALL)
    for batch in batches:
        mono.update_edges(*_as_arrays(batch))

    # Each batch goes to its own sharded sketch (same seed => same spec);
    # folding the per-shard partial blocks in ANY batch order must
    # reproduce the monolith bit-for-bit.
    pieces = []
    for batch in batches:
        piece = ShardedAGMSketch.empty(n, 17, shards=shards, **SMALL)
        piece.update_edges(*_as_arrays(batch))
        pieces.append(piece)
    total = pieces[order[0]]
    for index in order[1:]:
        for mine, theirs in zip(
            total._store.partials, pieces[index]._store.partials
        ):
            mine.data = ShardedAGMSketch.sum_partials(mine.data, theirs.data)
    assert _sketches_equal(mono, total.merge())


@hyp_settings
@given(data=st.data())
def test_sum_partials_commutative_associative(data):
    n = data.draw(st.integers(4, 12))
    blocks = []
    for salt in range(3):
        sk = ShardedAGMSketch.empty(n, 19, shards=1, **SMALL)
        batch = data.draw(_batches_strategy(n, max_batches=1))[0]
        sk.update_edges(*_as_arrays(batch))
        blocks.append(sk._store.partials[0].data)
    a, b, c = blocks
    fold = ShardedAGMSketch.sum_partials
    assert np.array_equal(fold(a, b), fold(b, a))
    assert np.array_equal(fold(fold(a, b), c), fold(a, fold(b, c)))


@hyp_settings
@given(data=st.data())
def test_insert_then_delete_across_shards_cancels_to_zero(data):
    n = data.draw(st.integers(4, 16))
    shards = data.draw(st.integers(1, 4))
    batch = data.draw(_batches_strategy(n, max_batches=1, max_edges=10))[0]
    edges, weights = _as_arrays(batch)
    split = data.draw(st.integers(0, edges.shape[0]))

    sharded = ShardedAGMSketch.empty(n, 23, shards=shards, **SMALL)
    sharded.update_edges(edges, weights)
    # Delete in two chunks, reversed order — linearity doesn't care.
    for sl in (slice(split, None), slice(None, split)):
        if edges[sl].size:
            sharded.update_edges(edges[sl], -weights[sl])
    merged = sharded.merge()
    for round_sketch in merged.rounds:
        assert not round_sketch.totals.any()
        assert not round_sketch.moments.any()
        assert not round_sketch.fingers.any()


# -- backend parity ----------------------------------------------------------


def _make_backend(name):
    if name == "local":
        return LocalBackend()
    if name == "sharded":
        return ShardedBackend()
    if name == "process":
        return ProcessBackend(workers=2, min_parallel_items=0)
    if name == "rpc":
        return RpcBackend(workers=2, min_wire_items=0)
    raise AssertionError(name)


@pytest.mark.parametrize("name", ["local", "sharded", "process", "rpc"])
def test_backend_ingest_bit_identical_and_counted(name):
    rng = np.random.default_rng(31)
    n = 26
    mono = AGMSketch.empty(n, 37, **SMALL)
    reference = AGMSketch.empty(n, 37, **SMALL)
    backend = _make_backend(name)
    try:
        sharded = ShardedAGMSketch.empty(
            n, 37, shards=2, backend=backend, **SMALL
        )
        batches = _random_batches(rng, n)
        for edges, weights in batches:
            mono.update_edges(edges, weights)
            sharded.update_edges(edges, weights)
            for round_sketch in reference.rounds:
                _reference_round_update(round_sketch, edges, weights)
        merged = sharded.merge()
        assert _sketches_equal(mono, merged)
        assert _sketches_equal(reference, merged)
        stats = backend.stats()
        assert stats.op_counts["sketch_update"] == 3
        assert stats.op_counts["sketch_collect"] == 1
        # One machine crosses no barrier.  Every fleet counts one
        # barrier per update broadcast (carrying the batch) and one for
        # the collect (carrying every partial word).
        batch_bytes = sum(e.nbytes + w.nbytes for e, w in batches)
        partial_bytes = 8 * sharded.stats.partial_words
        expected = (4, batch_bytes + partial_bytes) if name != "local" else (0, 0)
        assert (stats.exchanges, stats.bytes_exchanged) == expected
        assert partial_bytes > 0
        sharded.close()
        assert backend.stats().op_counts.get("sketch_release", 0) == 1
    finally:
        backend.close()


@pytest.mark.parametrize("name", ["in-process", "process", "rpc"])
def test_empty_vertex_set_gets_one_empty_range(name):
    """``n = 0`` used to divide by zero shards; it gets one empty owner
    range on every backend and decodes to empty labels."""
    backend = None if name == "in-process" else _make_backend(name)
    try:
        sharded = ShardedAGMSketch.empty(0, 38, backend=backend, **SMALL)
        assert sharded.shard_ranges == [(0, 0)]
        sharded.update_edges(np.empty((0, 2), dtype=np.int64))
        labels = agm_decode_components(sharded.merge())
        assert labels.dtype == np.int64 and labels.shape == (0,)
        sharded.close()
    finally:
        if backend is not None:
            backend.close()


#: Run in a child interpreter: before arena-backed partials re-checked
#: their lease on every read, this scenario read unmapped memory and the
#: process died of SIGSEGV, which must fail the test, not the test run.
_DEAD_ARENA_SCENARIO = """
import numpy as np
import pytest
from repro.graph import canonical_labels, connected_components
from repro.mpc import ArenaLeaseError, ProcessBackend
from repro.sketch import ShardedAGMSketch
from repro.streaming import EventBatch, StreamingConnectivity

# A worker death closes the backend, arena included.  Ingest batches
# below min_parallel_items then take the serial kernel over the
# partials, and query() merges them: both must raise the typed error.
backend = ProcessBackend(shard_memory=256, workers=2, min_parallel_items=1000)
try:
    conn = StreamingConnectivity(12, rng=3, backend=backend, sketch_shards=2)
    conn.apply(EventBatch.insert([[0, 1], [2, 3]]))
    start_pool = backend._ensure_pool

    def worker_dies_after_the_liveness_check():
        # Closing the pipe before the check would let the worker see
        # EOF and exit, and the check would restart the pool instead.
        start_pool()
        del backend._ensure_pool  # one shot
        backend._pipes[0].close()

    backend._ensure_pool = worker_dies_after_the_liveness_check
    with pytest.raises(RuntimeError, match="died"):
        backend.sort(np.random.default_rng(0).integers(0, 9, 2000))
    with pytest.raises(ArenaLeaseError):
        conn.apply(EventBatch.insert([[4, 5], [5, 6], [6, 7]]))
    expected = canonical_labels(connected_components(conn.current_graph()))
    assert np.array_equal(conn.query(), expected)
    conn.close()

    # Closing the backend before the sketch: a merge read is typed too.
    sketch = ShardedAGMSketch.empty(12, 5, shards=2, backend=backend)
    sketch.update_edges(np.array([[0, 9]]))
    backend.close()
    with pytest.raises(ArenaLeaseError):
        sketch.merge()
    sketch.close()
finally:
    backend.close()
print("scenario ok")
"""


def test_dead_arena_partials_raise_typed_and_query_recovers():
    src = os.path.dirname(os.path.dirname(repro.__file__))
    result = subprocess.run(
        [sys.executable, "-c", _DEAD_ARENA_SCENARIO],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert "scenario ok" in result.stdout


def test_rpc_pool_restart_makes_partial_loss_loud():
    backend = RpcBackend(workers=2, min_wire_items=0)
    try:
        sharded = ShardedAGMSketch.empty(10, 41, shards=2, backend=backend)
        sharded.update_edges(np.array([[0, 9]], dtype=np.int64))
        backend.close()  # drops the worker-resident partials
        with pytest.raises(RpcWorkerError, match="pool restart"):
            sharded.update_edges(np.array([[1, 2]], dtype=np.int64))
        with pytest.raises(RpcWorkerError, match="pool restart"):
            sharded.merge()
        sharded.close()  # must not raise on a lost pool
    finally:
        backend.close()


def test_failed_batch_leaves_sketch_dirty_until_query_rebuilds():
    backend = RpcBackend(workers=2, min_wire_items=0)
    try:
        conn = StreamingConnectivity(10, rng=4, backend=backend, sketch_shards=2)
        conn.apply(EventBatch.insert([[0, 1]]))
        backend.close()  # drops the worker-resident partials
        with pytest.raises(RpcWorkerError, match="pool restart"):
            conn.apply(EventBatch.insert([[1, 2]]))
        assert conn.edge_count == 1  # the failed batch left no trace
        # The dirty sketch is never touched again: this batch goes to the
        # multiset alone, and the query rebuilds the sketch from it.
        conn.apply(EventBatch.insert([[2, 3]]))
        labels = conn.query()
        assert labels[2] == labels[3] and labels[1] != labels[2]
        assert conn.stats.decode_failures == 1
        assert conn.stats.sketch_rebuilds == 1
        conn.apply(EventBatch.insert([[1, 2]]))
        labels = conn.query()
        assert labels[0] == labels[3]
        assert conn.stats.sketch_queries == 1
        conn.close()
    finally:
        backend.close()
