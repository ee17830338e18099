"""Unit tests for the streaming-connectivity subsystem."""

import numpy as np
import pytest

from repro.graph import canonical_labels, dumbbell_graph, path_graph
from repro.sketch import ShardedAGMSketch
from repro.streaming import (
    EventBatch,
    StreamingConnectivity,
    StreamWorkload,
    stream_pattern_names,
)


class TestEventBatch:
    def test_insert_delete_constructors(self):
        edges = [[0, 1], [2, 3]]
        ins = EventBatch.insert(edges)
        dele = EventBatch.delete(edges)
        assert ins.size == dele.size == 2
        assert ins.inserts == 2 and ins.deletes == 0
        assert dele.inserts == 0 and dele.deletes == 2

    def test_normalises_dtypes(self):
        batch = EventBatch([[0, 1]], [3])
        assert batch.edges.dtype == np.int64
        assert batch.weights.dtype == np.int64
        assert batch.edges.shape == (1, 2)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="weights"):
            EventBatch([[0, 1], [1, 2]], [1])

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            EventBatch([[4, 4]], [1])

    def test_negative_endpoint_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            EventBatch([[-1, 2]], [1])

    def test_zero_weight_rejected(self):
        with pytest.raises(ValueError, match="zero-weight"):
            EventBatch([[0, 1]], [0])

    def test_mixed_weights(self):
        batch = EventBatch([[0, 1], [1, 2], [2, 3]], [2, -1, -3])
        assert batch.inserts == 2
        assert batch.deletes == 4


class TestStreamingConnectivity:
    def test_empty_structure_is_singletons(self):
        conn = StreamingConnectivity(5, rng=0)
        assert conn.edge_count == 0
        labels = conn.query()
        assert np.array_equal(labels, np.arange(5))
        assert conn.component_count() == 5

    def test_insert_then_query(self):
        conn = StreamingConnectivity(6, rng=1)
        conn.apply_edges([[0, 1], [1, 2], [3, 4]])
        assert conn.connected(0, 2)
        assert conn.connected(3, 4)
        assert not conn.connected(0, 3)
        assert conn.component_count() == 3

    def test_delete_splits_component(self):
        conn = StreamingConnectivity(8, rng=2)
        conn.apply_edges(path_graph(8).edges)
        assert conn.component_count() == 1
        conn.apply(EventBatch.delete([[3, 4]]))
        assert not conn.connected(3, 4)
        assert conn.component_count() == 2

    def test_duplicate_edges_need_both_deletes(self):
        conn = StreamingConnectivity(3, rng=3)
        conn.apply_edges([[0, 1], [0, 1]])
        conn.apply(EventBatch.delete([[0, 1]]))
        assert conn.connected(0, 1)  # one parallel copy remains
        conn.apply(EventBatch.delete([[0, 1]]))
        assert not conn.connected(0, 1)

    def test_delete_absent_edge_rejected_atomically(self):
        conn = StreamingConnectivity(4, rng=4)
        conn.apply_edges([[0, 1]])
        before = conn.query()
        bad = EventBatch([[1, 2], [2, 3]], [1, -1])
        with pytest.raises(ValueError, match="below multiplicity 0"):
            conn.apply(bad)
        # Nothing mutated: neither the valid insert nor the bad delete.
        assert conn.edge_count == 1
        assert np.array_equal(conn.query(), before)
        assert conn.stats.batches_applied == 1

    def test_within_batch_insert_then_delete_is_fine(self):
        conn = StreamingConnectivity(4, rng=5)
        # Net delta for (1, 2) is zero — batches aggregate before checking.
        conn.apply(EventBatch([[1, 2], [2, 1]], [1, -1]))
        assert conn.edge_count == 0
        assert conn.component_count() == 4

    def test_out_of_range_endpoint_rejected(self):
        conn = StreamingConnectivity(4, rng=6)
        with pytest.raises(ValueError, match="out of range"):
            conn.apply(EventBatch.insert([[0, 7]]))

    def test_negative_endpoint_rejected_atomically(self):
        # Regression: a negative endpoint passes a max()-only bound check,
        # so the multiset used to mutate before the sketch update raised.
        # Both bounds are validated up front now; nothing may change.
        conn = StreamingConnectivity(4, rng=6)
        conn.apply_edges([[0, 1]])
        before = conn.query()
        counters_before = conn._sketch.merge().block.copy()
        batch = EventBatch.insert([[1, 2], [2, 3]])
        batch.edges[0, 0] = -1  # bypass EventBatch construction checks
        with pytest.raises(ValueError, match="out of range"):
            conn.apply(batch)
        assert conn.edge_count == 1
        assert conn._multiplicity == {0 * 4 + 1: 1}
        assert np.array_equal(conn._sketch.merge().block, counters_before)
        assert np.array_equal(conn.query(), before)
        assert conn.stats.batches_applied == 1

    def test_current_graph_round_trips_multiset(self):
        conn = StreamingConnectivity(6, rng=7)
        conn.apply_edges([[0, 5], [0, 5], [2, 3]])
        g = conn.current_graph()
        assert g.n == 6
        assert sorted(map(tuple, g.edges.tolist())) == [(0, 5), (0, 5), (2, 3)]
        conn.apply(EventBatch.delete([[0, 5]]))
        assert sorted(map(tuple, conn.current_graph().edges.tolist())) == [
            (0, 5),
            (2, 3),
        ]

    def test_query_matches_oracle_after_churn(self):
        g = dumbbell_graph(16, 4, rng=8)
        conn = StreamingConnectivity(g.n, rng=8)
        edges = g.edges[g.edges[:, 0] != g.edges[:, 1]]  # events reject loops
        conn.apply_edges(edges)
        expected = canonical_labels(
            np.zeros(g.n, dtype=np.int64)
        )  # dumbbell is connected
        assert np.array_equal(conn.query(), expected)

    def test_decode_failure_falls_back_to_oracle(self):
        # Too few Borůvka rounds to converge on a long path: the sketch
        # decoder raises, and the oracle fallback must still be exact.
        conn = StreamingConnectivity(64, rng=9, boruvka_rounds=1)
        conn.apply_edges(path_graph(64).edges)
        labels = conn.query()
        assert np.array_equal(labels, np.zeros(64, dtype=np.int64))
        assert conn.stats.decode_failures == 1
        assert conn.stats.full_recomputes == 1
        assert conn.stats.sketch_rebuilds >= 1

    def test_recompute_every_schedule(self):
        conn = StreamingConnectivity(10, rng=10, recompute_every=2)
        conn.apply_edges([[0, 1]])
        conn.query()
        assert conn.stats.scheduled_recomputes == 0
        conn.apply_edges([[1, 2]])
        conn.query()  # second batch since last recompute: due
        assert conn.stats.scheduled_recomputes == 1
        assert conn.stats.full_recomputes == 1

    def test_forced_recompute_matches_sketch_path(self):
        conn = StreamingConnectivity(12, rng=11)
        conn.apply_edges(path_graph(12).edges)
        sketched = conn.query()
        forced = conn.recompute()
        assert np.array_equal(sketched, forced)
        assert conn.stats.full_recomputes == 1

    def test_query_is_cached_until_next_apply(self):
        conn = StreamingConnectivity(8, rng=12)
        conn.apply_edges(path_graph(8).edges)
        conn.query()
        queries_after_first = conn.stats.sketch_queries
        conn.query()
        assert conn.stats.sketch_queries == queries_after_first
        conn.apply_edges([[0, 7]])
        conn.query()
        assert conn.stats.sketch_queries == queries_after_first + 1

    def test_stats_to_json_schema(self):
        conn = StreamingConnectivity(4, rng=13)
        conn.apply_edges([[0, 1]])
        conn.query()
        snapshot = conn.stats.to_json()
        assert snapshot["batches_applied"] == 1
        assert snapshot["events_applied"] == 1
        assert set(snapshot) == {
            "batches_applied",
            "events_applied",
            "sketch_queries",
            "decode_failures",
            "scheduled_recomputes",
            "full_recomputes",
            "sketch_rebuilds",
            "oracle_rounds",
            "sketch",
        }
        # The default structure ingests through one shard: one kernel
        # call per batch, one merge per decoded query, and one
        # AGMSketch block of partial state.
        assert snapshot["sketch"] == {
            "shard_updates": 1,
            "merges": 1,
            "partial_words": 4 * conn._sketch.words_per_vertex(),
        }

    def test_sharded_ingest_matches_monolithic(self):
        events = [
            ([[0, 1], [1, 2], [3, 4]], [1, 1, 1]),
            ([[1, 2], [2, 3]], [-1, 1]),
            ([[0, 1]], [-1]),
        ]

        def run(**kwargs):
            conn = StreamingConnectivity(6, rng=9, **kwargs)
            labels = []
            for edges, weights in events:
                conn.apply_edges(edges, weights)
                labels.append(conn.query())
            stats = conn.stats.to_json()
            conn.close()
            return labels, stats

        base, _ = run()
        labels, stats = run(sketch_shards=3)
        for mono, sharded in zip(base, labels):
            assert np.array_equal(mono, sharded)
        assert stats["sketch"]["shard_updates"] == 9  # 3 shards x 3 batches
        assert stats["sketch"]["merges"] == 3  # one decode per query
        assert stats["sketch"]["partial_words"] > 0

    def test_apply_after_close_updates_multiset_and_query_rebuilds(self):
        # Regression: apply() on a closed structure used to run the
        # ingest kernel over the released partials and crash with
        # AttributeError.  The dirty sketch is skipped instead, and the
        # next query rebuilds it from the multiset.
        conn = StreamingConnectivity(8, rng=0, sketch_shards=2)
        conn.close()
        conn.apply(EventBatch.insert([[3, 4]]))
        assert conn.edge_count == 1
        assert conn.stats.sketch.shard_updates == 0
        labels = conn.query()
        assert labels[3] == labels[4]
        assert conn.component_count() == 7
        assert conn.stats.sketch_rebuilds == 1
        conn.close()

    def test_interrupted_rebuild_is_never_decoded(self, monkeypatch):
        # Regression: a rebuild marked the fresh sketch clean before its
        # ingest ran, so an ingest failure left an empty sketch that the
        # next query decoded into singleton labels.
        conn = StreamingConnectivity(6, rng=1, sketch_shards=2)
        conn.apply_edges([[0, 1]])

        def failing_update(self, edges, weights=None):
            raise RuntimeError("ingest backend died")

        with monkeypatch.context() as patch:
            patch.setattr(ShardedAGMSketch, "update_edges", failing_update)
            with pytest.raises(RuntimeError, match="died"):
                conn.recompute()
        labels = conn.query()
        assert labels[0] == labels[1]
        assert conn.stats.decode_failures == 1
        conn.close()

    def test_close_is_idempotent_and_query_recovers(self):
        conn = StreamingConnectivity(5, rng=10, sketch_shards=2)
        conn.apply_edges([[0, 1], [2, 3]])
        expected = conn.query()
        conn.close()
        conn.close()
        # After close the sketch is gone; the next uncached query falls
        # back to the oracle, which rebuilds a fresh sketch from the
        # multiset — the structure stays usable.
        conn._cached_labels = None
        assert np.array_equal(conn.query(), expected)
        assert conn.stats.decode_failures >= 1
        conn.apply_edges([[3, 4]])
        labels = conn.query()
        assert labels[3] == labels[4]
        conn.close()


class TestStreamWorkloads:
    def test_pattern_registry(self):
        names = stream_pattern_names()
        assert names == sorted(names)
        for expected in (
            "churn",
            "component_split",
            "delete_heavy",
            "insert_heavy",
        ):
            assert expected in names

    def test_unknown_pattern_rejected(self):
        with pytest.raises(KeyError, match="unknown stream pattern"):
            StreamWorkload("path", 16, "nope")

    def test_build_is_deterministic(self):
        for pattern in stream_pattern_names():
            a = StreamWorkload("erdos_renyi", 32, pattern, batches=4).build(17)
            b = StreamWorkload("erdos_renyi", 32, pattern, batches=4).build(17)
            assert len(a) == len(b)
            for x, y in zip(a, b):
                assert np.array_equal(x.edges, y.edges)
                assert np.array_equal(x.weights, y.weights)

    @pytest.mark.parametrize("pattern", ["insert_heavy", "delete_heavy", "churn"])
    def test_streams_never_go_negative(self, pattern):
        stream = StreamWorkload("paper_random", 40, pattern, batches=5).build(18)
        conn = StreamingConnectivity(stream.n, rng=19)
        for batch in stream:  # apply() raises if any multiplicity dips < 0
            conn.apply(batch)
        assert conn.stats.batches_applied == len(stream)

    def test_insert_heavy_covers_all_edges(self):
        stream = StreamWorkload("cycle", 24, "insert_heavy", batches=4).build(20)
        conn = StreamingConnectivity(stream.n, rng=21)
        for batch in stream:
            assert np.all(batch.weights > 0)
            conn.apply(batch)
        assert conn.edge_count == 24  # every cycle edge arrived exactly once
        assert conn.component_count() == 1

    def test_delete_heavy_tears_down(self):
        stream = StreamWorkload("star", 20, "delete_heavy", batches=5).build(22)
        conn = StreamingConnectivity(stream.n, rng=23)
        total_inserted = stream.batches[0].size
        for batch in stream:
            conn.apply(batch)
        assert conn.edge_count < total_inserted  # most instances deleted
        assert conn.component_count() > 1

    def test_component_split_splits_then_remerges(self):
        stream = StreamWorkload("path", 30, "component_split").build(24)
        conn = StreamingConnectivity(stream.n, rng=25)
        batches = list(stream)
        counts = []
        for batch in batches:
            conn.apply(batch)
            counts.append(conn.component_count())
        # After all crossing edges are deleted the halves are separate;
        # the final fresh bridge re-merges them.
        assert counts[-2] > counts[0]
        assert counts[-1] < counts[-2]

    def test_workload_label(self):
        wl = StreamWorkload("grid", 36, "churn")
        assert wl.label.startswith("churn:grid")

    def test_total_events(self):
        stream = StreamWorkload("path", 16, "insert_heavy", batches=3).build(26)
        assert stream.total_events == sum(b.size for b in stream)
        assert stream.total_events == 15
