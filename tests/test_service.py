"""Connectivity service: concurrency differential, cache keying, errors.

The load-bearing property: N clients hammering one server with
interleaved queries over *distinct* graphs each receive responses
bit-identical to a single-client ``mpc_connected_components`` run —
and the digest-keyed cache never bleeds across graphs (one compute per
distinct graph, no matter how many concurrent duplicates ask).
"""

import os
import threading

import numpy as np
import pytest

import repro
from repro.bench.workloads import Workload
from repro.mpc import RpcBackend, graph_digest
from repro.mpc.rpc import RpcTimeoutError
from repro.service import ServiceClient, ServiceError, ServiceServer
from repro.streaming import StreamingConnectivity

SEED = 23
CONFIG = repro.PipelineConfig(
    delta=0.5, expander_degree=4, max_walk_length=32, oversample=4,
    max_phases=2,
)

#: Distinct-structure graphs for the concurrency differential.
FAMILIES = ["dumbbell", "cycle", "grid", "star"]


def build(family, n=96):
    return Workload(family, n).build(SEED)


def reference_labels(graph, engine="liu_tarjan"):
    return repro.mpc_connected_components(
        graph, 0.1, config=CONFIG, rng=SEED, engine=engine
    ).labels


@pytest.fixture(scope="module")
def server():
    with ServiceServer(engine="liu_tarjan", config=CONFIG, seed=SEED) as srv:
        yield srv


class TestConcurrencyDifferential:
    def test_concurrent_clients_bit_identical_no_cache_bleed(self, server):
        graphs = {family: build(family) for family in FAMILIES}
        refs = {
            family: reference_labels(graph)
            for family, graph in graphs.items()
        }
        results: dict = {}
        errors: list = []

        def hammer(client_id):
            try:
                with ServiceClient(server.address) as client:
                    collected = {}
                    # Interleave queries across every graph so cache
                    # entries for different digests are hot at once.
                    digests = {
                        family: client.put_graph(graph.n, graph.edges)
                        for family, graph in graphs.items()
                    }
                    for family, digest in digests.items():
                        collected[family] = {
                            "digest": digest,
                            "labels": client.components(digest),
                            "count": client.component_count(digest),
                        }
                    for family, digest in digests.items():
                        pairs = np.column_stack(
                            [np.arange(20), np.arange(1, 21)]
                        )
                        collected[family]["connected"] = client.connected(
                            digest, pairs
                        )
                    results[client_id] = collected
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(i,)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
        assert not errors, errors[:2]
        assert len(results) == 8
        expected_digests = {
            family: graph_digest(graph.n, graph.edges)
            for family, graph in graphs.items()
        }
        for collected in results.values():
            for family, graph in graphs.items():
                got = collected[family]
                ref = refs[family]
                # Bit-identical to the single-client pipeline run.
                assert got["digest"] == expected_digests[family]
                assert np.array_equal(got["labels"], ref)
                assert got["count"] == int(ref.max()) + 1
                pairs = np.column_stack([np.arange(20), np.arange(1, 21)])
                assert np.array_equal(
                    got["connected"], ref[pairs[:, 0]] == ref[pairs[:, 1]]
                )
        # Cache keyed correctly: one compute per distinct graph, ever —
        # 8 concurrent clients × 4 graphs × 3 query ops all served from
        # 4 computations.
        stats = server.stats()
        assert stats["computes"] == len(FAMILIES)
        assert stats["graphs"] == len(FAMILIES)
        assert stats["cache_misses"] == len(FAMILIES)
        assert stats["cache_hits"] >= 8 * len(FAMILIES) * 3 - len(FAMILIES)
        assert 0.0 < stats["hit_rate"] < 1.0

    def test_distinct_graphs_distinct_digests(self, server):
        with ServiceClient(server.address) as client:
            digests = {
                client.put_graph(graph.n, graph.edges)
                for graph in (build(family) for family in FAMILIES)
            }
        assert len(digests) == len(FAMILIES)


class TestServiceSemantics:
    def test_unknown_digest_is_typed(self, server):
        with ServiceClient(server.address) as client:
            with pytest.raises(ServiceError, match="unknown graph digest"):
                client.components("nope")
            with pytest.raises(ServiceError, match="unknown graph digest"):
                client.connected("nope", [[0, 1]])

    def test_malformed_pairs_are_typed(self, server):
        graph = build("cycle")
        with ServiceClient(server.address) as client:
            digest = client.put_graph(graph.n, graph.edges)
            with pytest.raises(ServiceError, match="out of range"):
                client.connected(digest, [[0, graph.n + 5]])

    def test_put_graph_is_idempotent(self, server):
        graph = build("grid")
        with ServiceClient(server.address) as client:
            first = client.put_graph(graph.n, graph.edges)
            before = client.stats()["computes"]
            client.components(first)
            second = client.put_graph(graph.n, graph.edges)
            assert second == first
            client.components(second)
            assert client.stats()["computes"] == max(before, 1)

    def test_ping_and_stats(self, server):
        with ServiceClient(server.address) as client:
            assert client.ping()
            stats = client.stats()
            assert stats["engine"] == "liu_tarjan"
            assert stats["backend"] == "local"

    def test_connect_failure_is_typed(self, tmp_path):
        with pytest.raises(ServiceError, match="cannot connect"):
            ServiceClient(str(tmp_path / "nowhere.sock"), connect_timeout=0.5)

    def test_call_timeout_is_typed(self, server):
        # Clog the single-thread compute executor so a components query
        # for an uncached graph cannot possibly be answered in time:
        # the client must surface the typed timeout, never hang.
        release = threading.Event()
        server._executor.submit(release.wait)
        big = Workload("permutation_regular", 256, {"degree": 6}).build(7)
        slow = ServiceClient(server.address, call_timeout=0.3)
        try:
            digest = slow.put_graph(big.n, big.edges)
            with pytest.raises(RpcTimeoutError):
                slow.components(digest)
        finally:
            release.set()
            slow.close()

    def test_close_stops_loop_thread_and_removes_socket_dir(self):
        srv = ServiceServer(engine="liu_tarjan", config=CONFIG, seed=SEED)
        srv.start()
        thread, socket_dir = srv._thread, os.path.dirname(srv.address)
        with ServiceClient(srv.address) as client:
            assert client.ping()
        assert thread.is_alive() and os.path.isdir(socket_dir)
        srv.close()
        assert not thread.is_alive()
        assert not os.path.exists(socket_dir)


class TestBackendsBehindService:
    def test_unstarted_server_reports_its_backend(self):
        for spec in ("rpc", "sharded", "process"):
            srv = ServiceServer(backend=spec)
            try:
                assert srv.stats()["backend"] == spec
            finally:
                srv.close()
        assert ServiceServer().stats()["backend"] == "local"

    def test_service_over_rpc_backend_matches_local(self):
        # Exponentiation's sorts and reduces cross the wire (search and
        # the min-label level run in the parent on every backend).
        graph = build("dumbbell")
        ref = reference_labels(graph, engine="exponentiation")
        backend = RpcBackend(workers=2, min_wire_items=0)
        try:
            with ServiceServer(
                engine="exponentiation", backend=backend, config=CONFIG,
                seed=SEED,
            ) as srv:
                with ServiceClient(srv.address) as client:
                    digest = client.put_graph(graph.n, graph.edges)
                    labels = client.components(digest)
                    assert np.array_equal(labels, ref)
                    stats = client.stats()
                    assert stats["backend"] == "rpc"
            # The caller owns an instance backend: still open after the
            # server closed, and it really did push frames.
            assert backend.transport_stats()["op_frames"] > 0
        finally:
            backend.close()


class TestStreamingDigestReuse:
    def test_streaming_prefix_digest_hits_service_cache(self, server):
        graph = build("cycle")
        stream = StreamingConnectivity(graph.n, rng=SEED)
        stream.apply_edges(graph.edges)
        snapshot = stream.current_graph()
        with ServiceClient(server.address) as client:
            digest = client.put_graph(snapshot.n, snapshot.edges)
            # The maintainer's materialisation is deterministic, so its
            # digest is the service's cache key verbatim.
            assert stream.graph_digest() == digest
            labels = client.components(digest)
            before = client.stats()
            # Re-querying through the stream's own digest is a pure
            # cache hit — no recompute for an already-served multiset.
            assert np.array_equal(
                client.components(stream.graph_digest()), labels
            )
            after = client.stats()
        assert after["computes"] == before["computes"]
        assert after["cache_hits"] > before["cache_hits"]
        assert np.array_equal(np.sort(np.unique(labels)), np.unique(labels))
