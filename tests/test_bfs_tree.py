"""Tests for the broadcast spanning-tree stage (Claim 6.14)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import broadcast_components
from repro.graph import (
    Graph,
    DisjointSetUnion,
    components_agree,
    connected_components,
    cycle_graph,
    diameter,
    paper_random_graph,
    path_graph,
    permutation_regular_graph,
)
from repro.bench.workloads import Workload, family_names
from repro.mpc import (
    LocalBackend,
    MPCEngine,
    ProcessBackend,
    RpcBackend,
    ShardedBackend,
    content_digest,
)


class TestCorrectness:
    def test_single_component(self):
        g = cycle_graph(10)
        result = broadcast_components(10, g.edges)
        assert np.all(result.labels == 0)

    def test_multiple_components(self):
        g = Graph(6, [(0, 1), (1, 2), (3, 4)])
        result = broadcast_components(6, g.edges)
        assert components_agree(result.labels, connected_components(g))

    def test_no_edges(self):
        result = broadcast_components(4, np.empty((0, 2)))
        assert np.array_equal(result.labels, np.arange(4))
        assert result.rounds == 0

    def test_self_loops_ignored(self):
        result = broadcast_components(2, np.array([(0, 0), (0, 1)]))
        assert result.labels[0] == result.labels[1]

    @pytest.mark.parametrize("seed", range(5))
    def test_random_graphs_match_reference(self, seed):
        g = paper_random_graph(100, 6, rng=seed)
        result = broadcast_components(100, g.edges)
        assert components_agree(result.labels, connected_components(g))


class TestSpanningTree:
    def test_tree_edge_count(self):
        g = permutation_regular_graph(50, 6, rng=0)
        result = broadcast_components(50, g.edges)
        # Connected: n-1 tree edges.
        assert result.tree_edges.size == 49

    def test_tree_is_acyclic_and_spanning(self):
        g = paper_random_graph(120, 8, rng=1)
        result = broadcast_components(120, g.edges)
        dsu = DisjointSetUnion(120)
        for eid in result.tree_edges.tolist():
            u, v = g.edges[eid]
            assert dsu.union(int(u), int(v)), "cycle"
        assert components_agree(dsu.labels(), connected_components(g))

    def test_forest_across_components(self):
        g = Graph(7, [(0, 1), (1, 2), (3, 4), (4, 5), (3, 5)])
        result = broadcast_components(7, g.edges)
        # 3 components (one isolated vertex): 7 - 3 = 4 tree edges.
        assert result.tree_edges.size == 4


class TestRounds:
    def test_rounds_bounded_by_diameter(self):
        """The wave from the component minimum takes at most the
        eccentricity of the minimum vertex, ≤ diameter."""
        g = cycle_graph(20)
        result = broadcast_components(20, g.edges)
        assert result.rounds <= diameter(g) + 1

    def test_path_rounds_linear(self):
        g = path_graph(30)
        result = broadcast_components(30, g.edges)
        assert result.rounds == 29  # min label 0 sits at one end

    def test_expander_rounds_logarithmic(self):
        g = permutation_regular_graph(500, 8, rng=2)
        result = broadcast_components(500, g.edges)
        assert result.rounds <= 8

    def test_engine_charged_per_level(self):
        g = path_graph(10)
        engine = MPCEngine(1000)
        result = broadcast_components(10, g.edges, engine=engine)
        assert engine.rounds == result.rounds

    def test_max_rounds_guard(self):
        g = path_graph(50)
        with pytest.raises(RuntimeError):
            broadcast_components(50, g.edges, max_rounds=3)


@st.composite
def multigraphs(draw):
    """Small multigraphs: self-loops, parallel edges, isolated vertices,
    and the single-vertex graph."""
    n = draw(st.integers(min_value=1, max_value=30))
    endpoint = st.integers(min_value=0, max_value=n - 1)
    edges = draw(st.lists(st.tuples(endpoint, endpoint), max_size=50))
    return n, np.array(edges, dtype=np.int64).reshape(-1, 2)


class TestEngineIndependence:
    @settings(max_examples=60, deadline=None)
    @given(graph=multigraphs(),
           stop_after=st.one_of(st.none(), st.integers(0, 3)))
    def test_same_result_without_and_with_an_engine(self, graph, stop_after):
        """A bare call (on a throwaway local engine) and a caller's
        engine give the same labels, rounds and tree, on any data
        plane."""
        n, edges = graph
        bare = broadcast_components(n, edges, stop_after=stop_after)
        for backend in (LocalBackend(), ShardedBackend()):
            engine = MPCEngine(16, backend=backend)
            result = broadcast_components(
                n, edges, engine=engine, stop_after=stop_after
            )
            assert np.array_equal(result.labels, bare.labels)
            assert result.rounds == bare.rounds
            assert np.array_equal(result.tree_edges, bare.tree_edges)


# ---------------------------------------------------------------------------
# Golden trees: which delivering edge each vertex records
# ---------------------------------------------------------------------------


#: Per family: digests of ``tree_edges`` and ``labels``, rounds, and the
#: exchanges and bytes of a 64-word fleet, recorded when each level was
#: a CSR fold (which an independent sort-layout reference matched).
BROADCAST_GOLDEN = {
    "complete": ("c4c67c67ece2f185adf00512", "726839811188f24ed62bab00", 1, 2, 0),
    "cycle": ("2c0227b4ce7002ff4965a2f4", "798e3b5bd772bd86a2aba37c", 48, 49, 3136),
    "dumbbell": ("aa06e6209b012eca22d4facf", "798e3b5bd772bd86a2aba37c", 6, 7, 13216),
    "erdos_renyi": ("d4794bc207c274dd2b6296a6", "798e3b5bd772bd86a2aba37c", 5, 6, 16224),
    "expander_path": ("d3c4d3ceedf8beb2eddebda0", "798e3b5bd772bd86a2aba37c", 21, 22, 14784),
    "grid": ("60dfc192786f4beda7505af7", "b3e55a8527cc8b75250b78c7", 18, 19, 5168),
    "hypercube": ("9ffae0adf343b937a55f19e1", "726839811188f24ed62bab00", 6, 7, 0),
    "paper_random": ("3ed2d1d0c001733535dc8112", "798e3b5bd772bd86a2aba37c", 4, 5, 19760),
    "path": ("58ee08614f9a4a8ee918a4fe", "798e3b5bd772bd86a2aba37c", 95, 96, 4608),
    "permutation_regular": ("055975ecabbf58775ff49404", "798e3b5bd772bd86a2aba37c", 4, 5, 16320),
    "ring_of_expanders": ("e8592c149a06d17d3260bc66", "798e3b5bd772bd86a2aba37c", 12, 13, 8944),
    "star": ("58ee08614f9a4a8ee918a4fe", "798e3b5bd772bd86a2aba37c", 1, 2, 1536),
}


def multigraph_family(family: str):
    """The family at laptop size with every fifth vertex carrying a
    self-loop pair, every seventh edge doubled and every third reversed,
    shuffled: ties between parallel deliveries decide the tree."""
    graph = Workload(family, {"complete": 64, "hypercube": 64}.get(family, 96)).build(23)
    edges = graph.edges
    loops = np.repeat(np.arange(0, graph.n, 5, dtype=np.int64), 2).reshape(-1, 2)
    extra = np.concatenate([edges, loops, edges[::7], edges[::3, ::-1]])
    return graph.n, extra[np.random.default_rng(23).permutation(extra.shape[0])]


class TestGoldenTree:
    def test_small_multigraph_tree(self):
        """Self-loops, parallel and reversed copies, and an isolated
        vertex.  Each improved vertex keeps its largest delivering
        position ``p`` of ``u ⧺ v`` (tree edge ``p mod m``): vertex 1 the
        later copy of ``(0, 1)`` (edge 4), and vertices 2, 5 and 6 the
        reversed copies (edges 2, 7 and 10), whose deliveries sit in the
        second half."""
        edges = np.array(
            [(0, 0), (1, 2), (2, 1), (0, 1), (0, 1), (3, 3),
             (4, 5), (5, 4), (1, 2), (2, 6), (6, 2), (5, 5)],
            dtype=np.int64,
        )
        result = broadcast_components(8, edges)
        assert result.labels.tolist() == [0, 0, 0, 1, 2, 2, 0, 3]
        assert result.tree_edges.tolist() == [4, 2, 7, 10]
        assert result.rounds == 3

    @pytest.mark.parametrize("family", family_names())
    def test_family_tree_matches_parent(self, family):
        """The same tree, labels and rounds on every data plane, and the
        recorded exchanges and bytes on every enforced one."""
        tree, labels, rounds, exchanges, nbytes = BROADCAST_GOLDEN[family]
        n, edges = multigraph_family(family)
        backends = {
            "local": LocalBackend(),
            "sharded": ShardedBackend(),
            "process": ProcessBackend(workers=2, min_parallel_items=0),
            "rpc": RpcBackend(workers=2, min_wire_items=0),
        }
        try:
            for name, backend in backends.items():
                engine = MPCEngine(64, backend=backend)
                result = broadcast_components(n, edges, engine=engine)
                assert content_digest(result.tree_edges) == tree, name
                assert content_digest(result.labels) == labels, name
                assert result.rounds == rounds, name
                if name != "local":
                    stats = backend.stats()
                    assert (stats.exchanges, stats.bytes_exchanged) == (
                        exchanges, nbytes
                    ), name
        finally:
            for backend in backends.values():
                backend.close()
