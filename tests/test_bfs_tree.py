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
from repro.mpc import LocalBackend, MPCEngine, ShardedBackend


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
