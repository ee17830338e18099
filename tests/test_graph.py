"""Tests for the CSR multigraph core."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import Graph, disjoint_union


def small_triangle():
    return Graph(3, [(0, 1), (1, 2), (2, 0)])


class TestConstruction:
    def test_empty(self):
        g = Graph(4, [])
        assert g.n == 4
        assert g.m == 0
        assert g.max_degree == 0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(2, [(0, 2)])
        with pytest.raises(ValueError):
            Graph(2, [(-1, 0)])

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            Graph(3, np.array([[0, 1, 2]]))

    def test_edges_are_readonly(self):
        g = small_triangle()
        with pytest.raises(ValueError):
            g.edges[0, 0] = 5

    def test_input_copy_is_defensive(self):
        edges = np.array([[0, 1]], dtype=np.int64)
        g = Graph(2, edges)
        edges[0, 0] = 1
        assert g.edges[0, 0] == 0


class TestDegreesAndNeighbors:
    def test_triangle_degrees(self):
        g = small_triangle()
        assert list(g.degrees) == [2, 2, 2]

    def test_self_loop_counts_two(self):
        g = Graph(2, [(0, 0), (0, 1)])
        assert g.degree(0) == 3
        assert g.degree(1) == 1
        assert g.self_loop_count == 1

    def test_parallel_edges_counted(self):
        g = Graph(2, [(0, 1), (0, 1), (1, 0)])
        assert g.degree(0) == 3
        assert g.parallel_edge_count == 2

    def test_neighbors_with_multiplicity(self):
        g = Graph(3, [(0, 1), (0, 1), (0, 2)])
        assert sorted(g.neighbors(0).tolist()) == [1, 1, 2]

    def test_port_neighbor(self):
        g = Graph(3, [(0, 1), (0, 2)])
        ports = [g.port_neighbor(0, i) for i in range(g.degree(0))]
        assert sorted(ports) == [1, 2]
        with pytest.raises(IndexError):
            g.port_neighbor(0, 2)

    def test_degree_sum_is_twice_m(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 2), (3, 0)])
        assert int(g.degrees.sum()) == 2 * g.m


class TestTwinSlots:
    def test_twin_is_involution(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (1, 3), (2, 2)])
        twins = g.twin_slot
        assert np.array_equal(twins[twins], np.arange(2 * g.m))

    def test_twin_reverses_direction(self):
        g = Graph(4, [(0, 1), (1, 2), (0, 2), (0, 3)])
        indptr, heads, twins = g.indptr, g.heads, g.twin_slot
        # Vertex owning a slot: searchsorted over indptr.
        owner = np.searchsorted(indptr, np.arange(2 * g.m), side="right") - 1
        for s in range(2 * g.m):
            t = twins[s]
            assert heads[s] == owner[t]
            assert heads[t] == owner[s]

    def test_twin_same_edge_id(self):
        g = Graph(3, [(0, 1), (1, 2), (0, 2)])
        ids = g.slot_edge_id
        assert np.array_equal(ids, ids[g.twin_slot])


class TestPredicates:
    def test_regular(self):
        g = small_triangle()
        assert g.is_regular()
        assert g.is_regular(2)
        assert not g.is_regular(3)

    def test_not_regular(self):
        assert not Graph(3, [(0, 1)]).is_regular()

    def test_almost_regular(self):
        g = Graph(3, [(0, 1), (1, 2), (2, 0), (0, 1)])
        # Degrees 3, 3, 2: (1±0.25)*2.66 covers [2, 3.33].
        assert g.is_almost_regular(8 / 3, 0.25)
        assert not g.is_almost_regular(8 / 3, 0.01)


class TestTransformations:
    def test_with_self_loops_degree(self):
        g = small_triangle().with_self_loops(2)
        assert g.is_regular(6)
        assert g.self_loop_count == 6

    def test_simplify_drops_loops_and_duplicates(self):
        g = Graph(3, [(0, 1), (1, 0), (2, 2), (0, 1)])
        s = g.simplify()
        assert s.m == 1
        assert s.self_loop_count == 0

    def test_relabel_contraction(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        mapping = np.array([0, 0, 1, 1])
        contracted = g.relabel(mapping, new_n=2)
        assert contracted.n == 2
        assert contracted.m == 3  # one self-loop at 0, one at 1, one crossing
        assert contracted.self_loop_count == 2

    def test_relabel_shape_check(self):
        with pytest.raises(ValueError):
            small_triangle().relabel(np.array([0, 1]))

    def test_subgraph(self):
        g = Graph(5, [(0, 1), (1, 2), (3, 4)])
        sub, verts = g.subgraph(np.array([0, 1, 2]))
        assert sub.n == 3
        assert sub.m == 2
        assert verts.tolist() == [0, 1, 2]

    def test_subgraph_excludes_crossing_edges(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        sub, _ = g.subgraph(np.array([1, 2]))
        assert sub.m == 1


class TestAdjacency:
    def test_adjacency_symmetric(self):
        g = Graph(3, [(0, 1), (1, 2), (0, 1)])
        adj = g.adjacency_matrix().toarray()
        assert np.array_equal(adj, adj.T)
        assert adj[0, 1] == 2

    def test_self_loop_diagonal_two(self):
        g = Graph(1, [(0, 0)])
        assert g.adjacency_matrix().toarray()[0, 0] == 2

    def test_row_sums_are_degrees(self):
        g = Graph(4, [(0, 1), (1, 1), (2, 3), (3, 0), (0, 2)])
        adj = g.adjacency_matrix()
        assert np.array_equal(np.asarray(adj.sum(axis=1)).ravel(), g.degrees)


class TestEquality:
    def test_equal_up_to_edge_order(self):
        a = Graph(3, [(0, 1), (1, 2)])
        b = Graph(3, [(2, 1), (1, 0)])
        assert a == b

    def test_multiplicity_matters(self):
        a = Graph(2, [(0, 1)])
        b = Graph(2, [(0, 1), (0, 1)])
        assert a != b

    def test_endpoints_stay_paired(self):
        """Sorting the edge columns independently made these equal."""
        assert Graph(4, [(0, 3), (1, 2)]) != Graph(4, [(0, 2), (1, 3)])

    def test_multigraph_equals_its_permuted_reorientation(self):
        edges = np.array(
            [(0, 1), (0, 1), (2, 2), (3, 1), (2, 0), (3, 3), (1, 0)], dtype=np.int64
        )
        rng = np.random.default_rng(0)
        shuffled = edges[rng.permutation(edges.shape[0])]
        flip = rng.random(edges.shape[0]) < 0.5
        shuffled[flip] = shuffled[flip][:, ::-1]
        assert Graph(4, edges) == Graph(4, shuffled)
        assert Graph(4, edges) == Graph(4, edges[::-1, ::-1])

    def test_same_edges_different_multiplicities_differ(self):
        # Equal support, m and endpoint columns; only the multiplicities
        # of the four edges differ.
        a = Graph(4, [(0, 3), (0, 3), (1, 2), (1, 2), (0, 2), (1, 3)])
        b = Graph(4, [(0, 3), (1, 2), (0, 2), (0, 2), (1, 3), (1, 3)])
        assert a.m == b.m and a != b


class TestDisjointUnion:
    def test_offsets_and_sizes(self):
        g1 = small_triangle()
        g2 = Graph(2, [(0, 1)])
        union, offsets = disjoint_union([g1, g2])
        assert union.n == 5
        assert union.m == 4
        assert offsets.tolist() == [0, 3, 5]

    def test_no_cross_edges(self):
        g1 = small_triangle()
        g2 = Graph(2, [(0, 1)])
        union, offsets = disjoint_union([g1, g2])
        for u, v in union.edges.tolist():
            assert (u < 3) == (v < 3)

    def test_empty_list(self):
        union, offsets = disjoint_union([])
        assert union.n == 0
        assert offsets.tolist() == [0]


class TestDegenerateShapes:
    """Zero-sized and all-degenerate inputs the executor stack now leans
    on (CSR builds run on every graph the pipeline touches)."""

    def test_zero_vertex_graph(self):
        g = Graph(0, [])
        assert g.n == 0 and g.m == 0 and g.max_degree == 0
        assert g.twin_slot.size == 0
        assert g.adjacency_matrix().shape == (0, 0)

    def test_subgraph_of_nothing(self):
        g = Graph(3, [(0, 1)])
        sub, verts = g.subgraph(np.array([], dtype=np.int64))
        assert sub.n == 0 and sub.m == 0
        assert verts.size == 0

    def test_relabel_everything_to_one_vertex(self):
        g = Graph(3, [(0, 1), (1, 2)])
        contracted = g.relabel(np.zeros(3, dtype=np.int64), new_n=1)
        assert contracted.n == 1
        assert contracted.m == 2
        assert contracted.self_loop_count == 2

    def test_simplify_pure_self_loop_graph(self):
        g = Graph(2, [(0, 0), (1, 1)])
        s = g.simplify()
        assert s.m == 0 and s.n == 2

    def test_self_loop_port_neighbors(self):
        g = Graph(1, [(0, 0)])
        assert g.degree(0) == 2
        assert [g.port_neighbor(0, p) for p in range(2)] == [0, 0]

    def test_subgraph_keeps_loops_and_multiplicity(self):
        g = Graph(4, [(1, 1), (1, 2), (1, 2)])
        sub, _ = g.subgraph(np.array([1, 2]))
        assert sub.m == 3
        assert sub.self_loop_count == 1
        assert sub.parallel_edge_count == 1


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(1, 30),
    data=st.data(),
)
def test_graph_invariants_random(n, data):
    """Degree-sum, twin-involution and adjacency symmetry on random inputs."""
    m = data.draw(st.integers(0, 60))
    edges = data.draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            min_size=m,
            max_size=m,
        )
    )
    g = Graph(n, edges)
    assert int(g.degrees.sum()) == 2 * g.m
    twins = g.twin_slot
    assert np.array_equal(twins[twins], np.arange(2 * g.m))
    adj = g.adjacency_matrix().toarray()
    assert np.array_equal(adj, adj.T)
