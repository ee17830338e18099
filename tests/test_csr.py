"""Property and unit tests for the Graph's frozen CSR arrays.

The min-label broadcast and the Liu–Tarjan engine bind
:attr:`Graph.indptr`, :attr:`Graph.heads` and :attr:`Graph.halfedges`
as they are, and ``ShmArena`` pinning and the RPC wire's digest dedup
ship them, so the invariants here are load-bearing for every CSR
gather: the ``indptr[-1] == 2m`` slot accounting, rows in port order,
exact edge-list round-trips, the read-only/owning zero-copy contract,
and build determinism — on generated inputs covering empty graphs,
isolated vertices, duplicate/parallel edges, and self-loops.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graph import Graph

common_settings = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def multigraph_inputs(draw):
    """``(n, edges)`` with self-loops, parallel edges and isolated
    vertices; ``n`` may be 0."""
    n = draw(st.integers(0, 24))
    pairs = []
    if n:
        pairs = draw(
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                max_size=60,
            )
        )
    return n, np.array(pairs, dtype=np.int64).reshape(-1, 2)


def slot_owners(g: Graph) -> np.ndarray:
    return np.repeat(np.arange(g.n), g.degrees)


# ---------------------------------------------------------------------------
# Hypothesis properties
# ---------------------------------------------------------------------------


@common_settings
@given(multigraph_inputs())
def test_round_trip_is_exact(drawn):
    """The CSR arrays recover the input edge list bit for bit — same
    edge ids, same endpoint order within each row, not just the same
    multiset: half-edge ``2e`` sits in row ``u`` with head ``v``."""
    n, edges = drawn
    g = Graph(n, edges)
    forward = (g.halfedges & 1) == 0
    rebuilt = np.empty_like(edges)
    rebuilt[g.halfedges[forward] >> 1] = np.column_stack(
        [slot_owners(g)[forward], g.heads[forward]]
    )
    assert np.array_equal(rebuilt, edges)


@common_settings
@given(multigraph_inputs())
def test_slot_accounting(drawn):
    """``2m`` slots, one per half-edge: row ``v`` holds the half-edges
    leaving ``v`` in port (half-edge id) order, and each slot's head is
    the other endpoint of its half-edge."""
    n, edges = drawn
    g = Graph(n, edges)
    m = edges.shape[0]
    assert g.indptr.shape == (n + 1,) and g.indptr[0] == 0
    assert g.indptr[-1] == 2 * m == g.heads.size == g.halfedges.size
    assert int(g.degrees.sum()) == 2 * m
    half = g.halfedges
    assert np.array_equal(np.sort(half), np.arange(2 * m))
    owner = slot_owners(g)
    same_row = owner[1:] == owner[:-1]
    assert np.all(half[1:][same_row] > half[:-1][same_row])
    # Half-edge 2e runs u -> v, half-edge 2e + 1 runs v -> u.
    u, v = edges[half >> 1].T
    odd = (half & 1).astype(bool)
    assert np.array_equal(owner, np.where(odd, v, u))
    assert np.array_equal(g.heads, np.where(odd, u, v))


@common_settings
@given(multigraph_inputs())
def test_build_is_deterministic(drawn):
    """Two builds of the same edge list are bit-identical — the layout
    is a pure function of the input, never of memory or hash order."""
    a = Graph(*drawn)
    b = Graph(*drawn)
    for name in ("indptr", "heads", "halfedges"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


@common_settings
@given(multigraph_inputs())
def test_zero_copy_contract(drawn):
    """``indptr``, ``heads`` and ``halfedges`` are the graph's own frozen
    buffers — C-contiguous int64, read-only and owning their data, the
    preconditions of ShmArena pinning — handed out as they are."""
    g = Graph(*drawn)
    for name in ("indptr", "heads", "halfedges"):
        array = getattr(g, name)
        assert array is getattr(g, name)
        assert array.dtype == np.int64
        assert array.flags.c_contiguous
        assert array.base is None
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[:1] = 0


# ---------------------------------------------------------------------------
# Edge-case units: the generator shapes that bit us
# ---------------------------------------------------------------------------


class TestEdgeCases:
    def test_empty_graph(self):
        g = Graph(4, np.empty((0, 2), dtype=np.int64))
        assert g.m == 0
        assert g.indptr.tolist() == [0] * 5
        assert g.heads.shape == (0,) and g.halfedges.shape == (0,)

    def test_zero_vertices(self):
        g = Graph(0, np.empty((0, 2), dtype=np.int64))
        assert g.n == 0 and g.m == 0
        assert g.indptr.tolist() == [0]

    def test_flat_empty_input_reshaped(self):
        # Generators sometimes hand over np.array([]) for edgeless graphs.
        g = Graph(3, np.array([], dtype=np.int64))
        assert g.m == 0
        assert g.edges.shape == (0, 2)
        assert g.indptr.tolist() == [0] * 4

    def test_isolated_vertices_get_empty_runs(self):
        g = Graph(5, np.array([[1, 3]]))
        assert g.degrees.tolist() == [0, 1, 0, 1, 0]
        for v in (0, 2, 4):
            assert g.neighbors(v).size == 0

    def test_self_loop_two_slots_same_row(self):
        g = Graph(2, np.array([[0, 0]]))
        assert g.degrees.tolist() == [2, 0]
        assert g.neighbors(0).tolist() == [0, 0]
        assert g.halfedges.tolist() == [0, 1]

    def test_parallel_edges_keep_their_slots(self):
        edges = np.array([[0, 1], [0, 1], [1, 0]])
        g = Graph(2, edges)
        assert g.degrees.tolist() == [3, 3]
        assert g.neighbors(0).tolist() == [1, 1, 1]
        # Row 0 holds 0 -> 1, 2 -> 3 and 5 (the reversed third edge),
        # row 1 their twins: one slot per copy of each edge.
        assert g.halfedges.tolist() == [0, 2, 5, 1, 3, 4]

    def test_edge_ids_pair_half_edges(self):
        g = Graph(3, np.array([[0, 1], [1, 2], [2, 2]]))
        counts = np.bincount(g.slot_edge_id, minlength=3)
        assert counts.tolist() == [2, 2, 2]


class TestValidation:
    def test_rejects_bad_edge_shape(self):
        with pytest.raises(ValueError):
            Graph(3, np.array([[0, 1, 2]]))

    def test_rejects_out_of_range_endpoints(self):
        with pytest.raises(ValueError):
            Graph(2, np.array([[0, 2]]))
        with pytest.raises(ValueError):
            Graph(2, np.array([[-1, 0]]))
