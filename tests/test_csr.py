"""Property and unit tests for the frozen zero-copy CSR index.

The executor stack ships :class:`~repro.graph.CSRIndex` arrays through
``ShmArena`` pinning and wire-level digest dedup, so the invariants here
are load-bearing for the whole CSR fast path: exact edge-list
round-trips, the ``indptr[-1] == 2m`` slot accounting, sorted neighbour
runs, the read-only/owning zero-copy contract, and build determinism —
on generated inputs covering empty graphs, isolated vertices,
duplicate/parallel edges, and self-loops.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graph import (
    CSRIndex,
    Graph,
    build_csr_arrays,
)

common_settings = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def edges_strategy(n: int, max_edges: int = 60):
    """Arbitrary endpoint pairs in [0, n): duplicates and loops included."""
    return st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        max_size=max_edges,
    )


def draw_edges(data, n) -> np.ndarray:
    return np.array(
        data.draw(edges_strategy(n)) or [], dtype=np.int64
    ).reshape(-1, 2)


# ---------------------------------------------------------------------------
# Hypothesis properties
# ---------------------------------------------------------------------------


@common_settings
@given(n=st.integers(1, 24), data=st.data())
def test_round_trip_is_exact(n, data):
    """to_edges() recovers the input edge list bit for bit — same edge
    ids, same endpoint order within each row, not just the same multiset."""
    edges = draw_edges(data, n)
    index = CSRIndex.from_edges(n, edges)
    assert np.array_equal(index.to_edges(), edges)


@common_settings
@given(n=st.integers(1, 24), data=st.data())
def test_slot_accounting(n, data):
    """indptr[-1] == 2m == len(indices) == len(halfedges); the slot
    multiset is exactly the directed-incidence multiset."""
    edges = draw_edges(data, n)
    index = CSRIndex.from_edges(n, edges)
    m = edges.shape[0]
    assert index.m == m
    assert index.indptr.shape == (n + 1,)
    assert index.indptr[0] == 0
    assert index.indptr[-1] == 2 * m
    assert index.indices.shape == (2 * m,)
    assert index.halfedges.shape == (2 * m,)
    assert int(index.degrees.sum()) == 2 * m
    # Each half-edge id appears exactly once.
    assert np.array_equal(np.sort(index.halfedges), np.arange(2 * m))
    # (owner, head) multiset == directed incidences of the edge list.
    owner = index.slot_owners()
    got = np.sort(owner * n + index.indices)
    want = np.sort(
        np.concatenate([edges[:, 0] * n + edges[:, 1],
                        edges[:, 1] * n + edges[:, 0]])
    )
    assert np.array_equal(got, want)


@common_settings
@given(n=st.integers(1, 24), data=st.data())
def test_neighbour_runs_are_sorted(n, data):
    edges = draw_edges(data, n)
    index = CSRIndex.from_edges(n, edges)
    for v in range(n):
        run = index.neighbors(v)
        assert np.all(run[:-1] <= run[1:])


@common_settings
@given(n=st.integers(1, 24), data=st.data())
def test_build_is_deterministic(n, data):
    """Two builds of the same edge list are bit-identical — the layout
    is a pure function of the input, never of memory or hash order."""
    edges = draw_edges(data, n)
    a = build_csr_arrays(edges, n)
    b = build_csr_arrays(edges, n)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


@common_settings
@given(n=st.integers(1, 24), data=st.data())
def test_zero_copy_contract(n, data):
    """Every array is read-only, C-contiguous int64 owning its data —
    the exact preconditions of ShmArena read-only pinning."""
    edges = draw_edges(data, n)
    index = CSRIndex.from_edges(n, edges)
    for array in (index.indptr, index.indices, index.halfedges):
        assert array.dtype == np.int64
        assert array.flags.c_contiguous
        assert array.base is None
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[:1] = 0


@common_settings
@given(n=st.integers(1, 20), data=st.data())
def test_matches_graph_core(n, data):
    """Degrees and per-vertex neighbour multisets agree with Graph."""
    edges = draw_edges(data, n)
    index = CSRIndex.from_edges(n, edges)
    g = Graph(n, edges)
    assert np.array_equal(index.degrees, g.degrees)
    for v in range(n):
        assert sorted(index.neighbors(v).tolist()) == sorted(
            g.neighbors(v).tolist()
        )


# ---------------------------------------------------------------------------
# Edge-case units: the generator shapes that bit us
# ---------------------------------------------------------------------------


class TestEdgeCases:
    def test_empty_graph(self):
        index = CSRIndex.from_edges(4, np.empty((0, 2), dtype=np.int64))
        assert index.m == 0
        assert index.indptr.tolist() == [0] * 5
        assert index.to_edges().shape == (0, 2)

    def test_zero_vertices(self):
        index = CSRIndex.from_edges(0, np.empty((0, 2), dtype=np.int64))
        assert index.n == 0 and index.m == 0
        assert index.indptr.tolist() == [0]

    def test_flat_empty_input_reshaped(self):
        # Generators sometimes hand over np.array([]) for edgeless graphs.
        index = CSRIndex.from_edges(3, np.array([], dtype=np.int64))
        assert index.m == 0

    def test_isolated_vertices_get_empty_runs(self):
        index = CSRIndex.from_edges(5, np.array([[1, 3]]))
        assert index.degrees.tolist() == [0, 1, 0, 1, 0]
        for v in (0, 2, 4):
            assert index.neighbors(v).size == 0

    def test_self_loop_two_slots_same_row(self):
        index = CSRIndex.from_edges(2, np.array([[0, 0]]))
        assert index.degrees.tolist() == [2, 0]
        assert index.neighbors(0).tolist() == [0, 0]
        assert np.array_equal(index.to_edges(), [[0, 0]])

    def test_parallel_edges_keep_their_slots(self):
        edges = np.array([[0, 1], [0, 1], [1, 0]])
        index = CSRIndex.from_edges(2, edges)
        assert index.degrees.tolist() == [3, 3]
        assert index.neighbors(0).tolist() == [1, 1, 1]
        assert np.array_equal(index.to_edges(), edges)

    def test_edge_ids_pair_half_edges(self):
        edges = np.array([[0, 1], [1, 2], [2, 2]])
        index = CSRIndex.from_edges(3, edges)
        counts = np.bincount(index.edge_ids, minlength=3)
        assert counts.tolist() == [2, 2, 2]

    def test_nbytes_counts_all_three_arrays(self):
        index = CSRIndex.from_edges(3, np.array([[0, 1]]))
        assert index.nbytes == (4 + 2 + 2) * 8


class TestValidation:
    def test_rejects_bad_edge_shape(self):
        with pytest.raises(ValueError):
            build_csr_arrays(np.array([[0, 1, 2]]), 3)

    def test_rejects_out_of_range_endpoints(self):
        with pytest.raises(ValueError):
            build_csr_arrays(np.array([[0, 2]]), 2)
        with pytest.raises(ValueError):
            build_csr_arrays(np.array([[-1, 0]]), 2)

    def test_adopt_rejects_bad_indptr(self):
        index = CSRIndex.from_edges(3, np.array([[0, 1]]))
        bad = index.indptr[:-1].copy()
        with pytest.raises(ValueError):
            CSRIndex.adopt(3, bad, index.indices, index.halfedges)
        decreasing = np.array([0, 2, 1, 2], dtype=np.int64)
        with pytest.raises(ValueError):
            CSRIndex.adopt(3, decreasing, index.indices, index.halfedges)

    def test_adopt_rejects_odd_slot_count(self):
        indptr = np.array([0, 1], dtype=np.int64)
        one = np.zeros(1, dtype=np.int64)
        with pytest.raises(ValueError):
            CSRIndex.adopt(1, indptr, one, one)

    def test_adopt_rejects_out_of_range_values(self):
        index = CSRIndex.from_edges(2, np.array([[0, 1]]))
        bad = np.array([0, 5], dtype=np.int64)
        with pytest.raises(ValueError):
            CSRIndex.adopt(2, index.indptr, bad, index.halfedges)


class TestAdoptAliasing:
    def test_adopt_frozen_arrays_is_zero_copy(self):
        index = CSRIndex.from_edges(4, np.array([[0, 1], [2, 3]]))
        again = CSRIndex.adopt(
            4, index.indptr, index.indices, index.halfedges
        )
        assert again.indptr is index.indptr
        assert again.indices is index.indices
        assert again.halfedges is index.halfedges

    def test_adopt_writeable_arrays_copies_and_freezes(self):
        """Replayed plan outputs are writeable: adoption must defensively
        copy so later caller mutations cannot corrupt the frozen index."""
        indptr, indices, halfedges = build_csr_arrays(
            np.array([[0, 1], [1, 2]]), 3
        )
        w_indices = indices.copy()  # writeable
        index = CSRIndex.adopt(3, indptr, w_indices, halfedges)
        assert not index.indices.flags.writeable
        assert index.indices is not w_indices
        w_indices[0] = 2
        assert index.indices[0] != 2 or indices[0] == 2

    def test_from_graph_matches_from_edges(self):
        g = Graph(5, [(0, 1), (1, 2), (2, 2), (3, 4)])
        a = CSRIndex.from_graph(g)
        b = CSRIndex.from_edges(g.n, g.edges)
        assert np.array_equal(a.indptr, b.indptr)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.halfedges, b.halfedges)
