"""Tests for spectral-gap machinery (Section 2.1)."""

import numpy as np
import pytest

from repro.graph import (
    Graph,
    cheeger_bounds,
    complete_graph,
    component_spectral_gaps,
    cycle_graph,
    dumbbell_graph,
    is_connected_via_gap,
    laplacian_spectrum,
    min_component_spectral_gap,
    normalized_adjacency,
    normalized_laplacian,
    path_graph,
    permutation_regular_graph,
    planted_expander_components,
    spectral_gap,
)


class TestLaplacian:
    def test_spectrum_range(self):
        g = permutation_regular_graph(40, 6, rng=0)
        spec = laplacian_spectrum(g)
        assert spec[0] == pytest.approx(0.0, abs=1e-8)
        assert spec[-1] <= 2.0 + 1e-9

    def test_isolated_vertex_rejected(self):
        with pytest.raises(ValueError):
            normalized_laplacian(Graph(2, [(0, 0)]))

    def test_normalized_adjacency_symmetric(self):
        g = Graph(3, [(0, 1), (1, 2), (0, 1)])
        mat = normalized_adjacency(g).toarray()
        assert np.allclose(mat, mat.T)

    def test_zero_eigenvalue_multiplicity_counts_components(self):
        g = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        spec = laplacian_spectrum(g)
        assert np.sum(np.abs(spec) < 1e-8) == 2


class TestSpectralGap:
    def test_complete_graph_gap(self):
        # λ₂(K_n) = n/(n-1).
        n = 8
        assert spectral_gap(complete_graph(n)) == pytest.approx(n / (n - 1), rel=1e-6)

    def test_cycle_gap(self):
        # λ₂(C_n) = 1 - cos(2π/n).
        n = 12
        assert spectral_gap(cycle_graph(n)) == pytest.approx(
            1 - np.cos(2 * np.pi / n), rel=1e-6
        )

    def test_path_gap_small(self):
        assert spectral_gap(path_graph(50)) < 0.01

    def test_expander_gap_large(self):
        g = permutation_regular_graph(200, 10, rng=1)
        assert spectral_gap(g) > 0.2

    def test_disconnected_raises(self):
        with pytest.raises(ValueError):
            spectral_gap(Graph(4, [(0, 1), (2, 3)]))

    def test_single_vertex_convention(self):
        assert spectral_gap(Graph(1, [(0, 0)])) == 1.0

    def test_sparse_path_matches_dense(self):
        """The Lanczos path (n > threshold) agrees with the dense solver."""
        g = permutation_regular_graph(700, 8, rng=2)
        sparse_gap = spectral_gap(g)
        dense_spec = laplacian_spectrum(g)
        assert sparse_gap == pytest.approx(float(dense_spec[1]), abs=1e-5)

    def test_sparse_path_is_repeatable(self):
        """The Lanczos path starts from a fixed vector, so the gap is a
        function of the graph alone: repeated calls are bit-identical."""
        g = permutation_regular_graph(700, 8, rng=0)
        gaps = [spectral_gap(g) for _ in range(3)]
        assert gaps[0] == gaps[1] == gaps[2]
        assert abs(gaps[0] - float(laplacian_spectrum(g)[1])) < 1e-9

    def test_gap_shrinks_with_weaker_bridge(self):
        strong = dumbbell_graph(40, 8, bridges=20, rng=0)
        weak = dumbbell_graph(40, 8, bridges=1, rng=0)
        assert spectral_gap(weak) < spectral_gap(strong)


class TestComponentGaps:
    def test_per_component(self):
        g, _ = planted_expander_components([30, 40], 8, rng=0)
        gaps = component_spectral_gaps(g)
        assert len(gaps) == 2
        assert all(gap > 0.1 for gap in gaps)

    def test_min_component_gap(self):
        g, _ = planted_expander_components([30, 40], 8, rng=0)
        assert min_component_spectral_gap(g) == pytest.approx(
            min(component_spectral_gaps(g)), abs=1e-12
        )

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            min_component_spectral_gap(Graph(0, []))


class TestTwoSidedGap:
    def test_bipartite_has_zero_two_sided_gap(self):
        # C_4 is bipartite: μ_n = -1, so the two-sided gap vanishes even
        # though λ₂ > 0.
        from repro.graph import two_sided_spectral_gap

        g = cycle_graph(4)
        assert two_sided_spectral_gap(g) == pytest.approx(0.0, abs=1e-9)
        assert spectral_gap(g) > 0.5

    def test_never_exceeds_one_sided(self):
        from repro.graph import two_sided_spectral_gap

        for seed in range(3):
            g = permutation_regular_graph(40, 8, rng=seed)
            assert two_sided_spectral_gap(g) <= spectral_gap(g) + 1e-9

    def test_single_vertex(self):
        from repro.graph import two_sided_spectral_gap

        assert two_sided_spectral_gap(Graph(1, [(0, 0)])) == 1.0


class TestCheeger:
    def test_bounds_ordering(self):
        low, high = cheeger_bounds(0.5)
        assert low == pytest.approx(0.25)
        assert high == pytest.approx(1.0)
        assert low <= high

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            cheeger_bounds(2.5)


class TestGapConnectivityEquivalence:
    def test_connected_iff_positive_gap(self):
        connected = permutation_regular_graph(30, 6, rng=0)
        disconnected = Graph(4, [(0, 1), (2, 3)])
        assert is_connected_via_gap(connected)
        assert not is_connected_via_gap(disconnected)
