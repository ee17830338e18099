"""Tests for the replacement product (Section 4, Appendix C)."""

import numpy as np
import pytest

from repro.graph import (
    Graph,
    complete_graph,
    component_count,
    components_agree,
    connected_components,
    cycle_graph,
    dumbbell_graph,
    paper_random_graph,
    path_graph,
    permutation_regular_graph,
    spectral_gap,
    star_graph,
    two_sided_spectral_gap,
)
from repro.mpc import MPCEngine
from repro.products import (
    regular_graph_construction,
    replacement_product,
    zigzag_product,
)


def clouds_for(graph, d=4, seed=0):
    degrees = np.unique(np.asarray(graph.degrees)).tolist()
    return regular_graph_construction(degrees, d, rng=seed)


class TestStructure:
    def test_vertex_count_is_2m(self):
        g = paper_random_graph(30, 6, rng=0)
        rp = replacement_product(g, clouds_for(g))
        assert rp.graph.n == 2 * g.m

    def test_regularity_d_plus_one(self):
        g = paper_random_graph(30, 6, rng=1)
        rp = replacement_product(g, clouds_for(g, d=4))
        assert rp.graph.is_regular(5)

    def test_star_graph_hub_replaced(self):
        # The star is the paper's canonical "hub" example: its center has
        # degree n-1 and must become a cloud of n-1 vertices.
        g = star_graph(20)
        rp = replacement_product(g, clouds_for(g, d=4))
        assert rp.graph.n == 2 * g.m
        assert rp.graph.is_regular(5)
        hub_cloud = np.flatnonzero(rp.cloud_of == 0)
        assert hub_cloud.size == 19

    def test_cloud_of_port_of_consistent(self):
        g = cycle_graph(6)
        rp = replacement_product(g, clouds_for(g, d=4))
        degrees = np.asarray(g.degrees)
        for pv in range(rp.graph.n):
            v = rp.cloud_of[pv]
            assert 0 <= rp.port_of[pv] < degrees[v]

    def test_self_loop_in_base(self):
        g = Graph(2, [(0, 0), (0, 1)])
        rp = replacement_product(g, clouds_for(g, d=4))
        assert rp.graph.n == 2 * g.m
        assert rp.graph.is_regular(5)
        assert component_count(rp.graph) == 1

    def test_parallel_edges_in_base(self):
        g = Graph(2, [(0, 1), (0, 1), (0, 1)])
        rp = replacement_product(g, clouds_for(g, d=4))
        assert rp.graph.n == 6
        assert rp.graph.is_regular(5)


class TestComponentCorrespondence:
    def test_components_preserved(self):
        # Lemma 4.1 part 2: one-to-one correspondence of components.
        g = Graph(8, [(0, 1), (1, 2), (2, 0), (3, 4), (5, 6), (6, 7), (5, 7)])
        rp = replacement_product(g, clouds_for(g, d=4))
        product_labels = connected_components(rp.graph)
        assert int(product_labels.max()) == int(connected_components(g).max())

    def test_project_labels_recovers_base_components(self):
        g = Graph(8, [(0, 1), (1, 2), (2, 0), (3, 4), (5, 6), (6, 7), (5, 7)])
        rp = replacement_product(g, clouds_for(g, d=4))
        projected = rp.project_labels(connected_components(rp.graph))
        assert components_agree(projected, connected_components(g))

    def test_project_labels_shape_check(self):
        g = cycle_graph(4)
        rp = replacement_product(g, clouds_for(g, d=4))
        with pytest.raises(ValueError):
            rp.project_labels(np.zeros(3))


class TestSpectralGapPreservation:
    def test_proposition_4_2_inequality(self):
        """λ₂(G r H) ≥ (1/6)·(d²/(d+1)³)·λ_G·λ_H² (the explicit constant
        from the Appendix C proof, with λ_H the two-sided cloud gap that
        the Prop. C.4 decomposition requires)."""
        d = 6
        for seed, base in enumerate(
            [
                permutation_regular_graph(40, 6, rng=0),
                paper_random_graph(40, 8, rng=1),
                complete_graph(12),
            ]
        ):
            clouds = regular_graph_construction(
                np.unique(np.asarray(base.degrees)).tolist(), d, rng=seed
            )
            lam_g = spectral_gap(base)
            lam_h = min(two_sided_spectral_gap(c) for c in clouds.values())
            rp = replacement_product(base, clouds)
            bound = (d**2 / (d + 1) ** 3) * lam_g * lam_h**2 / 6
            assert spectral_gap(rp.graph) >= bound

    def test_gap_ordering_tracks_base(self):
        """Better-connected bases give better-connected products."""
        d = 4
        weak = dumbbell_graph(20, 6, bridges=1, rng=0)
        strong = permutation_regular_graph(40, 8, rng=0)
        gaps = {}
        for name, base in [("weak", weak), ("strong", strong)]:
            clouds = clouds_for(base, d=d, seed=3)
            rp = replacement_product(base, clouds)
            gaps[name] = spectral_gap(rp.graph)
        assert gaps["weak"] < gaps["strong"]


class TestValidation:
    def test_isolated_vertex_rejected(self):
        g = Graph(3, [(0, 1)])
        with pytest.raises(ValueError, match="isolated"):
            replacement_product(g, clouds_for(path_graph(2), d=4))

    def test_missing_cloud_rejected(self):
        g = path_graph(3)  # degrees 1 and 2
        clouds = regular_graph_construction([1], 4, rng=0)
        with pytest.raises(ValueError, match="no cloud"):
            replacement_product(g, clouds)

    def test_wrong_cloud_size_rejected(self):
        g = cycle_graph(4)  # all degree 2
        bad = regular_graph_construction([3], 4, rng=0)
        with pytest.raises(ValueError):
            replacement_product(g, {2: bad[3]})

    def test_irregular_cloud_rejected(self):
        g = cycle_graph(4)
        with pytest.raises(ValueError, match="not regular"):
            replacement_product(g, {2: Graph(2, [(0, 1)] * 3 + [(0, 0)])})


class TestEngineCharges:
    def test_rounds_charged(self):
        g = paper_random_graph(40, 6, rng=0)
        engine = MPCEngine(32)
        replacement_product(g, clouds_for(g), engine=engine)
        assert engine.rounds >= 2
        assert any("ReplacementProduct" in p.name for p in engine.phase_summaries())


class TestZigZag:
    def test_regularity_d_squared(self):
        g = cycle_graph(8)
        zz = zigzag_product(g, clouds_for(g, d=4))
        assert zz.graph.is_regular(16)
        assert zz.graph.n == 2 * g.m

    def test_proposition_c1_inequality(self):
        """λ₂(G z H) ≥ λ_G · λ_H² (Proposition C.1, with the two-sided
        cloud gap required by the Prop. C.4 decomposition)."""
        d = 6
        base = permutation_regular_graph(30, 6, rng=4)
        clouds = regular_graph_construction(
            np.unique(np.asarray(base.degrees)).tolist(), d, rng=4
        )
        lam_g = spectral_gap(base)
        lam_h = min(two_sided_spectral_gap(c) for c in clouds.values())
        zz = zigzag_product(base, clouds)
        assert spectral_gap(zz.graph) >= lam_g * lam_h**2 - 1e-9

    def test_zigzag_preserves_components(self):
        g = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        zz = zigzag_product(g, clouds_for(g, d=4))
        assert int(connected_components(zz.graph).max()) == 1
