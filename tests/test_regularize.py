"""Tests for the regularization step (Lemma 4.1)."""

import pytest

from repro.core import regularize
from repro.graph import (
    Graph,
    community_graph,
    components_agree,
    connected_components,
    cycle_graph,
    empirical_mixing_time,
    mixing_time_bound,
    paper_random_graph,
    spectral_gap,
    star_graph,
)
from repro.mpc import MPCEngine


class TestLemma41Structure:
    def test_2m_vertices_and_regular(self):
        g = paper_random_graph(40, 6, rng=0)
        reg = regularize(g, expander_degree=4, rng=0)
        assert reg.graph.n == 2 * g.m          # Lemma 4.1 part 1
        assert reg.graph.is_regular(5)
        assert reg.regular_degree == 5

    def test_component_correspondence(self):
        g, _ = community_graph([20, 30, 10], 8, rng=1)
        reg = regularize(g, expander_degree=4, rng=1)
        product_labels = connected_components(reg.graph)
        # Lemma 4.1 part 2: one-to-one correspondence.
        assert int(product_labels.max()) == int(connected_components(g).max())

    def test_lift_labels_roundtrip(self):
        g, _ = community_graph([15, 25], 8, rng=2)
        reg = regularize(g, expander_degree=4, rng=2)
        lifted = reg.lift_labels(connected_components(reg.graph))
        assert components_agree(lifted, connected_components(g))

    def test_isolated_vertices_reattached(self):
        g = Graph(6, [(0, 1), (1, 2)])  # vertices 3,4,5 isolated
        reg = regularize(g, expander_degree=4, rng=0)
        assert reg.isolated_vertices.tolist() == [3, 4, 5]
        lifted = reg.lift_labels(connected_components(reg.graph))
        assert components_agree(lifted, connected_components(g))

    def test_all_edges_no_vertices_error(self):
        with pytest.raises(ValueError):
            regularize(Graph(3, []), rng=0)

    def test_star_hub_regularized(self):
        g = star_graph(30)
        reg = regularize(g, expander_degree=4, rng=3)
        assert reg.graph.is_regular(5)
        assert reg.graph.n == 2 * g.m


class TestMixingTimePreservation:
    def test_product_gap_proportional_to_base(self):
        """Lemma 4.1 part 3 via Prop. 2.2: the product's mixing time is
        O(log(n/γ)/λ₂(G)).  We check the contrapositive calibration used by
        the pipeline: the product keeps a constant fraction of the base
        gap (the config's gap_retention default)."""
        from repro.core import PipelineConfig

        g = paper_random_graph(60, 8, rng=4)
        base_gap = spectral_gap(g)
        reg = regularize(g, expander_degree=8, rng=4)
        product_gap = spectral_gap(reg.graph)
        retention = PipelineConfig(expander_degree=8).effective_gap_retention
        assert product_gap >= retention * base_gap

    def test_product_mixes_within_bound(self):
        g = paper_random_graph(30, 8, rng=5)
        reg = regularize(g, expander_degree=8, rng=5)
        gamma = 1e-2
        bound = mixing_time_bound(reg.graph.n, spectral_gap(reg.graph), gamma)
        actual = empirical_mixing_time(reg.graph, gamma, max_steps=5 * bound)
        assert actual <= bound

    def test_weakly_connected_base_slow_product(self):
        cycle = cycle_graph(40)
        expander = paper_random_graph(40, 10, rng=6)
        reg_cycle = regularize(cycle, expander_degree=4, rng=6)
        reg_exp = regularize(expander, expander_degree=4, rng=6)
        assert spectral_gap(reg_cycle.graph) < spectral_gap(reg_exp.graph)


class TestEngine:
    def test_rounds_constant_in_n(self):
        """Lemma 4.1: O(1/δ) rounds regardless of graph size."""
        small_engine = MPCEngine(64)
        regularize(paper_random_graph(30, 6, rng=0), rng=0, engine=small_engine)
        large_engine = MPCEngine(64)
        regularize(paper_random_graph(300, 6, rng=0), rng=0, engine=large_engine)
        assert large_engine.rounds <= small_engine.rounds + 4
