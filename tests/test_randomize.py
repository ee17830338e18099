"""Tests for the randomization step (Lemma 5.1)."""

import numpy as np

from repro.core import randomize_components
from repro.graph import (
    component_count,
    components_agree,
    connected_components,
    disjoint_union,
    permutation_regular_graph,
)
from repro.mpc import MPCEngine


def two_expander_components(seed=0):
    a = permutation_regular_graph(30, 6, rng=seed)
    b = permutation_regular_graph(50, 6, rng=seed + 1)
    union, _ = disjoint_union([a, b])
    return union


class TestStructure:
    def test_vertex_set_preserved(self):
        g = two_expander_components()
        result = randomize_components(
            g, 16, batches=2, batch_half_degree=4, rng=0
        )
        assert result.graph.n == g.n

    def test_batch_shapes(self):
        g = two_expander_components()
        result = randomize_components(
            g, 16, batches=3, batch_half_degree=5, rng=0
        )
        assert result.batch_count == 3
        for batch in result.batches:
            assert batch.shape == (g.n * 5, 2)

    def test_union_graph_degree(self):
        g = two_expander_components()
        result = randomize_components(
            g, 16, batches=2, batch_half_degree=4, rng=0
        )
        # Out-degree exactly 8 per vertex; total degree concentrated ~16.
        assert result.graph.m == g.n * 8

    def test_walk_length_recorded(self):
        g = two_expander_components()
        result = randomize_components(g, 10, batches=1, batch_half_degree=2, rng=0)
        assert result.walk_length == 10


class TestComponentPreservation:
    def test_never_merges_components(self):
        """Walk edges cannot cross components (Lemma 5.1, part 1)."""
        g = two_expander_components()
        truth = connected_components(g)
        result = randomize_components(
            g, 32, batches=2, batch_half_degree=8, rng=1
        )
        for batch in result.batches:
            assert np.all(truth[batch[:, 0]] == truth[batch[:, 1]])

    def test_components_whp_connected(self):
        """With k = Θ(log n) targets per vertex each component stays
        connected (Prop. 2.4 via Lemma 5.1, part 2)."""
        g = two_expander_components(seed=3)
        result = randomize_components(
            g, 32, batches=2, batch_half_degree=8, rng=2
        )
        assert components_agree(
            connected_components(result.graph), connected_components(g)
        )

    def test_single_batch_component_count(self):
        g = permutation_regular_graph(64, 6, rng=5)
        result = randomize_components(g, 32, batches=1, batch_half_degree=8, rng=3)
        assert component_count(result.graph) == 1


class TestTargetUniformity:
    def test_targets_near_uniform_over_component(self):
        """After T >= T_mix, each vertex's targets are ~uniform over its
        component (the TV guarantee of Lemma 5.1)."""
        g = permutation_regular_graph(24, 6, rng=7)
        result = randomize_components(
            g, 64, batches=1, batch_half_degree=40, rng=4
        )
        targets = result.batches[0][:, 1]
        counts = np.bincount(targets, minlength=24)
        freq = counts / counts.sum()
        tv = 0.5 * np.abs(freq - 1 / 24).sum()
        assert tv < 0.08


class TestModes:
    def test_engine_charged(self):
        g = permutation_regular_graph(12, 4, rng=0)
        engine = MPCEngine(1000)
        randomize_components(
            g, 8, batches=2, batch_half_degree=3, rng=0, engine=engine
        )
        assert engine.rounds > 0
