"""End-to-end tests for the Theorem 4 pipeline and Corollary 7.1."""

import numpy as np
import pytest

from repro.core import (
    PipelineConfig,
    mpc_connected_components,
    mpc_connected_components_adaptive,
)
from repro.graph import (
    Graph,
    community_graph,
    components_agree,
    connected_components,
    cycle_graph,
    dumbbell_graph,
    paper_random_graph,
    planted_expander_components,
    star_graph,
)
from repro.mpc import MPCEngine

FAST = PipelineConfig(max_walk_length=64, oversample=6, growth=4)


class TestCorrectness:
    def test_single_expander(self):
        g = paper_random_graph(200, 10, rng=0)
        result = mpc_connected_components(g, 0.3, config=FAST, rng=0)
        assert components_agree(result.labels, connected_components(g))

    def test_planted_components(self):
        g, _ = planted_expander_components([60, 100, 140], 8, rng=1)
        result = mpc_connected_components(g, 0.2, config=FAST, rng=1)
        assert components_agree(result.labels, connected_components(g))

    def test_community_graph_with_tail(self):
        g, _ = community_graph([80, 50], 10, rng=2, skew_tail=True)
        result = mpc_connected_components(g, 0.1, config=FAST, rng=2)
        assert components_agree(result.labels, connected_components(g))

    def test_isolated_vertices(self):
        g = Graph(10, [(0, 1), (1, 2), (2, 0)])
        result = mpc_connected_components(g, 0.5, config=FAST, rng=3)
        assert components_agree(result.labels, connected_components(g))

    def test_edgeless_graph(self):
        g = Graph(5, [])
        result = mpc_connected_components(g, 0.5, config=FAST, rng=0)
        assert np.array_equal(result.labels, np.arange(5))
        assert result.rounds == 0

    def test_star_graph(self):
        g = star_graph(50)
        result = mpc_connected_components(g, 0.5, config=FAST, rng=4)
        assert result.component_count == 1

    @pytest.mark.parametrize("seed", range(4))
    def test_fuzz_mixed_components(self, seed):
        """Exactness on a mix of sizes and shapes, many seeds — the
        verification stage guarantees this regardless of random outcomes."""
        rng = np.random.default_rng(seed)
        sizes = rng.integers(5, 60, size=4).tolist()
        g, _ = community_graph(sizes, 8, rng=rng)
        result = mpc_connected_components(g, 0.05, config=FAST, rng=rng)
        assert components_agree(result.labels, connected_components(g))

    def test_weakly_connected_still_exact(self):
        """Even a cycle (gap ~ 1/n²) is answered exactly — the fallback
        broadcast pays the rounds honestly."""
        g = cycle_graph(60)
        result = mpc_connected_components(g, 0.005, config=FAST, rng=5)
        assert result.component_count == 1


class TestRoundAccounting:
    def test_rounds_recorded(self):
        g = paper_random_graph(100, 10, rng=0)
        result = mpc_connected_components(g, 0.3, config=FAST, rng=0)
        assert result.rounds == result.engine.rounds > 0

    def test_phases_present(self):
        g = paper_random_graph(100, 10, rng=0)
        result = mpc_connected_components(g, 0.3, config=FAST, rng=0)
        names = {p.name for p in result.engine.phase_summaries()}
        assert {"Step1-Regularize", "Step2-Randomize", "Step3-RandomGraphCC"} <= names

    def test_smaller_gap_more_rounds(self):
        """Theorem 4: rounds grow with log(1/λ) (through the walk length)."""
        g = paper_random_graph(150, 10, rng=1)
        config = FAST.with_overrides(max_walk_length=4096)
        tight = mpc_connected_components(g, 0.5, config=config, rng=1)
        loose = mpc_connected_components(g, 0.001, config=config, rng=1)
        assert loose.walk_length > tight.walk_length
        assert loose.rounds > tight.rounds

    def test_verify_noop_on_well_connected(self):
        """On an expander the pipeline's labels are already exact — the
        verification broadcast should cost 0 rounds."""
        g = paper_random_graph(300, 12, rng=2)
        result = mpc_connected_components(g, 0.3, config=FAST, rng=2)
        assert result.verify_rounds == 0

    def test_external_engine_reused(self):
        g = paper_random_graph(60, 8, rng=3)
        engine = MPCEngine(256)
        result = mpc_connected_components(g, 0.3, config=FAST, rng=3, engine=engine)
        assert result.engine is engine

    def test_bad_gap_bound_rejected(self):
        g = cycle_graph(10)
        with pytest.raises(ValueError):
            mpc_connected_components(g, 0.0, config=FAST)


class TestAdaptive:
    def test_exactness_without_gap_knowledge(self):
        g, _ = planted_expander_components([60, 90], 8, rng=4)
        result = mpc_connected_components_adaptive(g, config=FAST, rng=4)
        assert components_agree(result.labels, connected_components(g))

    def test_expander_finishes_first_guess(self):
        """Cor 7.1: components with λ₂ ≥ λ'_1 = 1/2... our expanders have
        gap ~0.3 so they finish within the first few guesses."""
        g = paper_random_graph(150, 12, rng=5)
        result = mpc_connected_components_adaptive(g, config=FAST, rng=5)
        assert len(result.iterations) <= 4
        assert result.iterations[-1].active_vertices == 0

    def test_guesses_shrink_geometrically(self):
        g = dumbbell_graph(60, 8, bridges=1, rng=6)
        result = mpc_connected_components_adaptive(g, config=FAST, rng=6)
        guesses = [it.gap_guess for it in result.iterations]
        for a, b in zip(guesses, guesses[1:]):
            assert b == pytest.approx(a**1.1)
        assert components_agree(result.labels, connected_components(g))

    @pytest.mark.parametrize("engine", ["paper", object()],
                             ids=["name", "object"])
    def test_rejects_anything_but_an_accounting_engine(self, engine):
        with pytest.raises(TypeError):
            mpc_connected_components_adaptive(cycle_graph(10), engine=engine)

    def test_mixed_gaps_finish_at_different_iterations(self):
        """A well-connected component finishes before a weakly connected
        one (the per-component guarantee of Cor 7.1): with too-large gap
        guesses the weak component's walks are too short, the O(1)-round
        broadcast budget is insufficient, and it stays growable."""
        expander = paper_random_graph(100, 12, rng=7)
        weak = cycle_graph(400)
        from repro.graph import disjoint_union

        g, _ = disjoint_union([expander, weak])
        config = FAST.with_overrides(max_walk_length=32, broadcast_budget=4)
        result = mpc_connected_components_adaptive(
            g, config=config, rng=7, gap_exponent=1.5
        )
        assert components_agree(result.labels, connected_components(g))
        assert len(result.iterations) >= 2
        # Some vertices finished strictly before the last iteration.
        assert result.iterations[0].finished_vertices > 0
        assert result.iterations[0].active_vertices > 0
