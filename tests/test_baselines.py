"""Tests for the baseline connectivity algorithms."""

import dataclasses

import numpy as np
import pytest

from repro.baselines import (
    RandomMateResult,
    random_mate_components,
    shiloach_vishkin_components,
)
from repro.graph import (
    Graph,
    community_graph,
    components_agree,
    connected_components,
    cycle_graph,
    paper_random_graph,
    path_graph,
    permutation_regular_graph,
    star_graph,
)
from repro.mpc import MPCEngine, PlanTrace, ShardedBackend

ALL_BASELINES = [
    ("random-mate", lambda g, rng: random_mate_components(g, rng=rng).labels),
    ("shiloach-vishkin", lambda g, rng: shiloach_vishkin_components(g).labels),
]


class TestCorrectness:
    @pytest.mark.parametrize("name,solver", ALL_BASELINES, ids=[b[0] for b in ALL_BASELINES])
    @pytest.mark.parametrize(
        "make",
        [
            lambda: path_graph(40),
            lambda: cycle_graph(33),
            lambda: star_graph(25),
            lambda: Graph(7, [(0, 1), (2, 3), (3, 4)]),
            lambda: Graph(5, []),
            lambda: paper_random_graph(90, 4, rng=0),
            lambda: community_graph([25, 35], 6, rng=1)[0],
        ],
        ids=["path", "cycle", "star", "multi", "empty", "random", "community"],
    )
    def test_matches_reference(self, name, solver, make):
        g = make()
        labels = solver(g, np.random.default_rng(0))
        assert components_agree(labels, connected_components(g))

    @pytest.mark.parametrize("seed", range(5))
    def test_random_fuzz_all_agree(self, seed):
        g = paper_random_graph(60, 3, rng=seed)
        truth = connected_components(g)
        rng = np.random.default_rng(seed)
        for name, solver in ALL_BASELINES:
            assert components_agree(solver(g, rng), truth), name


class TestRoundScaling:
    def test_random_mate_iterations_logarithmic(self):
        g = permutation_regular_graph(512, 6, rng=0)
        result = random_mate_components(g, rng=1)
        assert result.iterations <= 4 * int(np.log2(512))

    def test_random_mate_constant_factor_shrink(self):
        """Components shrink by a roughly constant factor per iteration —
        the Section 3 contrast with GrowComponents' quadratic growth."""
        g = permutation_regular_graph(2048, 8, rng=1)
        result = random_mate_components(g, rng=2)
        history = result.components_per_iteration
        for before, after in zip(history, history[1:]):
            if before > 50:  # ratios are noisy near the end
                assert after >= before / 10

    def test_sv_iterations_logarithmic(self):
        g = permutation_regular_graph(1024, 6, rng=2)
        result = shiloach_vishkin_components(g)
        assert result.iterations <= 4 * int(np.log2(1024))

    def test_engines_charged(self):
        g = cycle_graph(32)
        for runner in (
            lambda e: random_mate_components(g, rng=0, engine=e),
            lambda e: shiloach_vishkin_components(g, engine=e),
        ):
            engine = MPCEngine(64)
            runner(engine)
            assert engine.rounds > 0

    def test_random_mate_contracts_on_its_engine(self):
        """Every contraction runs as a plan on the caller's engine: a
        sharded engine traces it and counts its exchanges, and the
        rounds and iterations are those of the charges alone."""
        trace = PlanTrace()
        engine = MPCEngine(16, backend=ShardedBackend(), trace=trace)
        result = random_mate_components(cycle_graph(64), rng=0, engine=engine)
        assert len(trace) > 0
        assert engine.backend.stats().op_counts["reduce_by_key"] == len(trace)
        assert engine.backend.exchanges > 0
        assert (engine.rounds, result.iterations) == (30, 7)

    def test_random_mate_result_has_no_rounds(self):
        """Rounds are read off the engine, not the result."""
        names = {field.name for field in dataclasses.fields(RandomMateResult)}
        assert "rounds" not in names
