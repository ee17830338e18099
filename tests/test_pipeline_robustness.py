"""Robustness and failure-injection tests for the full pipeline.

The paper's analysis assumes simple sparse graphs and generous constants;
a production library must behave on everything else: multigraphs, denser
inputs, adversarially bad configurations, and deliberately under-resourced
walks.  The invariant under test everywhere: the returned labels are
*exactly* the true components (the stabilising broadcast + verification
make correctness deterministic), with failures surfacing only as extra
counted rounds.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.core import PipelineConfig, mpc_connected_components, sublinear_connectivity
from repro.graph import (
    Graph,
    complete_graph,
    components_agree,
    connected_components,
    cycle_graph,
    path_graph,
    star_graph,
)

# Failure-injection sweeps are the long tail of the test run; CI's fast
# tier skips them (-m "not slow") and a scheduled job runs them nightly.
pytestmark = pytest.mark.slow

TINY = PipelineConfig(max_walk_length=32, oversample=4, growth=4, max_phases=2)


class TestMultigraphInputs:
    def test_self_loops_everywhere(self):
        g = Graph(6, [(0, 0), (0, 1), (1, 1), (2, 3), (3, 3), (4, 4)])
        result = mpc_connected_components(g, 0.1, config=TINY, rng=0)
        assert components_agree(result.labels, connected_components(g))

    def test_heavy_parallel_edges(self):
        edges = [(0, 1)] * 10 + [(1, 2)] * 5 + [(3, 4)] * 7
        g = Graph(5, edges)
        result = mpc_connected_components(g, 0.1, config=TINY, rng=1)
        assert components_agree(result.labels, connected_components(g))

    def test_single_edge(self):
        g = Graph(2, [(0, 1)])
        result = mpc_connected_components(g, 0.5, config=TINY, rng=2)
        assert result.component_count == 1

    def test_only_self_loop(self):
        g = Graph(1, [(0, 0)])
        result = mpc_connected_components(g, 0.5, config=TINY, rng=3)
        assert result.component_count == 1

    def test_dense_input(self):
        """The algorithm targets sparse graphs but must not break on
        dense ones (they just use more machines)."""
        g = complete_graph(24)
        result = mpc_connected_components(g, 0.5, config=TINY, rng=4)
        assert result.component_count == 1


class TestUnderResourcedWalks:
    """Failure injection: walks far below the mixing time."""

    @pytest.mark.parametrize("cap", [4, 8])
    def test_exactness_survives_bad_walks(self, cap):
        config = TINY.with_overrides(max_walk_length=cap)
        g = cycle_graph(80)  # mixing time >> cap
        result = mpc_connected_components(g, 1e-4, config=config, rng=5)
        assert result.component_count == 1

    def test_bad_walks_cost_visible_rounds(self):
        g, _ = repro.graph.community_graph([100], 8, rng=6)
        good = mpc_connected_components(
            g, 0.2, config=TINY.with_overrides(max_walk_length=64), rng=6
        )
        # Under-walking a weak structure raises the step-3/verify bill.
        weak = cycle_graph(200)
        bad = mpc_connected_components(
            weak, 1e-4, config=TINY.with_overrides(max_walk_length=4), rng=6
        )
        assert bad.cc.broadcast_rounds + bad.verify_rounds >= max(
            1, good.cc.broadcast_rounds + good.verify_rounds
        )

    def test_single_phase_schedule(self):
        config = TINY.with_overrides(max_phases=1)
        g = star_graph(40)
        result = mpc_connected_components(g, 0.3, config=config, rng=7)
        assert result.phase_count == 1
        assert result.component_count == 1


class TestDegenerateConfigs:
    def test_minimal_oversample(self):
        config = PipelineConfig(oversample=1, growth=2, max_walk_length=16)
        g = path_graph(30)
        result = mpc_connected_components(g, 0.01, config=config, rng=8)
        assert result.component_count == 1

    def test_huge_growth_target(self):
        """Growth 1000 makes leaders rare (probability ``1/Δ``, never below
        ``repro.core.grow.LEADER_FLOOR``); the labels stay exact."""
        config = PipelineConfig(growth=1000, max_phases=1, max_walk_length=16)
        g = cycle_graph(40)
        result = mpc_connected_components(g, 0.01, config=config, rng=9)
        assert result.component_count == 1


class TestSublinearRobustness:
    def test_tiny_memory(self):
        g = path_graph(60)
        result = sublinear_connectivity(g, machine_memory=4, rng=0, walk_cap=500)
        assert result.component_count == 1

    def test_memory_larger_than_graph(self):
        g = cycle_graph(30)
        result = sublinear_connectivity(g, machine_memory=10_000, rng=1)
        assert result.component_count == 1

    def test_walk_cap_one_step_regime(self):
        g = star_graph(50)
        result = sublinear_connectivity(g, machine_memory=8, rng=2, walk_cap=4)
        assert components_agree(result.labels, connected_components(g))

    def test_multigraph(self):
        g = Graph(5, [(0, 1), (0, 1), (1, 1), (2, 3), (3, 4), (3, 4)])
        result = sublinear_connectivity(g, machine_memory=8, rng=3)
        assert components_agree(result.labels, connected_components(g))


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    n=st.integers(2, 24),
    data=st.data(),
)
def test_pipeline_fuzz_exactness(n, data):
    """Hypothesis fuzz: arbitrary small multigraphs, arbitrary seeds —
    the pipeline must always return the exact components."""
    m = data.draw(st.integers(0, 40))
    edges = data.draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            min_size=m,
            max_size=m,
        )
    )
    seed = data.draw(st.integers(0, 1000))
    g = Graph(n, edges)
    result = mpc_connected_components(g, 0.05, config=TINY, rng=seed)
    assert components_agree(result.labels, connected_components(g))


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    n=st.integers(2, 20),
    data=st.data(),
)
def test_sublinear_fuzz_exactness(n, data):
    """Same fuzz for SublinearConn."""
    m = data.draw(st.integers(0, 30))
    edges = data.draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            min_size=m,
            max_size=m,
        )
    )
    seed = data.draw(st.integers(0, 1000))
    g = Graph(n, edges)
    result = sublinear_connectivity(g, machine_memory=6, rng=seed, walk_cap=200)
    assert components_agree(result.labels, connected_components(g))
