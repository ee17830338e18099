"""Tests for SimpleRandomWalk, independence detection, and the direct
walker (Theorem 3, Lemmas 5.3/5.6)."""

import numpy as np
import pytest
from scipy import stats

from repro.core import (
    detect_independence,
    direct_walk_targets,
    independent_random_walks,
    next_power_of_two,
    randomize_components,
    simple_random_walk,
)
from repro.graph import (
    Graph,
    complete_graph,
    cycle_graph,
    permutation_regular_graph,
    walk_distribution,
)
from repro.mpc import (
    LocalBackend,
    MPCEngine,
    ProcessBackend,
    RpcBackend,
    ShardedBackend,
)
from repro.mpc.kernels import popcount64


class TestNextPowerOfTwo:
    def test_values(self):
        assert next_power_of_two(1) == 1
        assert next_power_of_two(3) == 4
        assert next_power_of_two(8) == 8
        assert next_power_of_two(9) == 16

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            next_power_of_two(0)


class TestSimpleRandomWalk:
    def test_targets_in_component(self):
        g = cycle_graph(8)
        run = simple_random_walk(g, 4, rng=0)
        assert run.targets.shape == (8,)
        assert np.all((0 <= run.targets) & (run.targets < 8))

    def test_parity_respected_on_even_cycle(self):
        """A 4-step walk on an even cycle ends at even distance — a sharp
        distributional check that the layered structure walks correctly."""
        g = cycle_graph(8)
        run = simple_random_walk(g, 4, rng=1)
        displacement = (run.targets - np.arange(8)) % 8
        assert np.all(displacement % 2 == 0)

    def test_rounds_charged_o_log_t(self):
        g = permutation_regular_graph(16, 4, rng=0)
        engine_short = MPCEngine(10**6)
        simple_random_walk(g, 4, rng=0, engine=engine_short)
        engine_long = MPCEngine(10**6)
        simple_random_walk(g, 64, rng=0, engine=engine_long)
        # log2(64)/log2(4) = 3x the doubling iterations, but rounds grow
        # strictly less than linearly in t (16x).
        assert engine_short.rounds < engine_long.rounds
        assert engine_long.rounds < 8 * engine_short.rounds

    def test_target_distribution_matches_walk_matrix(self):
        """Empirical target frequencies ≈ W^t e_v (exact distribution)."""
        g = permutation_regular_graph(6, 4, rng=0)
        t = 4
        start = 2
        expected = walk_distribution(g, start, t)
        rng = np.random.default_rng(7)
        counts = np.zeros(6)
        trials = 3000
        for _ in range(trials):
            run = simple_random_walk(g, t, rng=rng)
            counts[run.targets[start]] += 1
        observed = counts / trials
        support = expected > 1e-12
        chi2 = trials * np.sum(
            (observed[support] - expected[support]) ** 2 / expected[support]
        )
        dof = int(support.sum()) - 1
        assert chi2 < stats.chi2.ppf(0.999, dof)

    def test_independence_survival_rate(self):
        """Lemma 5.3: each start survives with probability >= 1/2."""
        g = permutation_regular_graph(24, 4, rng=0)
        rng = np.random.default_rng(3)
        rates = []
        for _ in range(30):
            run = simple_random_walk(g, 8, rng=rng)
            rates.append(run.independent.mean())
        assert np.mean(rates) >= 0.5


class TestDetectIndependence:
    def test_disjoint_paths_kept(self):
        paths = np.array([[0, 1], [2, 3], [4, 5]])
        assert detect_independence(paths).all()

    def test_shared_vertex_kills_both(self):
        paths = np.array([[0, 1], [2, 1], [4, 5]])
        flags = detect_independence(paths)
        assert flags.tolist() == [False, False, True]

    def test_three_way_collision(self):
        paths = np.array([[0, 9], [1, 9], [2, 9]])
        assert not detect_independence(paths).any()


class TestIndependentRandomWalks:
    def test_every_vertex_gets_target(self):
        g = permutation_regular_graph(20, 4, rng=0)
        targets = independent_random_walks(g, 8, rng=1)
        assert np.all(targets >= 0)
        assert targets.shape == (20,)

    def test_engine_charged_once_for_parallel_runs(self):
        g = permutation_regular_graph(20, 4, rng=0)
        engine = MPCEngine(10**6)
        independent_random_walks(g, 8, rng=1, engine=engine)
        single = MPCEngine(10**6)
        simple_random_walk(g, 8, rng=1, engine=single)
        assert engine.rounds == single.rounds

    def test_data_volume_counts_the_rounded_length(self):
        """Every run builds the layered graph of ``t`` rounded up to a
        power of two, so t = 5 notes the volume t = 8 does."""
        g = permutation_regular_graph(64, 4, rng=0)
        volumes = []
        for t in (5, 8):
            engine = MPCEngine(2**20)
            independent_random_walks(g, t, rng=0, engine=engine)
            volumes.append(engine.peak_items)
        assert volumes[0] == volumes[1] > 64 * 16 * 9

    def test_max_runs_exceeded_raises(self):
        g = complete_graph(4)
        with pytest.raises(RuntimeError, match="independent walks"):
            independent_random_walks(g, 2, rng=0, max_runs=0)


class TestDirectWalker:
    def test_shape(self):
        g = permutation_regular_graph(10, 4, rng=0)
        targets = direct_walk_targets(g, 8, 5, rng=0)
        assert targets.shape == (10, 5)

    def test_requires_regular(self):
        with pytest.raises(ValueError):
            direct_walk_targets(Graph(3, [(0, 1), (1, 2)]), 4, 2, rng=0)

    def test_lazy_distribution_matches_matrix(self):
        """Direct lazy walker matches the lazy walk distribution W̄^t e_v —
        the distributional equivalence the scale substitute rests on."""
        g = cycle_graph(5)
        t = 6
        expected = walk_distribution(g, 0, t, lazy=True)
        targets = direct_walk_targets(g, t, 4000, rng=11)[0]
        observed = np.bincount(targets, minlength=5) / targets.size
        chi2 = targets.size * np.sum((observed - expected) ** 2 / expected)
        assert chi2 < stats.chi2.ppf(0.999, 4)

    def test_columns_are_independent_walks(self):
        """Independence smoke test: correlation between two columns of
        endpoints across repetitions is near zero on a vertex-transitive
        graph."""
        g = cycle_graph(16)
        rng = np.random.default_rng(5)
        a, b = [], []
        for _ in range(400):
            targets = direct_walk_targets(g, 8, 2, rng=rng)
            a.append(targets[0, 0])
            b.append(targets[0, 1])
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) < 0.15

    def test_engine_charges_match_theorem3(self):
        g = permutation_regular_graph(10, 4, rng=0)
        direct_engine = MPCEngine(10**6)
        direct_walk_targets(g, 8, 3, rng=0, engine=direct_engine)
        layered_engine = MPCEngine(10**6)
        simple_random_walk(g, 8, rng=0, engine=layered_engine)
        assert direct_engine.rounds == layered_engine.rounds

    def test_empty_graph_gives_empty_targets(self):
        """Regression: the empty graph is regular, and used to raise a bare
        IndexError from ``graph.degree(0)``."""
        targets = direct_walk_targets(Graph(0, []), 8, 3, rng=0)
        assert targets.shape == (0, 3)
        assert targets.dtype == np.int64
        result = randomize_components(
            Graph(0, []), 8, batches=2, batch_half_degree=2, rng=0
        )
        assert [batch.shape for batch in result.batches] == [(0, 2), (0, 2)]
        assert result.graph.n == 0


def looped_multicycle(n: int) -> Graph:
    """A 6-regular circulant with parallel edges and self-loops: every
    cycle edge twice plus one self-loop per vertex.  It is
    vertex-transitive, so walk displacements from all starts pool."""
    ring = [(v, (v + 1) % n) for v in range(n)]
    return Graph(n, ring + ring + [(v, v) for v in range(n)])


class TestDirectWalkerExactness:
    """The Binomial-step sampler against the exact lazy walk distribution,
    at lengths that fill zero, one and several 64-bit popcount words
    partly or exactly.  The ring is long enough that a wrong move count
    (say 128 moves for 65 steps) shows in the spread of displacements."""

    @pytest.mark.parametrize("t", [1, 63, 64, 65, 130])
    def test_lazy_chi_square_against_walk_distribution(self, t):
        n = 64
        g = looped_multicycle(n)
        expected = walk_distribution(g, 0, t, lazy=True)
        targets = direct_walk_targets(g, t, 200, rng=100 + t)
        displacement = (targets - np.arange(n)[:, None]) % n
        counts = np.bincount(displacement.ravel(), minlength=n)
        total = counts.sum()
        # Pool the bins expected to hold fewer than 5 walkers into one.
        small = total * expected < 5
        observed = np.append(counts[~small], counts[small].sum())
        predicted = total * np.append(expected[~small], expected[small].sum())
        if predicted[-1] == 0:
            assert observed[-1] == 0
            observed, predicted = observed[:-1], predicted[:-1]
        chi2 = np.sum((observed - predicted) ** 2 / predicted)
        assert chi2 < stats.chi2.ppf(0.999, observed.size - 1)


class TestPopcount:
    WORDS = np.concatenate([
        np.array([0, 2**64 - 1], dtype=np.uint64),
        np.random.default_rng(4).integers(
            0, 2**64 - 1, 2000, dtype=np.uint64, endpoint=True
        ),
    ])

    def test_swar_fallback_matches_bitwise_count(self, monkeypatch):
        reference = np.array(
            [bin(int(word)).count("1") for word in self.WORDS], dtype=np.uint8
        )
        assert reference[:2].tolist() == [0, 64]
        if hasattr(np, "bitwise_count"):
            assert np.array_equal(np.bitwise_count(self.WORDS), reference)
        monkeypatch.delattr(np, "bitwise_count", raising=False)
        fallback = popcount64(self.WORDS)
        assert fallback.dtype == np.uint8
        assert np.array_equal(fallback, reference)

    def test_walk_identical_on_fallback(self, monkeypatch):
        g = looped_multicycle(9)
        native = direct_walk_targets(g, 130, 5, rng=8)
        monkeypatch.delattr(np, "bitwise_count", raising=False)
        assert np.array_equal(direct_walk_targets(g, 130, 5, rng=8), native)


class TestWalkOnEveryBackend:
    def test_targets_bit_identical_across_backends_and_pool_sizes(self):
        """A seed fixes the targets: the same on the in-process backends,
        on both pools, and whatever the number of workers the columns are
        split over."""
        g = permutation_regular_graph(300, 4, rng=1)
        expected = direct_walk_targets(g, 65, 7, rng=9)
        pools = [
            ProcessBackend(workers=w, min_parallel_items=0) for w in (1, 2, 3)
        ] + [RpcBackend(workers=2, min_wire_items=0)]
        for backend in [LocalBackend(), ShardedBackend(), *pools]:
            try:
                engine = MPCEngine(10**6, backend=backend)
                targets = direct_walk_targets(g, 65, 7, rng=9, engine=engine)
                assert np.array_equal(targets, expected), backend.name
            finally:
                backend.close()
        for pool in pools:  # the columns really ran on the workers
            stats = pool.stats().to_json()
            assert stats["dispatch"]["barriers"] + stats["transport"]["op_frames"] > 0

    @pytest.mark.parametrize(
        "heads, degree",
        [
            (np.array([0, 2]), 1),  # a head outside [0, n)
            (np.array([0, 1, 1]), 2),  # not n·degree entries
            (np.array([0.0, 1.0]), 1),  # not integers
            (np.array([-1, 0]), 1),
        ],
    )
    def test_walk_rejects_malformed_heads(self, heads, degree):
        with pytest.raises(ValueError, match="heads"):
            LocalBackend().walk(heads, degree, 4, 2, 0)
