"""Tests for the AGM connectivity sketch (Proposition 8.1)."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import (
    Graph,
    community_graph,
    components_agree,
    connected_components,
    cycle_graph,
    paper_random_graph,
    path_graph,
    permutation_regular_graph,
    planted_expander_components,
    star_graph,
)
from repro.sketch import (
    MERSENNE_P,
    AGMSketch,
    agm_connected_components,
    agm_decode_components,
)
from repro.sketch.agm import (
    _draw_layout,
    _fingerprint_powers,
    _power_tables,
    sketch_update_partial,
)


class TestDecodingCorrectness:
    def test_single_edge(self):
        g = Graph(2, [(0, 1)])
        labels, _ = agm_connected_components(g, rng=0)
        assert labels[0] == labels[1]

    def test_path(self):
        g = path_graph(20)
        labels, _ = agm_connected_components(g, rng=1)
        assert np.all(labels == 0)

    def test_cycle(self):
        g = cycle_graph(30)
        labels, _ = agm_connected_components(g, rng=2)
        assert np.all(labels == 0)

    def test_star(self):
        g = star_graph(40)
        labels, _ = agm_connected_components(g, rng=3)
        assert np.all(labels == 0)

    def test_two_components(self):
        g = Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
        labels, _ = agm_connected_components(g, rng=4)
        assert components_agree(labels, connected_components(g))

    def test_isolated_vertices(self):
        g = Graph(5, [(0, 1)])
        labels, _ = agm_connected_components(g, rng=5)
        assert components_agree(labels, connected_components(g))

    def test_empty_graph(self):
        g = Graph(4, [])
        labels, _ = agm_connected_components(g, rng=6)
        assert np.array_equal(labels, np.arange(4))

    def test_self_loops_and_multiedges(self):
        g = Graph(3, [(0, 0), (0, 1), (0, 1), (1, 2)])
        labels, _ = agm_connected_components(g, rng=7)
        assert np.all(labels == 0)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_graphs_exact(self, seed):
        g = paper_random_graph(80, 4, rng=seed)
        labels, _ = agm_connected_components(g, rng=seed)
        assert components_agree(labels, connected_components(g))

    @pytest.mark.parametrize("seed", range(4))
    def test_planted_components_exact(self, seed):
        g, _ = planted_expander_components([20, 35, 15], 6, rng=seed)
        labels, _ = agm_connected_components(g, rng=seed + 100)
        assert components_agree(labels, connected_components(g))

    def test_community_graph_exact(self):
        g, _ = community_graph([30, 20, 10], 6, rng=8)
        labels, _ = agm_connected_components(g, rng=8)
        assert components_agree(labels, connected_components(g))


class TestSketchProperties:
    def test_prebuilt_sketch_reusable(self):
        g = permutation_regular_graph(40, 6, rng=9)
        sketch = AGMSketch.from_graph(g, rng=9)
        labels, returned = agm_connected_components(g, rng=9, sketch=sketch)
        assert returned is sketch
        assert np.all(labels == 0)

    def test_words_per_vertex_polylog(self):
        """Message size grows polylogarithmically in n (Prop. 8.1's
        O(log³ n) bits)."""
        small = AGMSketch.from_graph(cycle_graph(32), rng=0).words_per_vertex()
        large = AGMSketch.from_graph(cycle_graph(1024), rng=0).words_per_vertex()
        # n grew 32x; words should grow by far less (levels+rounds only).
        assert large < 4 * small

    def test_words_follow_polylog_formula(self):
        """words/vertex = rounds · 3 · levels · rows · cols — quadratic in
        log n with our constant rows/cols, i.e. O(log³ n) bits."""
        n = 256
        sketch = AGMSketch.from_graph(cycle_graph(n), rng=0)
        levels, rows, cols = sketch.rounds[0].shape
        expected = len(sketch.rounds) * 3 * levels * rows * cols
        assert sketch.words_per_vertex() == expected
        assert levels == int(np.ceil(np.log2(n * n))) + 1

    def test_universe_limit_enforced(self):
        # n^2 must stay below the hash field size.
        with pytest.raises(ValueError, match="universe"):
            AGMSketch.from_graph(Graph(50_000, [(0, 1)]), rng=0)

    def test_round_count_default(self):
        g = cycle_graph(64)
        sketch = AGMSketch.from_graph(g, rng=1)
        assert len(sketch.rounds) >= int(np.log2(64))


class TestLinearityAtGraphLevel:
    def test_component_sums_cancel_internal_edges(self):
        """The summed sketch of a full component decodes no cut edge
        (its incidence vector is identically zero)."""
        from repro.sketch.agm import _sample_cut_edges

        g = permutation_regular_graph(30, 6, rng=10)
        sketch = AGMSketch.from_graph(g, rng=10)
        whole = np.zeros(30, dtype=np.int64)  # everything in one component
        samples = _sample_cut_edges(sketch.rounds[0], [(0, sketch.block[0])], whole)
        assert samples == {}

    def test_split_component_decodes_cut_edge(self):
        from repro.sketch.agm import _sample_cut_edges

        g = path_graph(10)
        sketch = AGMSketch.from_graph(g, rng=11)
        labels = np.array([0] * 5 + [1] * 5)
        samples = _sample_cut_edges(sketch.rounds[0], [(0, sketch.block[0])], labels)
        assert set(samples) == {0, 1}
        for u, v in samples.values():
            assert {u, v} == {4, 5}  # the only cut edge


class TestIncrementalUpdates:
    """The streaming entry point: signed updates are exact linear algebra."""

    def test_streamed_build_equals_one_shot(self):
        """Applying a graph's edges in batches must reproduce from_graph
        bit-for-bit (linearity)."""
        g = paper_random_graph(48, 4, rng=12)
        one_shot = AGMSketch.from_graph(g, rng=13)
        streamed = AGMSketch.empty(g.n, rng=13)
        thirds = np.array_split(g.edges, 3)
        for chunk in thirds:
            streamed.update_edges(chunk)
        for a, b in zip(one_shot.rounds, streamed.rounds):
            assert np.array_equal(a.totals, b.totals)
            assert np.array_equal(a.moments, b.moments)
            assert np.array_equal(a.fingers, b.fingers)

    def test_duplicate_insert_then_delete_is_exact_zero(self):
        """Parallel copies inserted then deleted must cancel every counter
        to exact zero — the invariant streaming deletes rely on."""
        sketch = AGMSketch.empty(8, rng=14)
        edges = np.array([[1, 5], [1, 5], [2, 3]], dtype=np.int64)
        sketch.update_edges(edges)
        sketch.update_edges(edges, -np.ones(3, dtype=np.int64))
        for r in sketch.rounds:
            assert not r.totals.any()
            assert not r.moments.any()
            assert not r.fingers.any()

    def test_delete_is_negated_insert(self):
        a = AGMSketch.empty(10, rng=15)
        b = AGMSketch.empty(10, rng=15)
        edges = np.array([[0, 7], [3, 4]], dtype=np.int64)
        a.update_edges(edges, np.array([2, -1], dtype=np.int64))
        b.update_edges(edges, np.array([-2, 1], dtype=np.int64))
        for ra, rb in zip(a.rounds, b.rounds):
            assert np.array_equal(ra.totals, -rb.totals)
            assert np.array_equal(ra.moments, -rb.moments)

    def test_decode_after_streamed_deletes(self):
        """Split a path by deleting its middle edge via a -1 update."""
        g = path_graph(12)
        sketch = AGMSketch.from_graph(g, rng=16)
        sketch.update_edges(np.array([[5, 6]]), np.array([-1], dtype=np.int64))
        from repro.sketch import agm_decode_components

        labels = agm_decode_components(sketch)
        assert labels[5] != labels[6]
        assert np.all(labels[:6] == labels[0])
        assert np.all(labels[6:] == labels[6])

    def test_update_validation(self):
        sketch = AGMSketch.empty(4, rng=17)
        with pytest.raises(ValueError, match="out of range"):
            sketch.update_edges(np.array([[0, 4]]))
        with pytest.raises(ValueError, match="weights shape"):
            sketch.update_edges(
                np.array([[0, 1]]), np.array([1, 1], dtype=np.int64)
            )

    def test_self_loops_and_zero_weights_ignored(self):
        sketch = AGMSketch.empty(6, rng=18)
        sketch.update_edges(
            np.array([[2, 2], [0, 1]]), np.array([5, 0], dtype=np.int64)
        )
        for r in sketch.rounds:
            assert not r.totals.any()


class TestBugfixRegressions:
    def test_deepest_level_wins_cut_edge_sampling(self):
        """Scanning from the end must keep the *deepest* level's decode;
        plain dict assignment used to let the shallowest overwrite it."""
        from repro.sketch.agm import RoundSketch, _sample_cut_edges
        from repro.sketch.hashing import MERSENNE_P, KWiseHash

        n, base = 4, 7
        shallow_id = 0 * n + 1   # edge (0, 1) decoded at level 0
        deep_id = 2 * n + 3      # edge (2, 3) decoded at level 1
        totals = np.zeros((n, 2, 1, 1), dtype=np.int64)
        moments = np.zeros_like(totals)
        fingers = np.zeros_like(totals)
        for level, edge_id in ((0, shallow_id), (1, deep_id)):
            totals[0, level, 0, 0] = 1
            moments[0, level, 0, 0] = edge_id
            fingers[0, level, 0, 0] = pow(base, edge_id, MERSENNE_P)
        sketch = RoundSketch(
            n=n, universe=n * n, level_hash=KWiseHash(2, 0),
            row_hashes=[KWiseHash(2, 1)], fingerprint_base=base,
            totals=totals, moments=moments, fingers=fingers,
        )
        planes = [(0, np.stack([totals, moments, fingers]).reshape(3, n, -1))]
        samples = _sample_cut_edges(sketch, planes, np.zeros(n, dtype=np.int64))
        assert samples == {0: (2, 3)}  # the deep edge, not the shallow one

    def test_int_seed_round_sketch_has_independent_row_hashes(self):
        """An int seed must be normalised once — every hash used to get
        identical coefficients from re-seeding."""
        from repro.sketch.agm import RoundSpec

        spec = RoundSpec.draw(32, 123, sparsity=4, rows=3)
        coeff_sets = [tuple(h.coefficients.tolist()) for h in spec.row_hashes]
        coeff_sets.append(tuple(spec.level_hash.coefficients.tolist()))
        assert len(set(coeff_sets)) == len(coeff_sets)

    def test_empty_vertex_set_decodes_to_empty_labels(self):
        """``n = 0`` used to crash on the max of an empty label array."""
        labels, _ = agm_connected_components(Graph(0, []), rng=22)
        decoded = agm_decode_components(AGMSketch.empty(0, 22))
        for got in (labels, decoded):
            assert got.dtype == np.int64 and got.shape == (0,)

    def test_from_graph_reserves_verification_round(self):
        sketch = AGMSketch.from_graph(cycle_graph(16), rng=19, boruvka_rounds=5)
        assert len(sketch.rounds) == 6
        assert len(sketch.merge_rounds) == 5
        assert sketch.verification_round is sketch.rounds[-1]

    def test_verification_round_never_merged(self, monkeypatch):
        """The quiescence check must use a sketch no merge ever consumed."""
        import repro.sketch.agm as agm

        calls = []
        original = agm._sample_cut_edges

        def spy(round_sketch, planes, labels):
            samples = original(round_sketch, planes, labels)
            calls.append((round_sketch, bool(samples)))
            return samples

        monkeypatch.setattr(agm, "_sample_cut_edges", spy)
        g = path_graph(64)
        sketch = AGMSketch.from_graph(g, rng=20)
        labels, _ = agm_connected_components(g, rng=20, sketch=sketch)
        assert np.all(labels == 0)
        merge_sketches = {id(s) for s, produced in calls if produced}
        assert id(sketch.verification_round) not in merge_sketches

    def test_exhausted_rounds_verified_by_fresh_sketch(self, monkeypatch):
        """When merge rounds run out, the failure must be certified by the
        reserved verification sketch — queried exactly once, last."""
        import repro.sketch.agm as agm

        calls = []
        original = agm._sample_cut_edges

        def spy(round_sketch, planes, labels):
            samples = original(round_sketch, planes, labels)
            calls.append(round_sketch)
            return samples

        monkeypatch.setattr(agm, "_sample_cut_edges", spy)
        g = path_graph(64)
        sketch = AGMSketch.from_graph(g, rng=21, boruvka_rounds=2)
        with pytest.raises(RuntimeError, match="exhausted"):
            agm_connected_components(g, rng=21, sketch=sketch)
        assert calls[-1] is sketch.verification_round
        assert sum(1 for s in calls if s is sketch.verification_round) == 1


class TestFingerprintPowers:
    """``r^i = (r^n)^(i // n) · r^(i mod n) mod p`` from two length-n
    tables, against Python's ``pow``."""

    @staticmethod
    def _table_powers(base, n, ids):
        ids = np.asarray(ids, dtype=np.int64)
        quotient, remainder = np.divmod(ids, n)
        return _fingerprint_powers(base, n, quotient, remainder)

    @pytest.mark.parametrize("base", [2, MERSENNE_P - 2])
    @pytest.mark.parametrize("n", [1, 2, 3, 2048, 46340])
    def test_edge_ids_match_pow(self, n, base):
        ids = [i for i in (0, n - 1, n, n * n - 1) if i < n * n]
        ids += np.random.default_rng(n).integers(0, n * n, 200).tolist()
        got = self._table_powers(base, n, ids)
        assert got.dtype == np.int64
        assert got.tolist() == [pow(base, i, MERSENNE_P) for i in ids]

    @settings(max_examples=50, deadline=None)
    @given(
        n=st.integers(1, 46340),
        base=st.integers(2, MERSENNE_P - 2),
        data=st.data(),
    )
    def test_random_ids_match_pow(self, n, base, data):
        ids = data.draw(st.lists(st.integers(0, n * n - 1), min_size=1, max_size=20))
        got = self._table_powers(base, n, ids)
        assert got.tolist() == [pow(base, i, MERSENNE_P) for i in ids]

    def test_tables_cached_read_only(self):
        """A round's tables are built once per ``(base, n)`` and shared,
        so no caller may write into them."""
        first = _power_tables(5, 2048)
        second = _power_tables(5, 2048)
        assert all(a is b for a, b in zip(first, second))
        for table in first:
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 2
        assert _power_tables(7, 2048)[1][1] == 7

    def test_ingest_blocks_unchanged(self):
        """The ingest kernel's blocks for one fixed stream, as a digest
        recorded when fingerprints were still raised by
        square-and-multiply."""
        n = 97
        _specs, params = _draw_layout(n, 2024, boruvka_rounds=4, sparsity=3, rows=2)
        rng = np.random.default_rng(7)
        cells = params["levels"] * params["row_coeffs"].shape[1] * params["cols"]
        ranges = [(0, 40), (40, 97)]
        blocks = [np.zeros((5, 3, hi - lo, cells), dtype=np.int64) for lo, hi in ranges]
        for _ in range(6):
            edges = rng.integers(0, n, size=(50, 2))
            weights = rng.integers(-3, 4, size=50)
            for (lo, hi), block in zip(ranges, blocks):
                sketch_update_partial(block, edges, weights, vlo=lo, vhi=hi, **params)
        digest = hashlib.sha256()
        for block in blocks:
            digest.update(block.tobytes())
        assert digest.hexdigest() == (
            "664897565de5f46e2c92cda741dd7e436cef8fe32f62d47bf6f50cb96dc41f5d"
        )
