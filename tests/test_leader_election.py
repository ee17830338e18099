"""Tests for LeaderElection (Section 6, Lemma 6.4)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import Interval
from repro.core import leader_election
from repro.core.leader_election import _winners
from repro.graph import paper_random_graph
from repro.mpc import MPCEngine


class TestMechanics:
    def test_leaders_point_to_themselves(self):
        edges = np.array([(0, 1), (1, 2), (2, 3)])
        result = leader_election(4, edges, 1.0, rng=0)
        assert np.array_equal(result.leader_of, np.arange(4))

    def test_no_leaders_all_unmatched(self):
        edges = np.array([(0, 1), (1, 2)])
        result = leader_election(3, edges, 0.0, rng=0)
        assert np.all(result.leader_of == -1)
        assert np.array_equal(result.groups, np.arange(3))

    def test_matched_vertices_choose_neighbors(self):
        rng = np.random.default_rng(1)
        g = paper_random_graph(60, 10, rng=rng)
        edges = g.simplify().edges
        result = leader_election(60, edges, 0.3, rng=rng)
        adjacency = {tuple(sorted(e)) for e in edges.tolist()}
        for v in range(60):
            leader = result.leader_of[v]
            if leader >= 0 and leader != v:
                assert (min(v, leader), max(v, leader)) in adjacency
                assert result.is_leader[leader]
                assert not result.is_leader[v]

    def test_chosen_edge_consistent(self):
        rng = np.random.default_rng(2)
        g = paper_random_graph(40, 8, rng=rng)
        edges = g.simplify().edges
        result = leader_election(40, edges, 0.25, rng=rng)
        for v in np.flatnonzero(result.chosen_edge >= 0):
            edge = edges[result.chosen_edge[v]]
            assert v in edge
            assert result.leader_of[v] in edge

    def test_self_loops_never_matched(self):
        edges = np.array([(0, 0), (1, 1)])
        result = leader_election(2, edges, 0.5, rng=0)
        for v in range(2):
            assert result.leader_of[v] in (-1, v)

    def test_groups_are_stars(self):
        rng = np.random.default_rng(3)
        g = paper_random_graph(80, 12, rng=rng)
        edges = g.simplify().edges
        result = leader_election(80, edges, 0.2, rng=rng)
        groups = result.groups
        # Every group representative is a leader or a singleton.
        for v in range(80):
            rep = groups[v]
            assert result.is_leader[rep] or rep == v

    def test_empty_edges(self):
        result = leader_election(5, np.empty((0, 2)), 0.5, rng=0)
        assert np.all(result.groups == np.arange(5))

    def test_engine_two_shuffles(self):
        edges = np.array([(0, 1)])
        engine = MPCEngine(100)
        leader_election(2, edges, 0.5, rng=0, engine=engine)
        assert engine.rounds == 2


def _lexsort_winners(src, priority):
    """The reference: each source's first position in ``np.lexsort((priority,
    src))``, its lowest priority with ties left in input order."""
    order = np.lexsort((priority, src))
    ranked = src[order]
    first = np.ones(ranked.size, dtype=bool)
    first[1:] = ranked[1:] != ranked[:-1]
    return order[first]


class TestWinners:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_winners_match_lexsort(self, data):
        """One stable order of the sources picks the lexsort's winners,
        also when a source's lowest priority is tied (few priority
        levels) and for sources too wide to pack."""
        m = data.draw(st.integers(1, 200), label="m")
        top = data.draw(st.sampled_from([3, 50, 2**62]), label="top")
        src = np.array(
            data.draw(st.lists(st.integers(0, top), min_size=m, max_size=m)),
            dtype=np.int64,
        )
        levels = data.draw(st.sampled_from([1, 2, 3, 2**53]), label="levels")
        priority = np.array(
            data.draw(st.lists(st.integers(0, levels - 1), min_size=m, max_size=m)),
            dtype=np.float64,
        ) / levels
        assert np.array_equal(_winners(src, priority), _lexsort_winners(src, priority))

    def test_leader_election_keeps_lexsort_choices(self):
        """The draws are unchanged, so the matching is the lexsort's."""
        g = paper_random_graph(500, 12, rng=np.random.default_rng(7))
        edges = g.simplify().edges
        result = leader_election(500, edges, 0.2, rng=11)
        rng = np.random.default_rng(11)
        is_leader = rng.random(500) < 0.2
        u, v = edges[:, 0], edges[:, 1]
        forward = ~is_leader[u] & is_leader[v]
        backward = is_leader[u] & ~is_leader[v]
        src = np.concatenate([u[forward], v[backward]])
        eid = np.concatenate([np.flatnonzero(forward), np.flatnonzero(backward)])
        winners = _lexsort_winners(src, rng.random(src.size))
        expected = np.full(500, -1, dtype=np.int64)
        expected[src[winners]] = eid[winners]
        assert np.array_equal(result.is_leader, is_leader)
        assert np.array_equal(result.chosen_edge, expected)


class TestEquipartition:
    def test_lemma_6_4_component_sizes(self):
        """On an (almost) d·s-regular random graph with leader probability
        1/d, star sizes concentrate in J(1±3ε)dK (Lemma 6.4 — tested with
        generous statistical slack for the scaled-down s)."""
        rng = np.random.default_rng(4)
        d, s = 20, 50  # degree d*s = 1000
        n = 4000
        g = paper_random_graph(n, d * s, rng=rng)
        edges = g.simplify().edges
        result = leader_election(n, edges, 1.0 / d, rng=rng)
        sizes = result.component_sizes()
        matched_fraction = np.mean(result.leader_of >= 0)
        assert matched_fraction > 0.99
        interval = Interval.one_pm(0.5) * d
        inside = np.mean(
            [(interval.low <= x <= interval.high) for x in sizes]
        )
        assert inside > 0.9

    def test_star_size_mean_tracks_inverse_probability(self):
        rng = np.random.default_rng(5)
        n = 3000
        g = paper_random_graph(n, 400, rng=rng)
        edges = g.simplify().edges
        result = leader_election(n, edges, 1.0 / 10, rng=rng)
        sizes = result.component_sizes()
        assert sizes.mean() == pytest.approx(10, rel=0.35)
