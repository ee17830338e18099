"""The leader-election primitive (Section 6, ``LeaderElection``).

On an (almost) ``d·s``-regular graph, electing each vertex a leader with
probability ``1/d`` gives every non-leader ``≈ s`` leader neighbours
(concentrated, since ``s`` is the oversampling factor); each non-leader
joins a uniformly random leader neighbour, and the resulting stars are
components of size ``≈ d`` (Lemma 6.4, the "equipartition" lemma).

The implementation is vectorised over an edge array of the contraction
graph.  Non-leaders with no leader neighbour keep ``M(v) = ⊥`` (returned as
-1) and survive as their own components — the paper ignores them because
its constants make them vanishingly rare; at library scale they simply are
handled by later phases or the final broadcast stage, with the extra rounds
counted honestly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.mpc.engine import MPCEngine, ensure_engine
from repro.mpc.kernels import stable_order
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_nonnegative_int, check_probability


@dataclass(frozen=True)
class LeaderElectionResult:
    """Outcome of one ``LeaderElection`` round.

    Attributes
    ----------
    is_leader:
        Boolean per vertex.
    leader_of:
        For a matched non-leader, the chosen leader ``M(v)``; for a leader,
        itself; -1 for unmatched non-leaders (``M(v) = ⊥``).
    chosen_edge:
        For matched non-leaders, the index (into the input edge array) of
        the edge used to join the leader; -1 otherwise.  These edges are
        the spanning-tree certificates of Claim 6.12.
    """

    is_leader: np.ndarray
    leader_of: np.ndarray
    chosen_edge: np.ndarray

    @property
    def groups(self) -> np.ndarray:
        """Component representative per vertex: the leader for matched
        vertices, self for everyone else (leaders and unmatched)."""
        fallback = np.arange(self.leader_of.shape[0], dtype=np.int64)
        return np.where(self.leader_of >= 0, self.leader_of, fallback)

    def component_sizes(self) -> np.ndarray:
        """Sizes of the returned star components (Lemma 6.4's ``|S_i|``)."""
        return np.bincount(self.groups, minlength=self.leader_of.shape[0])[
            np.unique(self.groups)
        ]


def leader_election(
    n: int,
    edges: np.ndarray,
    leader_prob: float,
    rng=None,
    *,
    engine: "MPCEngine | None" = None,
) -> LeaderElectionResult:
    """``LeaderElection`` on the graph ``([n], edges)``.

    ``edges`` is an ``(m, 2)`` array (self-loops allowed but never used for
    matching; parallel edges bias the uniform choice the same way parallel
    edges would in the paper's contraction graph, so callers deduplicate
    first as Definition 2 requires).

    MPC cost: two shuffles — one to broadcast leader flags along edges, one
    for the non-leaders' choices (Claim 6.5's O(1) rounds).
    """
    n = check_nonnegative_int(n, "n")
    leader_prob = check_probability(leader_prob, "leader_prob")
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    rng = ensure_rng(rng)
    engine = ensure_engine(engine)

    is_leader = rng.random(n) < leader_prob
    leader_of = np.full(n, -1, dtype=np.int64)
    leader_of[is_leader] = np.flatnonzero(is_leader)
    chosen_edge = np.full(n, -1, dtype=np.int64)

    if edges.shape[0]:
        u, v = edges[:, 0], edges[:, 1]
        not_loop = u != v
        # Candidate incidences: non-leader endpoint -> leader endpoint.
        forward = not_loop & ~is_leader[u] & is_leader[v]
        backward = not_loop & is_leader[u] & ~is_leader[v]
        src = np.concatenate([u[forward], v[backward]])
        dst = np.concatenate([v[forward], u[backward]])
        eid = np.concatenate([np.flatnonzero(forward), np.flatnonzero(backward)])
        if src.size:
            # Uniform choice per non-leader: the candidate of lowest
            # random priority.
            winners = _winners(src, rng.random(src.size))
            leader_of[src[winners]] = dst[winners]
            chosen_edge[src[winners]] = eid[winners]

    with engine.phase("LeaderElection"):
        engine.charge_shuffle(edges.shape[0], label="broadcast leader flags")
        engine.charge_shuffle(edges.shape[0], label="choose leaders")

    return LeaderElectionResult(
        is_leader=is_leader, leader_of=leader_of, chosen_edge=chosen_edge
    )


def _winners(src: np.ndarray, priority: np.ndarray) -> np.ndarray:
    """The position of each source's winner among its candidates: the
    lowest ``priority``, and on a tie the first in input order; one per
    distinct source, by ascending source.

    These are the first positions per source of ``np.lexsort((priority,
    src))``: the stable order of ``src`` keeps each source's candidates
    in input order, so the first position that attains its group's
    minimum breaks ties as the lexsort does.
    """
    order = stable_order(src)
    ranked = src[order]
    starts = np.empty(ranked.shape[0], dtype=bool)
    starts[0] = True
    np.not_equal(ranked[1:], ranked[:-1], out=starts[1:])
    boundaries = np.flatnonzero(starts)
    drawn = priority[order]
    best = np.minimum.reduceat(drawn, boundaries)
    group = np.cumsum(starts) - 1
    attains = np.flatnonzero(drawn == best[group])
    first = np.empty(attains.shape[0], dtype=bool)
    first[0] = True
    np.not_equal(group[attains[1:]], group[attains[:-1]], out=first[1:])
    return order[attains[first]]
