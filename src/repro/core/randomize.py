"""Step 2 — Randomization (Section 5, Lemma 5.1).

Transforms each connected component of a regular graph into (a close
approximation of) a sample from the random-graph distribution ``G(n_i, 2k)``
on the same vertex set: every vertex acquires ``k`` out-neighbours drawn
from ``k`` mutually independent lazy random walks of length ``T ≥ T_mix``.
Because a walk cannot leave its component, components are exactly preserved;
because ``T`` exceeds the mixing time, each target is ``γ``-close to uniform
over the component (the regularized graph's stationary distribution is
uniform), so the component's distribution is ``n·γ``-close in total
variation to ``G(n_i, 2k)`` — the Lemma 5.1 guarantee.

The walk targets are additionally partitioned into *batches* whose
randomness is disjoint: ``GrowComponents`` (Section 6) consumes one fresh
batch per phase to keep contraction decisions independent of the remaining
edges (the "fresh random seed" device discussed in Section 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.core.walk_engine import direct_walk_targets
from repro.graph.graph import Graph
from repro.mpc.engine import MPCEngine, ensure_engine
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_positive_int


@dataclass(frozen=True)
class RandomizedGraph:
    """Output of the randomization step.

    Attributes
    ----------
    n:
        Vertex count of the regular graph the walks ran on.
    batches:
        Edge arrays ``(n·k_b, 2)``, one per phase batch, disjoint randomness.
    walk_length:
        The length ``T`` actually walked.
    """

    n: int
    batches: "list[np.ndarray]"
    walk_length: int

    @property
    def batch_count(self) -> int:
        """Number of independent per-phase edge batches."""
        return len(self.batches)

    @cached_property
    def graph(self) -> Graph:
        """The union of all batch edges — the graph ``H`` of Lemma 5.1
        (``V(H) = V(G)``, per-vertex out-degree = ``walks_per_vertex``).

        No pipeline stage reads it (each phase consumes one batch), so it
        is built on first access only.
        """
        return Graph(self.n, np.concatenate(self.batches, axis=0))


def randomize_components(
    regular_graph: Graph,
    walk_length: int,
    *,
    batches: int,
    batch_half_degree: int,
    rng=None,
    engine: "MPCEngine | None" = None,
) -> RandomizedGraph:
    """Lemma 5.1, batched for the Section 6 preprocessing.

    Parameters
    ----------
    regular_graph:
        The ``Δ``-regular graph from the regularization step.
    walk_length:
        ``T`` — at least the ``γ``-mixing time of every component.
    batches, batch_half_degree:
        ``batches`` independent edge batches are produced, each giving every
        vertex ``batch_half_degree`` out-edges (so each batch is
        distributed as ``G(n_i, 2·batch_half_degree)`` per component).

    The ``batches · batch_half_degree`` mutually independent lazy walks
    from every vertex come from :func:`direct_walk_targets`, which
    samples the product distribution of Theorem 3's layered-graph data
    structure directly and charges the engine that structure's rounds.
    """
    walk_length = check_positive_int(walk_length, "walk_length")
    batches = check_positive_int(batches, "batches")
    batch_half_degree = check_positive_int(batch_half_degree, "batch_half_degree")
    rng = ensure_rng(rng)
    engine = ensure_engine(engine)
    n = regular_graph.n
    total_walks = batches * batch_half_degree

    targets = direct_walk_targets(
        regular_graph, walk_length, total_walks, rng, engine=engine
    )

    sources = np.repeat(np.arange(n, dtype=np.int64), batch_half_degree)
    batch_arrays = []
    for b in range(batches):
        cols = targets[:, b * batch_half_degree : (b + 1) * batch_half_degree]
        batch_arrays.append(np.stack([sources, cols.ravel()], axis=1))

    engine.charge_shuffle(n * total_walks, label="materialize H edges")

    return RandomizedGraph(n=n, batches=batch_arrays, walk_length=walk_length)
