"""Random-mate contraction: the classical Θ(log n) leader-election CC.

This is the "typical leader-election algorithm" of Section 3 whose growth
rate is only a constant factor per round — each round elects leaders with
probability 1/2 and contracts non-leader→leader stars, shrinking the
number of live components by a constant factor in expectation.  It serves
two roles in the benches: the Θ(log n) round baseline of experiment E1,
and the constant-vs-quadratic growth ablation of E14 (same code path as
``GrowComponents`` but with a flat growth target of 2 and edge reuse).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.grow import contract_batch
from repro.core.leader_election import leader_election
from repro.graph.components import canonical_labels
from repro.graph.graph import Graph
from repro.mpc.engine import MPCEngine, ensure_engine
from repro.utils.rng import ensure_rng


@dataclass(frozen=True)
class RandomMateResult:
    labels: np.ndarray
    iterations: int
    components_per_iteration: "list[int]"


def random_mate_components(
    graph: Graph,
    rng=None,
    *,
    engine: "MPCEngine | None" = None,
    leader_prob: float = 0.5,
    max_iterations: "int | None" = None,
) -> RandomMateResult:
    """Contract with p = 1/2 leader election until no cross edges remain.

    Each iteration costs one contraction sort plus the two election
    shuffles — the same charges as one ``GrowComponents`` phase, so round
    comparisons against the pipeline are apples-to-apples.
    """
    rng = ensure_rng(rng)
    engine = ensure_engine(engine)
    n = graph.n
    if max_iterations is None:
        max_iterations = 8 * max(1, int(np.ceil(np.log2(max(n, 2))))) + 16
    labels = np.arange(n, dtype=np.int64)
    edges = graph.edges
    history: "list[int]" = []
    iterations = 0
    while iterations < max_iterations:
        contracted, _ = contract_batch(labels, edges, engine=engine)
        engine.charge_sort(edges.shape[0], label="random-mate contraction")
        if contracted.shape[0] == 0:
            break
        k = int(labels.max()) + 1
        result = leader_election(k, contracted, leader_prob, rng, engine=engine)
        labels = canonical_labels(result.groups[labels])
        history.append(int(labels.max()) + 1)
        iterations += 1
    else:
        raise RuntimeError("random mate did not converge")
    return RandomMateResult(
        labels=labels,
        iterations=iterations,
        components_per_iteration=history,
    )
