"""Parallel expander construction (Section 4, ``RegularGraphConstruction``).

The regularization step replaces a degree-``d_v`` vertex with a ``d``-regular
expander on ``d_v`` vertices.  The paper constructs these as unions of
``d/2`` random permutations (the space ``G_{n,d}`` of Eq. 1), resampling
until the spectral gap passes the Friedman threshold (Prop. 4.3 / Cor. 4.4:
``λ₂ ≥ 4/5`` w.h.p. for ``d = 100``); graphs too large for one machine are
built in parallel with a sort-based permutation sampler.

Scale substitutions:

* the paper fixes ``d = 100``; we default to smaller even degrees, with the
  acceptance threshold adapted per Friedman's bound
  ``λ₂ ≳ 1 - 2 sqrt(d-1)/d`` (:func:`friedman_gap_threshold`, which for
  ``d = 100`` reproduces the paper's ``4/5``);
* for cloud sizes ``n ≤ d`` (the paper assumes ``d_v ≥ d``) we fall back to
  a circulant multigraph, which is complete-graph-like at those sizes and
  has a large gap — preserving the only property used downstream
  (``λ₂(H_v) = Ω(1)``).
"""

from __future__ import annotations

import numpy as np

from repro.graph.components import component_count
from repro.graph.generators import permutation_regular_graph
from repro.graph.graph import Graph
from repro.graph.spectral import spectral_gap
from repro.mpc.engine import MPCEngine, ensure_engine
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_positive_int

#: Paper's expander degree (Section 4); library default is smaller for scale.
PAPER_EXPANDER_DEGREE = 100
DEFAULT_EXPANDER_DEGREE = 8

#: Never try more than this many resamples before giving up loudly.
_MAX_RESAMPLE_TRIES = 200


def friedman_gap_threshold(d: int) -> float:
    """Acceptance threshold for a random ``d``-regular graph's gap.

    Friedman's theorem (Prop. 4.3, [24]) gives
    ``λ₂ ≥ 1 - (2 sqrt(d-1) + o(1))/d`` w.h.p.; we accept at
    ``1 - 2.2 sqrt(d-1)/d`` (slack for the o(1)), floored at 0.05.
    For ``d = 100`` this evaluates to ≈ 0.78, matching the paper's
    Corollary 4.4 choice of ``4/5``.
    """
    d = check_positive_int(d, "d")
    if d < 3:
        return 0.05
    return max(0.05, 1.0 - 2.2 * np.sqrt(d - 1.0) / d)


def circulant_multigraph(n: int, d: int) -> Graph:
    """The ``d``-regular circulant: vertex ``i`` joined to ``i ± j (mod n)``
    for ``j = 1..d/2``.  Well-defined for every ``n ≥ 1`` (small ``n`` wraps
    into parallel edges / self-loops); for ``n ≤ d`` it is complete-graph
    dense, hence strongly expanding — the fallback for tiny clouds."""
    n = check_positive_int(n, "n")
    d = check_positive_int(d, "d")
    if d % 2 != 0:
        raise ValueError(f"circulant construction needs even d, got {d}")
    base = np.arange(n, dtype=np.int64)
    blocks = []
    for j in range(1, d // 2 + 1):
        blocks.append(np.stack([base, (base + j) % n], axis=1))
    return Graph(n, np.concatenate(blocks, axis=0))


def build_expander(
    n: int,
    d: int = DEFAULT_EXPANDER_DEGREE,
    *,
    gap_threshold: "float | None" = None,
    rng=None,
) -> "tuple[Graph, float]":
    """A ``d``-regular expander on ``n`` vertices with ``λ₂ ≥ gap_threshold``.

    Implements step 1 of ``RegularGraphConstruction``: sample from
    ``G_{n,d}`` and retry until the gap test passes.  Returns the graph and
    its measured gap.  For ``n ≤ d + 1`` uses the circulant fallback
    (measured gap still returned and checked to be positive).
    """
    n = check_positive_int(n, "n")
    d = check_positive_int(d, "d")
    if d % 2 != 0:
        raise ValueError(f"expander degree must be even, got {d}")
    rng = ensure_rng(rng)
    if gap_threshold is None:
        gap_threshold = friedman_gap_threshold(d)

    if n <= d + 1:
        graph = circulant_multigraph(n, d)
        gap = spectral_gap(graph) if n > 1 else 1.0
        return graph, gap

    for _ in range(_MAX_RESAMPLE_TRIES):
        candidate = permutation_regular_graph(n, d, rng)
        if component_count(candidate) != 1:
            continue
        gap = spectral_gap(candidate)
        if gap >= gap_threshold:
            return candidate, gap
    raise RuntimeError(
        f"failed to sample a d={d} expander on n={n} vertices with "
        f"gap >= {gap_threshold} in {_MAX_RESAMPLE_TRIES} tries"
    )


def regular_graph_construction(
    sizes: "list[int]",
    d: int = DEFAULT_EXPANDER_DEGREE,
    *,
    gap_threshold: "float | None" = None,
    rng=None,
    engine: "MPCEngine | None" = None,
) -> "dict[int, Graph]":
    """``RegularGraphConstruction`` (Section 4): one ``d``-regular expander
    per *distinct* requested size.

    The paper builds ``H_{n_i}`` for the degree sequence of the input graph;
    each vertex's cloud is then a copy of the expander for its degree
    (Lemma 4.6), so only distinct sizes need construction.  MPC cost
    (Lemma 4.5): sizes up to the machine memory are built locally in O(1)
    rounds (packed many-per-machine); larger ones via the parallel
    sort-based permutation sampler in ``O(1/δ)`` rounds — charged on
    ``engine``.
    """
    rng = ensure_rng(rng)
    engine = ensure_engine(engine)
    distinct = sorted({check_positive_int(s, "size") for s in sizes})
    total_work = sum(distinct) * d

    with engine.phase("RegularGraphConstruction"):
        small = [s for s in distinct if s * d <= engine.machine_memory]
        large = [s for s in distinct if s * d > engine.machine_memory]
        if small:
            # Step 1: local construction, one shuffle to place them.
            engine.charge_shuffle(sum(small) * d, label="pack small expanders")
        if large:
            # Step 2: all large expanders are built by ONE parallel
            # sort over the union of their permutation keys (keys are
            # tagged by (size, permutation index), Lemma 4.5).
            large_work = sum(large) * d
            engine.charge_shuffle(large_work, label="sample permutation keys")
            engine.charge_sort(large_work, label="sort permutation keys")
        engine.note_data_volume(total_work)

    return {
        s: build_expander(s, d, gap_threshold=gap_threshold, rng=rng)[0]
        for s in distinct
    }
