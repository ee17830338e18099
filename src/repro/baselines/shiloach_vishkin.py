"""Shiloach–Vishkin PRAM connectivity [57] — the three-decade-old
O(log n)-step comparator the paper's introduction cites.

Standard formulation with a parent forest ``D``:

1. *conditional hooking*: a root-star may hook onto a smaller-labelled
   neighbour root;
2. *shortcutting*: one pointer-jumping step ``D[v] = D[D[v]]``;

iterated until nothing changes.  Each iteration is O(1) PRAM steps (and
would be O(1) MPC shuffles), and the classical analysis gives O(log n)
iterations.  The implementation is vectorised; correctness is validated
against the sequential reference in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.components import canonical_labels
from repro.graph.graph import Graph
from repro.mpc.engine import MPCEngine, ensure_engine


@dataclass(frozen=True)
class ShiloachVishkinResult:
    labels: np.ndarray
    iterations: int


def shiloach_vishkin_components(
    graph: Graph,
    *,
    engine: "MPCEngine | None" = None,
    max_iterations: "int | None" = None,
) -> ShiloachVishkinResult:
    """Connected components via hook-and-shortcut (O(log n) iterations)."""
    engine = ensure_engine(engine)
    n = graph.n
    if max_iterations is None:
        max_iterations = 8 * max(1, int(np.ceil(np.log2(max(n, 2))))) + 16
    parent = np.arange(n, dtype=np.int64)
    edges = graph.edges
    if edges.shape[0] == 0:
        return ShiloachVishkinResult(labels=parent, iterations=0)
    u = np.concatenate([edges[:, 0], edges[:, 1]])
    v = np.concatenate([edges[:, 1], edges[:, 0]])

    iterations = 0
    while iterations < max_iterations:
        before = parent.copy()

        # Conditional hooking: for edge (u, v), if u's parent is a root
        # and v's parent is smaller, hook.  np.minimum.at resolves write
        # conflicts by taking the smallest candidate (a valid CRCW rule).
        pu = parent[u]
        pv = parent[v]
        is_root = parent[pu] == pu
        candidates = is_root & (pv < pu)
        if candidates.any():
            np.minimum.at(parent, pu[candidates], pv[candidates])

        # Shortcutting (pointer jumping).
        parent = parent[parent]

        iterations += 1
        engine.charge_shuffle(edges.shape[0], label="SV hook")
        engine.charge_search(n, label="SV shortcut")
        if np.array_equal(parent, before):
            break
    else:
        raise RuntimeError("Shiloach-Vishkin did not converge")

    # Final compression to roots.
    for _ in range(max_iterations):
        compressed = parent[parent]
        if np.array_equal(compressed, parent):
            break
        parent = compressed
    return ShiloachVishkinResult(
        labels=canonical_labels(parent), iterations=iterations
    )
