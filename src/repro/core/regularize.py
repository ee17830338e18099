"""Step 1 — Regularization (Section 4, Lemma 4.1).

Turns an arbitrary graph ``G`` into a ``(d+1)``-regular graph ``H`` on
``2m`` vertices with a one-to-one component correspondence and (by
Proposition 4.2) mixing time ``O(log(n/γ)/λ₂(G_i))`` per component: every
vertex is replaced by a ``d``-regular expander cloud via the replacement
product, using the parallel expander construction for the clouds.

Isolated vertices (degree 0) are split off first — the paper assumes
``d_v ≥ 1`` throughout (Section 2); each isolated vertex is trivially its
own component and is re-attached by :meth:`RegularizedGraph.lift_labels`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.components import canonical_labels
from repro.graph.graph import Graph
from repro.mpc.engine import MPCEngine, ensure_engine
from repro.products.expanders import regular_graph_construction
from repro.products.replacement import ReplacementProduct, replacement_product
from repro.utils.rng import ensure_rng


@dataclass(frozen=True)
class RegularizedGraph:
    """Output of the regularization step.

    Attributes
    ----------
    graph:
        The ``Δ``-regular product graph ``H`` (``Δ = cloud degree + 1``).
    product:
        The underlying :class:`ReplacementProduct` (projection maps).
    core_vertices:
        Original vertex ids of the non-isolated vertices, in the order the
        product's base graph numbers them.
    isolated_vertices:
        Original ids of degree-0 vertices, excluded from ``graph``.
    original_n:
        Vertex count of the input graph.
    """

    graph: Graph
    product: ReplacementProduct
    core_vertices: np.ndarray
    isolated_vertices: np.ndarray
    original_n: int

    @property
    def regular_degree(self) -> int:
        """Uniform degree of the replacement product (cloud degree + 1)."""
        return self.product.cloud_degree + 1

    def lift_labels(self, product_labels: np.ndarray) -> np.ndarray:
        """Map product-vertex component labels to original-graph labels,
        re-attaching isolated vertices as singleton components."""
        core_labels = self.product.project_labels(product_labels)
        labels = np.full(self.original_n, -1, dtype=np.int64)
        labels[self.core_vertices] = core_labels
        if self.isolated_vertices.size:
            offset = int(core_labels.max()) + 1 if core_labels.size else 0
            labels[self.isolated_vertices] = offset + np.arange(
                self.isolated_vertices.size, dtype=np.int64
            )
        return canonical_labels(labels)


def regularize(
    graph: Graph,
    *,
    expander_degree: int = 8,
    rng=None,
    engine: "MPCEngine | None" = None,
) -> RegularizedGraph:
    """Lemma 4.1: build the ``(expander_degree+1)``-regular graph ``H``.

    MPC cost: the expander construction (Lemma 4.5) plus the product
    wiring (Lemma 4.6), both ``O(1/δ)`` rounds, charged on ``engine``.
    """
    rng = ensure_rng(rng)
    engine = ensure_engine(engine)
    degrees = np.asarray(graph.degrees)
    isolated = np.flatnonzero(degrees == 0)
    core = np.flatnonzero(degrees > 0)
    if core.size == 0:
        raise ValueError("graph has no edges; nothing to regularize")

    base, vertex_list = graph.subgraph(core)
    distinct_degrees = np.unique(np.asarray(base.degrees)).tolist()

    clouds = regular_graph_construction(
        distinct_degrees, expander_degree, rng=rng, engine=engine
    )
    product = replacement_product(base, clouds, engine=engine)

    return RegularizedGraph(
        graph=product.graph,
        product=product,
        core_vertices=vertex_list,
        isolated_vertices=isolated,
        original_n=graph.n,
    )
