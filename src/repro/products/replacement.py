"""The replacement product ``G r H`` on non-regular base graphs (Section 4).

Every vertex ``v`` of ``G`` (degree ``d_v``) is replaced by a "cloud": a copy
of a ``d``-regular graph on ``d_v`` vertices.  Cloud vertex ``(v, i)``
represents the ``i``-th incidence (port) of ``v``; intra-cloud edges are the
cloud graph's, and for every edge of ``G`` where ``v`` is the ``i``-th
neighbour of ``u`` and ``u`` the ``j``-th neighbour of ``v``, the product
joins ``(u, i)`` to ``(v, j)``.  The result is ``(d+1)``-regular on ``2m``
vertices, its components correspond 1-1 to those of ``G``, and by
Proposition 4.2 its spectral gap is ``Ω(d⁻¹ λ₂(G) λ_H²)``.

The construction is fully vectorised over the port (rotation) maps exposed
by :class:`repro.graph.Graph` and charges the engine the ``O(1/δ)`` MPC
rounds of Lemma 4.6.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.graph import Graph
from repro.mpc.engine import MPCEngine, ensure_engine
from repro.utils.validation import check_positive_int


@dataclass(frozen=True)
class ReplacementProduct:
    """Result of ``G r H``.

    Attributes
    ----------
    graph:
        The ``(d+1)``-regular product graph on ``2m`` vertices.
    cloud_of:
        For each product vertex, the base vertex whose cloud contains it —
        the projection used to pull component labels of the product back to
        ``G`` (Lemma 4.1, part 2).
    port_of:
        For each product vertex, its port index within the cloud.
    cloud_degree:
        The cloud regularity ``d`` (product graph is ``(d+1)``-regular).
    """

    graph: Graph
    cloud_of: np.ndarray
    port_of: np.ndarray
    cloud_degree: int

    def project_labels(self, product_labels: np.ndarray) -> np.ndarray:
        """Pull product-vertex labels back to base-graph vertices.

        All cloud vertices of a base vertex always share a component (clouds
        are connected), so projecting via any representative is sound; we
        take the first port of each base vertex.
        """
        product_labels = np.asarray(product_labels)
        if product_labels.shape[0] != self.graph.n:
            raise ValueError("label array does not match product graph size")
        n_base = int(self.cloud_of.max()) + 1 if self.cloud_of.size else 0
        first_port = np.full(n_base, -1, dtype=np.int64)
        # Iterate in reverse so the first occurrence wins.
        first_port[self.cloud_of[::-1]] = np.arange(self.graph.n - 1, -1, -1)
        return product_labels[first_port]


def replacement_product(
    base: Graph,
    clouds: "dict[int, Graph]",
    *,
    engine: "MPCEngine | None" = None,
) -> ReplacementProduct:
    """Construct ``G r H`` (Section 4, ``ReplacementProduct``).

    Parameters
    ----------
    base:
        The graph ``G``; must have no isolated vertices (the paper's
        standing assumption ``d_v ≥ 1``, Section 2).
    clouds:
        One ``d``-regular graph per distinct degree of ``base``
        (from :func:`repro.products.expanders.regular_graph_construction`);
        ``clouds[k]`` must have exactly ``k`` vertices.
    """
    engine = ensure_engine(engine)
    if base.n == 0:
        raise ValueError("replacement product of an empty graph")
    degrees = np.asarray(base.degrees)
    if int(degrees.min()) == 0:
        raise ValueError(
            "base graph has isolated vertices; the paper assumes d_v >= 1 "
            "(strip isolated vertices before regularizing)"
        )

    cloud_degree = None
    for size in np.unique(degrees):
        size = int(size)
        if size not in clouds:
            raise ValueError(f"no cloud provided for degree {size}")
        cloud = clouds[size]
        if cloud.n != size:
            raise ValueError(
                f"cloud for degree {size} has {cloud.n} vertices, expected {size}"
            )
        if not cloud.is_regular():
            raise ValueError(f"cloud for degree {size} is not regular")
        d = cloud.degree(0) if cloud.n > 0 else 0
        if cloud_degree is None:
            cloud_degree = d
        elif cloud_degree != d:
            raise ValueError(
                f"clouds disagree on degree: {cloud_degree} vs {d} (size {size})"
            )
    cloud_degree = check_positive_int(int(cloud_degree), "cloud degree")

    # Product vertex (v, i) -> offset[v] + i, with offset = prefix degrees.
    offsets = np.zeros(base.n + 1, dtype=np.int64)
    np.cumsum(degrees, out=offsets[1:])
    total = int(offsets[-1])  # = 2m

    cloud_of = np.repeat(np.arange(base.n, dtype=np.int64), degrees)
    port_of = np.arange(total, dtype=np.int64) - offsets[cloud_of]

    # Intra-cloud edges: tile each degree class's cloud edges over its
    # vertices (vectorised per distinct degree).
    intra_blocks = []
    for size in np.unique(degrees):
        size = int(size)
        cloud_edges = clouds[size].edges
        members = np.flatnonzero(degrees == size)
        if cloud_edges.shape[0] == 0 or members.size == 0:
            continue
        tiled = np.tile(cloud_edges, (members.size, 1))
        shift = np.repeat(offsets[members], cloud_edges.shape[0])
        intra_blocks.append(tiled + shift[:, None])

    # Inter-cloud edges: one product edge per base edge, joining the two
    # ports via the rotation map.  CSR slot s (owned by u at port p) and its
    # twin t (owned by v at port q) give the product edge
    # (offset[u]+p, offset[v]+q); keep each base edge once via s < twin.
    twins = base.twin_slot
    slots = np.flatnonzero(np.arange(twins.size) < twins)
    end_a = slots  # slot index == offset[u] + port by CSR construction
    end_b = twins[slots]
    inter = np.stack([end_a, end_b], axis=1).astype(np.int64)

    edge_blocks = intra_blocks + ([inter] if inter.size else [])
    edges = (
        np.concatenate(edge_blocks, axis=0)
        if edge_blocks
        else np.empty((0, 2), dtype=np.int64)
    )
    product = Graph(total, edges)

    with engine.phase("ReplacementProduct"):
        # Lemma 4.6: annotate each base edge with both endpoints' cloud
        # offsets (a parallel search), then one shuffle to materialise
        # the product edges next to their clouds.
        engine.charge_search(2 * base.m, label="annotate ports")
        engine.charge_shuffle(2 * base.m + edges.shape[0], label="emit product edges")
        engine.note_data_volume(edges.shape[0] + total)

    return ReplacementProduct(
        graph=product,
        cloud_of=cloud_of,
        port_of=port_of,
        cloud_degree=cloud_degree,
    )
