"""Sequential connectivity reference and structural queries.

``connected_components`` is the ground truth against which every MPC
algorithm is validated.  ``is_component_partition`` checks the paper's
component-partition notion (Section 2: every part induces a connected
subgraph), and ``diameter`` supports the Claim 6.13 experiments.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse.csgraph as csgraph

from repro.graph.graph import Graph


def connected_components(graph: Graph) -> np.ndarray:
    """Labels in ``0..k-1`` for each vertex, canonicalised so that labels
    appear in order of their smallest vertex."""
    if graph.n == 0:
        return np.empty(0, dtype=np.int64)
    adj = graph.adjacency_matrix()
    _, raw = csgraph.connected_components(adj, directed=False)
    return canonical_labels(raw)


def canonical_labels(labels: np.ndarray) -> np.ndarray:
    """Relabel arbitrary component labels to ``0..k-1`` in first-seen order."""
    labels = np.asarray(labels)
    _, first_pos = np.unique(labels, return_index=True)
    order = np.argsort(first_pos, kind="stable")
    remap = np.empty(order.size, dtype=np.int64)
    remap[order] = np.arange(order.size)
    _, inverse = np.unique(labels, return_inverse=True)
    return remap[inverse]


def component_count(graph: Graph) -> int:
    if graph.n == 0:
        return 0
    return int(connected_components(graph).max()) + 1


def component_sizes(labels: np.ndarray) -> np.ndarray:
    """Sizes indexed by label."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size == 0:
        return np.empty(0, dtype=np.int64)
    return np.bincount(labels)


def components_agree(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two labelings induce the same partition."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        return False
    return bool(np.array_equal(canonical_labels(a), canonical_labels(b)))


def is_component_partition(graph: Graph, labels: np.ndarray) -> bool:
    """The paper's component-partition predicate (Section 2): every class of
    ``labels`` must induce a *connected* subgraph of ``graph``.

    Unlike :func:`components_agree` this does not require classes to be
    maximal — intermediate states of ``GrowComponents`` are component
    partitions without being the final components.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (graph.n,):
        return False
    true_labels = connected_components(graph)
    for part in np.unique(labels):
        vertices = np.flatnonzero(labels == part)
        if vertices.size <= 1:
            continue
        # All vertices of the part must be in one true component...
        if np.unique(true_labels[vertices]).size != 1:
            return False
        # ...and the part must itself induce a connected subgraph.
        sub, _ = graph.subgraph(vertices)
        if component_count(sub) != 1:
            return False
    return True


def bfs_distances(graph: Graph, source: int) -> np.ndarray:
    """Hop distances from ``source`` (unreachable = -1)."""
    dist = np.full(graph.n, -1, dtype=np.int64)
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    level = 0
    indptr, heads = graph.indptr, graph.heads
    while frontier.size:
        level += 1
        # Gather all neighbours of the frontier in one shot.
        spans = [heads[indptr[v] : indptr[v + 1]] for v in frontier]
        nxt = np.unique(np.concatenate(spans)) if spans else np.empty(0, np.int64)
        nxt = nxt[dist[nxt] < 0]
        dist[nxt] = level
        frontier = nxt
    return dist


def diameter(graph: Graph, *, exact_threshold: int = 400, rng=None) -> int:
    """Diameter of a connected graph.

    Exact (all-pairs BFS) below ``exact_threshold`` vertices; above that, a
    multi-start double-sweep lower bound, which is exact on the expander
    workloads we use it for (their eccentricities are all within one of
    each other).  Raises if the graph is disconnected.
    """
    if graph.n == 0:
        return 0
    if component_count(graph) != 1:
        raise ValueError("diameter is undefined for disconnected graphs")
    if graph.n <= exact_threshold:
        adj = graph.adjacency_matrix()
        dist = csgraph.shortest_path(adj, method="D", unweighted=True)
        return int(dist.max())
    from repro.utils.rng import ensure_rng

    rng = ensure_rng(rng)
    best = 0
    for _ in range(4):
        start = int(rng.integers(graph.n))
        d1 = bfs_distances(graph, start)
        far = int(np.argmax(d1))
        d2 = bfs_distances(graph, far)
        best = max(best, int(d2.max()))
    return best


def spanning_forest_is_valid(graph: Graph, tree_edges: np.ndarray) -> bool:
    """Whether ``tree_edges`` (an ``(k, 2)`` array of vertex pairs, each an
    edge of ``graph`` up to orientation) forms a spanning forest: acyclic and
    connecting exactly the true components."""
    from repro.graph.union_find import DisjointSetUnion

    tree_edges = np.asarray(tree_edges, dtype=np.int64).reshape(-1, 2)
    # Every tree edge must exist in the graph (as an undirected pair).
    if tree_edges.size:
        graph_set = {tuple(sorted(e)) for e in graph.edges.tolist()}
        for u, v in tree_edges.tolist():
            if (min(u, v), max(u, v)) not in graph_set:
                return False
    dsu = DisjointSetUnion(graph.n)
    for u, v in tree_edges.tolist():
        if not dsu.union(int(u), int(v)):
            return False  # cycle
    return components_agree(dsu.labels(), connected_components(graph))
