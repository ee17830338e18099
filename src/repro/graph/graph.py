"""An immutable undirected multigraph in CSR form, with port numbering.

The paper's constructions need three features that rule out the usual
"simple graph as dict of sets" representation:

* **parallel edges and self-loops** — the random-graph model ``G(n, d)``
  (Section 2.3) and the permutation construction ``G_{n,d}`` (Section 4)
  both produce them, and regularity counts them (a self-loop contributes 2
  to its endpoint's degree, as in a random-walk transition matrix);
* **port numbering** — the replacement product (Section 4) wires
  "the i-th neighbour of u" to "the j-th neighbour of v", so every
  half-edge needs a stable local index and a pointer to its twin;
* **vectorised access** — benches walk hundreds of thousands of vertices,
  so adjacency is stored as numpy CSR arrays.

Half-edge layout: undirected edge ``e = (u, v)`` (by edge id) owns the two
half-edges ``2e`` (``u → v``) and ``2e + 1`` (``v → u``).  A self-loop owns
two half-edges as well, both incident to its endpoint, which makes the
degree convention automatic.  ``Graph.twin_slot`` maps a CSR slot to the
CSR slot of the opposite half-edge — exactly the "rotation map" used by
replacement/zig-zag products.

The CSR arrays are frozen at construction: :attr:`Graph.indptr`,
:attr:`Graph.heads` and :attr:`Graph.halfedges` are read-only,
C-contiguous ``int64`` arrays owning their data, handed out as they are
(the walk sampler reads a regular graph's ``heads`` as its port table);
each row's slots are in port order (edge-id order).
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp

from repro.mpc.kernels import stable_order
from repro.utils.validation import check_nonnegative_int


class Graph:
    """Undirected multigraph on vertices ``0..n-1`` (parallel edges and
    self-loops allowed).

    Parameters
    ----------
    n:
        Number of vertices.
    edges:
        Array-like of shape ``(m, 2)`` with vertex endpoints.  Order inside
        a row is irrelevant for adjacency but is preserved for edge ids.
    """

    __slots__ = (
        "_n",
        "_edges",
        "_indptr",
        "_heads",
        "_slot_halfedge",
        "_halfedge_slot",
        "__dict__",
    )

    def __init__(self, n: int, edges: Iterable[Sequence[int]] | np.ndarray):
        self._n = check_nonnegative_int(n, "n")
        edge_array = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges)
        if edge_array.size == 0:
            edge_array = np.empty((0, 2), dtype=np.int64)
        if edge_array.ndim != 2 or edge_array.shape[1] != 2:
            raise ValueError(f"edges must have shape (m, 2), got {edge_array.shape}")
        edge_array = edge_array.astype(np.int64, copy=True)
        if edge_array.size and (edge_array.min() < 0 or edge_array.max() >= self._n):
            raise ValueError("edge endpoint out of range [0, n)")
        self._edges = edge_array
        self._build_csr()

    def _build_csr(self) -> None:
        m = self._edges.shape[0]
        # Half-edge h has source src[h] and head (target) dst[h];
        # h = 2e is u->v, h = 2e + 1 is v->u.
        src = np.empty(2 * m, dtype=np.int64)
        dst = np.empty(2 * m, dtype=np.int64)
        src[0::2] = self._edges[:, 0]
        dst[0::2] = self._edges[:, 1]
        src[1::2] = self._edges[:, 1]
        dst[1::2] = self._edges[:, 0]
        order = stable_order(src)
        self._slot_halfedge = order  # CSR slot -> half-edge id
        self._halfedge_slot = np.empty_like(order)
        self._halfedge_slot[order] = np.arange(2 * m, dtype=np.int64)
        self._heads = dst[order]
        counts = np.bincount(src, minlength=self._n)
        self._indptr = np.zeros(self._n + 1, dtype=np.int64)
        np.cumsum(counts, out=self._indptr[1:])
        for array in (self._indptr, self._heads, self._slot_halfedge):
            array.flags.writeable = False

    # -- basic queries -------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of vertices."""
        return self._n

    @property
    def m(self) -> int:
        """Number of undirected edges (parallel edges counted, self-loops
        counted once)."""
        return self._edges.shape[0]

    @property
    def edges(self) -> np.ndarray:
        """The ``(m, 2)`` edge array (read-only view)."""
        view = self._edges.view()
        view.flags.writeable = False
        return view

    @property
    def indptr(self) -> np.ndarray:
        """CSR row pointers: vertex ``v`` owns slots
        ``indptr[v]:indptr[v+1]``."""
        return self._indptr

    @property
    def heads(self) -> np.ndarray:
        """CSR adjacency heads: ``heads[indptr[v]:indptr[v+1]]`` are the
        neighbours of ``v`` in port order."""
        return self._heads

    @property
    def halfedges(self) -> np.ndarray:
        """The half-edge id held by each CSR slot (``halfedges >> 1`` is
        its edge id)."""
        return self._slot_halfedge

    @cached_property
    def degrees(self) -> np.ndarray:
        """Degree of each vertex (self-loop counts 2)."""
        deg = np.diff(self._indptr)
        deg.flags.writeable = False
        return deg

    def degree(self, v: int) -> int:
        return int(self._indptr[v + 1] - self._indptr[v])

    def neighbors(self, v: int) -> np.ndarray:
        """Neighbours of ``v`` in port order (with multiplicity)."""
        return self._heads[self._indptr[v] : self._indptr[v + 1]]

    def port_neighbor(self, v: int, port: int) -> int:
        """The ``port``-th neighbour of ``v`` (0-based)."""
        slot = self._indptr[v] + port
        if not self._indptr[v] <= slot < self._indptr[v + 1]:
            raise IndexError(f"vertex {v} has no port {port}")
        return int(self._heads[slot])

    @cached_property
    def twin_slot(self) -> np.ndarray:
        """Rotation map: for CSR slot ``s`` holding half-edge ``u → v``,
        ``twin_slot[s]`` is the CSR slot of ``v → u``.

        Subtracting ``indptr[v]`` from the twin slot recovers the *port*
        of ``u`` at ``v`` — the pairing the replacement product needs.
        """
        twins = self._halfedge_slot[self._slot_halfedge ^ 1]
        twins.flags.writeable = False
        return twins

    @cached_property
    def slot_edge_id(self) -> np.ndarray:
        """Edge id owning each CSR slot."""
        ids = self._slot_halfedge >> 1
        ids.flags.writeable = False
        return ids

    # -- structure predicates --------------------------------------------------

    @property
    def max_degree(self) -> int:
        return int(self.degrees.max()) if self._n else 0

    @property
    def min_degree(self) -> int:
        return int(self.degrees.min()) if self._n else 0

    def is_regular(self, d: int | None = None) -> bool:
        """Whether all degrees are equal (to ``d`` if given)."""
        if self._n == 0:
            return True
        if d is None:
            d = self.degree(0)
        return bool(np.all(self.degrees == d))

    def is_almost_regular(self, center: float, eps: float) -> bool:
        """The paper's ``J(1±ε)ΔK-almost-regular`` predicate (Section 2)."""
        if self._n == 0:
            return True
        low = (1.0 - eps) * center
        high = (1.0 + eps) * center
        return bool(low <= self.min_degree and self.max_degree <= high)

    @cached_property
    def self_loop_count(self) -> int:
        return int(np.count_nonzero(self._edges[:, 0] == self._edges[:, 1]))

    @cached_property
    def parallel_edge_count(self) -> int:
        """Number of edges in excess of the first copy between each pair."""
        if self.m == 0:
            return 0
        canon = np.sort(self._edges, axis=1)
        unique = np.unique(canon, axis=0)
        return int(self.m - unique.shape[0])

    # -- transformations -------------------------------------------------------

    def with_self_loops(self, loops_per_vertex: int) -> "Graph":
        """Return a copy with ``loops_per_vertex`` extra self-loops on every
        vertex.  Each loop adds 2 to the degree; the paper uses this to turn
        a ``Δ``-regular graph into the ``2Δ``-regular graph ``G̃`` whose plain
        random walk is the lazy walk of the original (Section 5.2)."""
        loops_per_vertex = check_nonnegative_int(loops_per_vertex, "loops_per_vertex")
        if loops_per_vertex == 0:
            return Graph(self._n, self._edges)
        verts = np.repeat(np.arange(self._n, dtype=np.int64), loops_per_vertex)
        loops = np.stack([verts, verts], axis=1)
        return Graph(self._n, np.concatenate([self._edges, loops], axis=0))

    def simplify(self) -> "Graph":
        """Drop self-loops and collapse parallel edges."""
        if self.m == 0:
            return Graph(self._n, self._edges)
        canon = np.sort(self._edges, axis=1)
        canon = canon[canon[:, 0] != canon[:, 1]]
        unique = np.unique(canon, axis=0) if canon.size else canon
        return Graph(self._n, unique)

    def relabel(self, mapping: np.ndarray, new_n: int | None = None) -> "Graph":
        """Apply the vertex relabelling ``v -> mapping[v]``.

        Several old vertices may map to the same new vertex (contraction);
        resulting self-loops and parallel edges are kept — use
        :meth:`simplify` to drop them (the paper's contraction graph,
        Definition 2, does exactly that).
        """
        mapping = np.asarray(mapping, dtype=np.int64)
        if mapping.shape != (self._n,):
            raise ValueError(f"mapping must have shape ({self._n},)")
        if new_n is None:
            new_n = int(mapping.max()) + 1 if mapping.size else 0
        return Graph(new_n, mapping[self._edges])

    def subgraph(self, vertices: np.ndarray) -> "tuple[Graph, np.ndarray]":
        """Induced subgraph on ``vertices``.

        Returns ``(subgraph, vertex_list)``; vertex ``i`` of the subgraph is
        ``vertex_list[i]`` of the original.
        """
        vertices = np.unique(np.asarray(vertices, dtype=np.int64))
        lookup = np.full(self._n, -1, dtype=np.int64)
        lookup[vertices] = np.arange(vertices.size)
        keep = (lookup[self._edges[:, 0]] >= 0) & (lookup[self._edges[:, 1]] >= 0)
        sub_edges = lookup[self._edges[keep]]
        return Graph(int(vertices.size), sub_edges), vertices

    # -- conversions -----------------------------------------------------------

    def adjacency_matrix(self) -> sp.csr_matrix:
        """Sparse adjacency with multiplicities; a self-loop contributes 2
        to its diagonal entry (degree convention)."""
        m = self.m
        if m == 0:
            return sp.csr_matrix((self._n, self._n))
        rows = np.concatenate([self._edges[:, 0], self._edges[:, 1]])
        cols = np.concatenate([self._edges[:, 1], self._edges[:, 0]])
        data = np.ones(2 * m)
        return sp.csr_matrix((data, (rows, cols)), shape=(self._n, self._n))

    # -- dunder ----------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Graph(n={self._n}, m={self.m})"

    def __eq__(self, other: object) -> bool:
        """Structural equality: same n and same multiset of undirected edges."""
        if not isinstance(other, Graph):
            return NotImplemented
        if self._n != other._n or self.m != other.m:
            return False
        mine = np.sort(np.sort(self._edges, axis=1), axis=0)
        theirs = np.sort(np.sort(other._edges, axis=1), axis=0)
        a = mine[np.lexsort(mine.T[::-1])]
        b = theirs[np.lexsort(theirs.T[::-1])]
        return bool(np.array_equal(a, b))

    def __hash__(self) -> int:  # Graphs are mutable-free but big; identity hash.
        return id(self)


def disjoint_union(graphs: Sequence[Graph]) -> "tuple[Graph, np.ndarray]":
    """Disjoint union of ``graphs``.

    Returns ``(union, offsets)`` where component ``i`` of the union occupies
    vertices ``offsets[i] : offsets[i+1]``.
    """
    offsets = np.zeros(len(graphs) + 1, dtype=np.int64)
    for i, g in enumerate(graphs):
        offsets[i + 1] = offsets[i] + g.n
    pieces = [g.edges + offsets[i] for i, g in enumerate(graphs) if g.m > 0]
    if pieces:
        edges = np.concatenate(pieces, axis=0)
    else:
        edges = np.empty((0, 2), dtype=np.int64)
    return Graph(int(offsets[-1]), edges), offsets
