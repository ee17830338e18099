"""Immutable zero-copy CSR index for the executor stack.

:class:`~repro.graph.graph.Graph` already stores adjacency in CSR form,
but its arrays are private and rebuilt per graph object.  The executor
stack (plan IR, backends, engines) needs a *standalone* CSR value it can
ship through ``ShmArena`` segments and across the RPC wire: a frozen
triple ``(indptr, indices, halfedges)`` built once from an ``(m, 2)``
edge list.

Layout (identical to the graph core): undirected edge ``e = (u, v)``
owns half-edges ``2e`` (``u → v``) and ``2e + 1`` (``v → u``); CSR slot
``s`` in ``indptr[v]:indptr[v+1]`` holds one half-edge *into* ``v``'s
adjacency row — ``indices[s]`` is the head (neighbour) and
``halfedges[s]`` the owning half-edge id, so ``halfedges[s] >> 1``
recovers the edge id.  Slots are ordered by ``(owner, head)`` via a
stable lexsort, so every neighbour run is sorted — a deterministic,
seed-independent layout.

Zero-copy contract: every array is a fresh C-contiguous ``int64`` buffer
owning its data (``base is None``) with the writeable flag cleared, which
is exactly what :meth:`repro.mpc.arena.ShmArena` pinning requires — the
process backend uploads each array to shared memory once and workers
attach read-only views for the whole broadcast loop, and the RPC backend
ships each array across the wire once per content digest.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_nonnegative_int


def build_csr_arrays(
    edges: np.ndarray, n: int
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """Build the frozen CSR triple ``(indptr, indices, halfedges)``.

    Pure function shared by :meth:`CSRIndex.from_edges` and the
    ``build_csr`` plan transform.  Handles every edge-list shape the
    generators produce: empty graphs, isolated vertices, duplicate /
    parallel edges (each copy keeps its own slots), and self-loops
    (two slots on the same row, one per half-edge).

    Parameters
    ----------
    edges:
        ``(m, 2)`` integer endpoints in ``[0, n)``.
    n:
        Vertex count (rows of the index; isolated vertices get empty
        runs).

    Returns
    -------
    tuple
        ``(indptr, indices, halfedges)`` — fresh C-contiguous ``int64``
        arrays, each owning its data, with ``indptr.shape == (n + 1,)``
        and ``indptr[-1] == len(indices) == len(halfedges) == 2 m``.

    Raises
    ------
    ValueError
        ``edges`` is not ``(m, 2)``-shaped or has endpoints outside
        ``[0, n)``.
    """
    n = check_nonnegative_int(n, "n")
    edges = np.asarray(edges, dtype=np.int64)
    if edges.size == 0:
        edges = edges.reshape(0, 2)
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise ValueError(f"edges must have shape (m, 2), got {edges.shape}")
    if edges.size and (edges.min() < 0 or edges.max() >= n):
        raise ValueError("edge endpoint out of range [0, n)")
    m = edges.shape[0]
    # Half-edge h has source src[h] and head dst[h]; h = 2e is u -> v,
    # h = 2e + 1 is v -> u — the same convention as the graph core.
    src = np.empty(2 * m, dtype=np.int64)
    dst = np.empty(2 * m, dtype=np.int64)
    src[0::2] = edges[:, 0]
    dst[0::2] = edges[:, 1]
    src[1::2] = edges[:, 1]
    dst[1::2] = edges[:, 0]
    # Stable (owner, head) order: deterministic and head-sorted per row.
    order = np.lexsort((dst, src))
    indices = np.ascontiguousarray(dst[order])
    halfedges = np.ascontiguousarray(order.astype(np.int64, copy=False))
    counts = np.bincount(src, minlength=n) if m else np.zeros(n, dtype=np.int64)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr, indices, halfedges


def _own_readonly(array: np.ndarray, name: str) -> np.ndarray:
    """``array`` as a read-only C-contiguous ``int64`` owning its data.

    Arrays that already satisfy the zero-copy contract are used as-is
    (no copy); anything writeable, strided, or viewing another buffer
    is copied once and frozen — the rule that lets :meth:`CSRIndex.adopt`
    wrap both freshly built arrays and replayed plan outputs.
    """
    out = np.ascontiguousarray(array)
    if out.dtype != np.int64:
        raise ValueError(f"{name} must be int64, got {out.dtype}")
    if out.flags.writeable or out.base is not None:
        out = out.copy()
    out.setflags(write=False)
    return out


class CSRIndex:
    """A frozen CSR adjacency index over ``n`` vertices and ``m`` edges.

    Every instance satisfies the zero-copy contract: ``indptr``,
    ``indices``, and ``halfedges`` are read-only C-contiguous ``int64``
    arrays owning their data, eligible for ``ShmArena`` read-only
    pinning and wire-level digest dedup without copies.  Because the
    layout is symmetric (both half-edges of every edge get a slot), one
    index serves as both the in- and out-neighbourhood view.

    Build one with :meth:`from_edges` / :meth:`from_graph`, or wrap
    already-built arrays (e.g. the outputs of the ``build_csr`` plan
    transform after a trace replay) with :meth:`adopt`.
    """

    __slots__ = ("n", "m", "indptr", "indices", "halfedges")

    def __init__(
        self,
        n: int,
        indptr: np.ndarray,
        indices: np.ndarray,
        halfedges: np.ndarray,
    ):
        """Validate and freeze the triple (see :meth:`adopt`)."""
        self.n = check_nonnegative_int(n, "n")
        indptr = _own_readonly(indptr, "indptr")
        indices = _own_readonly(indices, "indices")
        halfedges = _own_readonly(halfedges, "halfedges")
        if indptr.shape != (self.n + 1,):
            raise ValueError(
                f"indptr must have shape ({self.n + 1},), got {indptr.shape}"
            )
        if indptr[0] != 0 or (np.diff(indptr) < 0).any():
            raise ValueError("indptr must start at 0 and be non-decreasing")
        slots = int(indptr[-1])
        if indices.shape != (slots,) or halfedges.shape != (slots,):
            raise ValueError(
                f"indices/halfedges must have shape ({slots},), got "
                f"{indices.shape} / {halfedges.shape}"
            )
        if slots % 2:
            raise ValueError("slot count must be even (two per edge)")
        if slots and (
            indices.min() < 0
            or indices.max() >= self.n
            or halfedges.min() < 0
            or halfedges.max() >= slots
        ):
            raise ValueError("indices/halfedges value out of range")
        self.m = slots // 2
        self.indptr = indptr
        self.indices = indices
        self.halfedges = halfedges

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_edges(cls, n: int, edges: np.ndarray) -> "CSRIndex":
        """Build the index from an ``(m, 2)`` edge list."""
        return cls(n, *build_csr_arrays(edges, n))

    @classmethod
    def from_graph(cls, graph) -> "CSRIndex":
        """Build the index from a :class:`~repro.graph.graph.Graph`."""
        return cls.from_edges(graph.n, graph.edges)

    @classmethod
    def adopt(
        cls,
        n: int,
        indptr: np.ndarray,
        indices: np.ndarray,
        halfedges: np.ndarray,
    ) -> "CSRIndex":
        """Wrap already-built CSR arrays, validating the invariants.

        Arrays that already meet the zero-copy contract (read-only,
        owning, contiguous ``int64``) are adopted without copying;
        anything else — e.g. the writeable outputs a trace replay
        materialises — is copied once and frozen.
        """
        return cls(n, indptr, indices, halfedges)

    # -- derived views -------------------------------------------------------

    @property
    def degrees(self) -> np.ndarray:
        """Per-vertex slot counts (a self-loop contributes 2)."""
        return np.diff(self.indptr)

    @property
    def edge_ids(self) -> np.ndarray:
        """Edge id owning each CSR slot (``halfedges >> 1``)."""
        return self.halfedges >> 1

    @property
    def nbytes(self) -> int:
        """Total bytes across the three frozen arrays."""
        return (
            self.indptr.nbytes + self.indices.nbytes + self.halfedges.nbytes
        )

    def slot_owners(self) -> np.ndarray:
        """The vertex owning each CSR slot (row expansion of ``indptr``)."""
        return np.repeat(
            np.arange(self.n, dtype=np.int64), self.degrees
        )

    def neighbors(self, v: int) -> np.ndarray:
        """Neighbours of ``v`` in sorted order (with multiplicity)."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def to_edges(self) -> np.ndarray:
        """Reconstruct the exact ``(m, 2)`` edge list the index was built
        from — same edge ids, same endpoint order within each row.

        Every edge owns one even half-edge (``2e``: stored endpoint
        order) and one odd half-edge (``2e + 1``: reversed), so reading
        the even slots recovers ``(u, v)`` and the odd slots confirm it.
        """
        owner = self.slot_owners()
        out = np.empty((self.m, 2), dtype=np.int64)
        even = (self.halfedges & 1) == 0
        e = self.halfedges >> 1
        out[e[even], 0] = owner[even]
        out[e[even], 1] = self.indices[even]
        out[e[~even], 1] = owner[~even]
        out[e[~even], 0] = self.indices[~even]
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CSRIndex(n={self.n}, m={self.m})"
