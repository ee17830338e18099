"""Spectral machinery: normalized Laplacian, spectral gap, Cheeger bounds.

The paper's central parameter is the *spectral gap* ``λ₂(G)`` — the second
smallest eigenvalue of the normalized Laplacian ``L = I - D^{-1/2} A D^{-1/2}``
(Section 2.1).  For a disconnected input the relevant quantity is the
minimum gap over connected components (the λ of Theorem 1), computed here by
:func:`min_component_spectral_gap`.

Multiplicities follow the multigraph conventions of :class:`repro.graph.Graph`
(parallel edges add weight, a self-loop adds 2 to both its diagonal adjacency
entry and its endpoint degree), which keeps ``L``'s spectrum consistent with
the random-walk matrix used in Section 2.2.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.graph.components import connected_components
from repro.graph.graph import Graph

#: Below this many vertices we use dense eigensolvers (more robust and not
#: slower at small scale).
_DENSE_THRESHOLD = 600


def normalized_adjacency(graph: Graph) -> sp.csr_matrix:
    """``N = D^{-1/2} A D^{-1/2}`` with multigraph weights."""
    if graph.n == 0:
        return sp.csr_matrix((0, 0))
    adj = graph.adjacency_matrix()
    deg = np.asarray(graph.degrees, dtype=np.float64)
    if np.any(deg == 0):
        raise ValueError(
            "normalized adjacency undefined for isolated vertices "
            "(the paper assumes d_v >= 1 throughout, Section 2)"
        )
    inv_sqrt = 1.0 / np.sqrt(deg)
    scale = sp.diags(inv_sqrt)
    return (scale @ adj @ scale).tocsr()


def normalized_laplacian(graph: Graph) -> sp.csr_matrix:
    """``L = I - N`` (Section 2.1)."""
    norm_adj = normalized_adjacency(graph)
    return (sp.identity(graph.n, format="csr") - norm_adj).tocsr()


def laplacian_spectrum(graph: Graph) -> np.ndarray:
    """All eigenvalues of ``L``, ascending.  Dense computation — intended
    for graphs of at most a few thousand vertices (tests and calibration)."""
    lap = normalized_laplacian(graph).toarray()
    return np.linalg.eigvalsh(lap)


def spectral_gap(graph: Graph) -> float:
    """``λ₂(G)`` for a *connected* graph ``G``.

    Uses a dense solver for small graphs; for larger ones computes the two
    largest eigenvalues of the normalized adjacency ``N`` (a well-conditioned
    Lanczos target) and returns ``1 - μ₂``, which equals ``λ₂(L)``.
    """
    if graph.n == 0:
        raise ValueError("spectral gap undefined for the empty graph")
    if graph.n == 1:
        # Convention: a single vertex (with or without self-loops) is
        # perfectly connected.
        return 1.0
    labels = connected_components(graph)
    if labels.max() != 0:
        raise ValueError(
            "spectral_gap expects a connected graph; use "
            "min_component_spectral_gap for disconnected inputs"
        )
    if graph.n <= _DENSE_THRESHOLD:
        spectrum = laplacian_spectrum(graph)
        return float(max(spectrum[1], 0.0))
    norm_adj = normalized_adjacency(graph)
    # A fixed start vector makes the gap a function of the graph alone
    # (ARPACK's default start is random).  Not all-ones: that is the top
    # eigenvector of a regular graph's N, where the Krylov space collapses.
    v0 = np.random.default_rng(0).random(graph.n)
    vals = spla.eigsh(
        norm_adj, k=2, which="LA", return_eigenvectors=False, tol=1e-8, v0=v0
    )
    mu2 = float(np.min(vals))
    return max(1.0 - mu2, 0.0)


def component_spectral_gaps(graph: Graph) -> "list[float]":
    """``λ₂`` of every connected component, in label order."""
    labels = connected_components(graph)
    gaps = []
    for comp in range(int(labels.max()) + 1 if labels.size else 0):
        vertices = np.flatnonzero(labels == comp)
        sub, _ = graph.subgraph(vertices)
        gaps.append(spectral_gap(sub))
    return gaps


def min_component_spectral_gap(graph: Graph) -> float:
    """The λ of Theorem 1: the smallest component spectral gap."""
    gaps = component_spectral_gaps(graph)
    if not gaps:
        raise ValueError("graph has no vertices")
    return min(gaps)


def two_sided_spectral_gap(graph: Graph) -> float:
    """``1 - max_{i≥2} |μ_i|`` for the normalized adjacency eigenvalues
    ``μ_1 = 1 ≥ μ_2 ≥ ... ≥ μ_n``.

    This is the contraction factor of one walk step on the space orthogonal
    to the stationary distribution — the quantity the Rozenman–Vadhan
    decomposition (Prop. C.4) actually requires of the cloud graphs in
    Propositions 4.2/C.1 (``λ₂`` alone ignores near-bipartite eigenvalues
    at ``-1``).  Dense computation, intended for cloud-sized graphs.
    """
    if graph.n <= 1:
        return 1.0
    mat = normalized_adjacency(graph).toarray()
    eigenvalues = np.linalg.eigvalsh(mat)
    # eigenvalues ascending; drop the top (trivial) one.
    others = np.abs(eigenvalues[:-1])
    return float(max(0.0, 1.0 - others.max()))


def cheeger_bounds(gap: float) -> "tuple[float, float]":
    """Cheeger's inequality (Section 2.1, [15]): the conductance ``h`` of a
    graph with spectral gap ``λ₂`` satisfies ``λ₂/2 ≤ h ≤ sqrt(2 λ₂)``."""
    if not 0.0 <= gap <= 2.0:
        raise ValueError(f"spectral gap must lie in [0, 2], got {gap}")
    return gap / 2.0, float(np.sqrt(2.0 * gap))


def is_connected_via_gap(graph: Graph) -> bool:
    """``λ₂ > 0`` iff connected (Section 2.1) — used as a cross-check of the
    combinatorial component finder in tests."""
    if graph.n <= 1:
        return True
    spectrum = laplacian_spectrum(graph)
    return bool(spectrum[1] > 1e-9)
