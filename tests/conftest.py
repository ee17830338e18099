"""Shared test fixtures.

``sort_broadcast`` swaps the pipeline's min-label broadcast for a
sort-layout reference, so differential tests can hold the CSR broadcast
of :mod:`repro.core.bfs_tree` against an independent implementation of
the same rounds.  ``csr_min_label_reference`` does the same for one
``csr_min_label`` level.
"""

import contextlib

import numpy as np
import pytest

from repro.core import pipeline, random_graph_cc
from repro.core.bfs_tree import BroadcastResult
from repro.graph.components import canonical_labels
from repro.mpc.plan import PlanBuilder


def sort_layout_broadcast(n, edges, *, engine, max_rounds=None,
                          stop_after=None):
    """Reference for :func:`repro.core.bfs_tree.broadcast_components`.

    Same result, but no CSR index: every level scatters each edge copy's
    sending-endpoint label to its receiving endpoint over the two
    orientation arrays — one ``min_label_exchange`` plan step on
    ``engine`` — and an improved vertex records its largest delivering
    orientation position.
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if max_rounds is None:
        max_rounds = n
    labels = np.arange(n, dtype=np.int64)
    parent_edge = np.full(n, -1, dtype=np.int64)
    m = edges.shape[0]
    if m == 0:
        return BroadcastResult(
            labels=labels, tree_edges=np.empty(0, dtype=np.int64), rounds=0
        )

    u, v = edges[:, 0], edges[:, 1]
    recv = np.concatenate([v, u])
    send = np.concatenate([u, v])
    eid = np.tile(np.arange(m, dtype=np.int64), 2)
    send.setflags(write=False)
    recv.setflags(write=False)

    rounds = 0
    while rounds < max_rounds:
        if stop_after is not None and rounds >= stop_after:
            break
        builder = PlanBuilder("broadcast-level")
        outs = builder.min_label_exchange(labels, send, recv)
        new_labels, incoming = engine.run_plan(builder.build(outs))
        improved = new_labels < labels
        if not improved.any():
            break
        rounds += 1
        engine.charge_shuffle(m, label="broadcast level")
        delivering = np.flatnonzero(incoming == new_labels[recv])
        targets = recv[delivering]
        hit = improved[targets]
        best = np.full(n, -1, dtype=np.int64)
        np.maximum.at(best, targets[hit], delivering[hit])
        sel = best >= 0
        parent_edge[sel] = eid[best[sel]]
        labels = new_labels
    else:
        raise RuntimeError(f"broadcast did not stabilise within {max_rounds} rounds")

    return BroadcastResult(
        labels=canonical_labels(labels),
        tree_edges=parent_edge[parent_edge >= 0],
        rounds=rounds,
    )


@pytest.fixture
def sort_broadcast(monkeypatch):
    """A context manager under which every pipeline broadcast runs on
    :func:`sort_layout_broadcast`."""

    @contextlib.contextmanager
    def scope():
        with monkeypatch.context() as patch:
            for module in (pipeline, random_graph_cc):
                patch.setattr(
                    module, "broadcast_components", sort_layout_broadcast
                )
            yield

    return scope


def _csr_min_label_reference(labels, indptr, indices):
    """One ``csr_min_label`` level in sort layout: ``incoming =
    labels[indices]`` folded by ``np.minimum.at`` onto each slot's owning
    row, with no ``reduceat``."""
    owners = np.repeat(np.arange(indptr.shape[0] - 1), np.diff(indptr))
    incoming = labels[indices]
    new_labels = labels.copy()
    np.minimum.at(new_labels, owners, incoming)
    return new_labels, incoming


@pytest.fixture(scope="session")
def csr_min_label_reference():
    """The sort-layout reference for one ``csr_min_label`` level
    (session-scoped, so hypothesis tests may take it)."""
    return _csr_min_label_reference
