"""Incremental connectivity over a maintained AGM sketch.

:class:`StreamingConnectivity` is the dynamic-graph subsystem: it
consumes batched edge insert/delete events, applies them as signed
updates to a maintained :class:`~repro.sketch.sharded.ShardedAGMSketch`
(linearity makes a delete exactly a ``-1`` update) through its
backend's sketch-ingest seam, and answers component / connectivity
queries between batches by Borůvka-decoding the sketch's shard partials
where they live, with no merged copy.

Two honesty mechanisms back the sketch path:

* **Oracle fallback** — sketch decoding is w.h.p.-correct for *one*
  decode per sketch; repeated queries against an evolving stream reuse
  the same shared randomness, so decoding can degrade (the decoder then
  raises rather than return wrong labels).  On failure — or every
  ``recompute_every`` batches, unconditionally — the structure runs a
  full from-scratch recompute through
  :func:`repro.core.mpc_connected_components` (any registered
  connectivity engine on any execution backend) and **rebuilds** the
  sketch from the live multiset with fresh randomness, restoring the
  independence the w.h.p. guarantee needs.
* **Exact multiset** — the live edge multiset is kept alongside the
  sketch (dict of edge-id → multiplicity), so deletes of absent edges
  are rejected before anything mutates and the oracle always recomputes
  from the true current graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.pipeline import PipelineConfig, mpc_connected_components
from repro.graph.components import canonical_labels
from repro.graph.graph import Graph
from repro.mpc.backends import make_backend
from repro.mpc.kernels import stable_order
from repro.sketch.agm import agm_decode_components
from repro.sketch.sharded import ShardedAGMSketch, SketchStats
from repro.streaming.events import EventBatch
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_positive_int


@dataclass
class StreamingStats:
    """Counters describing how a :class:`StreamingConnectivity` ran.

    ``sketch`` is the live :class:`~repro.sketch.sharded.SketchStats` of
    the structure's sketch ingest, accumulated across rebuilds.
    """

    batches_applied: int = 0
    events_applied: int = 0
    sketch_queries: int = 0
    decode_failures: int = 0
    scheduled_recomputes: int = 0
    full_recomputes: int = 0
    sketch_rebuilds: int = 0
    oracle_rounds: int = 0
    sketch: SketchStats = field(default_factory=SketchStats)
    extra: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        """Serializable counter snapshot (one schema everywhere)."""
        return {
            "batches_applied": self.batches_applied,
            "events_applied": self.events_applied,
            "sketch_queries": self.sketch_queries,
            "decode_failures": self.decode_failures,
            "scheduled_recomputes": self.scheduled_recomputes,
            "full_recomputes": self.full_recomputes,
            "sketch_rebuilds": self.sketch_rebuilds,
            "oracle_rounds": self.oracle_rounds,
            "sketch": self.sketch.to_json(),
        }


class StreamingConnectivity:
    """Batched insert/delete connectivity on a maintained AGM sketch.

    Parameters
    ----------
    n:
        Number of vertices (fixed for the structure's lifetime).
    rng:
        Seed or generator; drives the sketch randomness, every rebuild's
        fresh randomness, and the oracle pipeline's randomness — the
        whole run is reproducible from it.
    spectral_gap_bound, config:
        Forwarded to the oracle recompute
        (:func:`~repro.core.mpc_connected_components`); the pipeline's
        honest verification broadcast keeps oracle labels exact even
        when the bound is loose for the current graph.
    engine, backend:
        Connectivity-engine and execution-backend specs for the oracle
        recompute — any registered name or instance, exactly as the
        dispatch seam accepts them.  ``backend`` also carries the sketch
        ingest: a name builds an ingest backend this object owns (and
        :meth:`close` closes), an instance is used as it is.
    recompute_every:
        Force a full recompute (and sketch rebuild) on the first query
        after every this-many applied batches, regardless of sketch
        health; ``None`` recomputes only on decode failure.
    sparsity, rows, boruvka_rounds:
        Sketch shape knobs, forwarded to :meth:`ShardedAGMSketch.empty`.
    sketch_shards:
        Owner-vertex shards of the maintained
        :class:`~repro.sketch.sharded.ShardedAGMSketch` (default 1),
        updated through the ingest backend's seam and gathered only at
        decode time.
    workers:
        Worker count for an *owned* ingest backend built from a string
        ``backend`` spec (``"process"``/``"rpc"``); ignored for specs
        without a worker pool and for backend instances (already
        configured).
    """

    def __init__(
        self,
        n: int,
        *,
        rng=None,
        spectral_gap_bound: float = 0.1,
        config: "PipelineConfig | None" = None,
        engine="paper",
        backend="local",
        recompute_every: "int | None" = None,
        sparsity: int = 4,
        rows: int = 3,
        boruvka_rounds: "int | None" = None,
        sketch_shards: int = 1,
        workers: "int | None" = None,
    ):
        self.n = check_positive_int(n, "n")
        self._rng = ensure_rng(rng)
        self._gap_bound = float(spectral_gap_bound)
        self._config = config or PipelineConfig()
        self._engine = engine
        self._backend = backend
        if recompute_every is not None:
            recompute_every = check_positive_int(recompute_every, "recompute_every")
        self._recompute_every = recompute_every
        self._sketch_shape = dict(
            sparsity=sparsity, rows=rows, boruvka_rounds=boruvka_rounds
        )
        self._sketch_shards = check_positive_int(sketch_shards, "sketch_shards")
        if workers is not None:
            workers = check_positive_int(workers, "workers")
        options = (
            {"workers": workers}
            if workers is not None and backend in ("process", "rpc")
            else {}
        )
        self._ingest_backend = make_backend(backend, **options)
        self._owns_ingest_backend = isinstance(backend, str)
        self.stats = StreamingStats()
        self._sketch_dirty = False
        self._sketch = self._new_sketch()
        self._multiplicity: "dict[int, int]" = {}
        self._batches_since_recompute = 0
        self._cached_labels: "np.ndarray | None" = canonical_labels(
            np.arange(n, dtype=np.int64)
        )

    def _new_sketch(self) -> ShardedAGMSketch:
        """Fresh sketch over fresh randomness on the ingest backend."""
        return ShardedAGMSketch.empty(
            self.n,
            self._rng,
            shards=self._sketch_shards,
            backend=self._ingest_backend,
            stats=self.stats.sketch,
            **self._sketch_shape,
        )

    # -- updates -------------------------------------------------------------

    def apply(self, batch: EventBatch) -> None:
        """Apply one event batch to the sketch and the live multiset.

        Validates the whole batch against the current multiset first —
        a delete that would drive any edge's multiplicity negative
        raises :class:`ValueError` and nothing is mutated.  While the
        sketch is dirty (closed, or interrupted by a failed batch) only
        the multiset is updated: the next :meth:`query` rebuilds the
        sketch from it.
        """
        edges = batch.edges
        if edges.size and (edges.min() < 0 or edges.max() >= self.n):
            raise ValueError(f"edge endpoint out of range [0, {self.n})")
        lo = np.minimum(edges[:, 0], edges[:, 1])
        hi = np.maximum(edges[:, 0], edges[:, 1])
        edge_ids = lo * self.n + hi
        unique_ids, inverse = np.unique(edge_ids, return_inverse=True)
        deltas = np.zeros(unique_ids.shape[0], dtype=np.int64)
        np.add.at(deltas, inverse, batch.weights)
        current = np.fromiter(
            (self._multiplicity.get(edge_id, 0) for edge_id in unique_ids.tolist()),
            dtype=np.int64,
            count=unique_ids.shape[0],
        )
        negative = deltas < -current
        if negative.any():
            edge_id = int(unique_ids[np.flatnonzero(negative)[0]])
            u, v = divmod(edge_id, self.n)
            raise ValueError(
                f"batch would delete edge ({u}, {v}) below multiplicity 0"
            )
        # Sketch before multiset: the sketch update is the only step that
        # can still fail (a parallel backend can die mid-batch), and on
        # failure the multiset must keep describing the last good prefix.
        if not self._sketch_dirty:
            try:
                self._sketch.update_edges(edges, batch.weights)
            except Exception:
                self._sketch_dirty = True
                raise
        updated = current + deltas
        for edge_id, value in zip(unique_ids.tolist(), updated.tolist()):
            if value:
                self._multiplicity[edge_id] = value
            else:
                self._multiplicity.pop(edge_id, None)
        self.stats.batches_applied += 1
        self.stats.events_applied += batch.size
        self._batches_since_recompute += 1
        self._cached_labels = None

    def apply_edges(self, edges, weights=None) -> None:
        """Shorthand: wrap raw arrays in an :class:`EventBatch` and apply."""
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if weights is None:
            weights = np.ones(edges.shape[0], dtype=np.int64)
        self.apply(EventBatch(edges, weights))

    # -- state ---------------------------------------------------------------

    @property
    def edge_count(self) -> int:
        """Total multiplicity of the live multiset."""
        return sum(self._multiplicity.values())

    def current_graph(self) -> Graph:
        """Materialise the live multiset as a :class:`Graph`.

        Edges come out sorted by edge id with multiplicity expanded to
        parallel rows, so the materialisation is deterministic — the
        oracle and the differential tests rely on that.
        """
        if not self._multiplicity:
            return Graph(self.n, np.empty((0, 2), dtype=np.int64))
        ids = np.fromiter(self._multiplicity.keys(), dtype=np.int64)
        counts = np.fromiter(self._multiplicity.values(), dtype=np.int64)
        order = stable_order(ids)
        ids, counts = ids[order], counts[order]
        expanded = np.repeat(ids, counts)
        return Graph(self.n, np.column_stack([expanded // self.n, expanded % self.n]))

    def graph_digest(self) -> str:
        """Content digest of the live multiset's deterministic materialisation.

        The exact key :mod:`repro.service` caches connectivity results
        under (:func:`repro.mpc.plan.graph_digest`), so a streaming
        maintainer can hand its current prefix to a long-lived
        :class:`~repro.service.ServiceClient` and hit the server's cache
        whenever the same multiset has been queried before —
        :meth:`current_graph` orders edges deterministically precisely
        so equal multisets digest equal.
        """
        from repro.mpc.plan import graph_digest

        graph = self.current_graph()
        return graph_digest(graph.n, graph.edges)

    # -- queries -------------------------------------------------------------

    def query(self) -> np.ndarray:
        """Canonical component labels for the current stream prefix.

        Decodes the maintained sketch; on decode failure — or when the
        ``recompute_every`` schedule is due — falls back to the full
        oracle recompute and rebuilds the sketch with fresh randomness.
        Labels are cached until the next :meth:`apply`.
        """
        if self._cached_labels is not None:
            return self._cached_labels.copy()
        if (
            self._recompute_every is not None
            and self._batches_since_recompute >= self._recompute_every
        ):
            self.stats.scheduled_recomputes += 1
            labels = self._full_recompute()
        elif self._sketch_dirty:
            # The sketch is closed, or a backend failure interrupted an
            # ingest batch so it may hold a partially applied update —
            # never decode it.
            self.stats.decode_failures += 1
            labels = self._full_recompute()
        else:
            try:
                # The decode collects the partials inside the try, so a
                # lost pool or a closed arena surfaces here as a
                # RuntimeError and falls back.
                labels = agm_decode_components(self._sketch)
                self.stats.sketch_queries += 1
            except RuntimeError:
                self.stats.decode_failures += 1
                labels = self._full_recompute()
        self._cached_labels = labels
        return labels.copy()

    def connected(self, u: int, v: int) -> bool:
        """Whether ``u`` and ``v`` are currently in the same component."""
        labels = self.query()
        return bool(labels[u] == labels[v])

    def component_count(self) -> int:
        """Number of components in the current labelling."""
        labels = self.query()
        return int(labels.max()) + 1 if labels.size else 0

    # -- the oracle ----------------------------------------------------------

    def recompute(self) -> np.ndarray:
        """Force the oracle recompute (and sketch rebuild) right now.

        Returns the fresh canonical labels; afterwards the sketch carries
        fresh randomness over the live multiset, exactly as if it had
        just been built from scratch.
        """
        self.stats.scheduled_recomputes += 1
        labels = self._full_recompute()
        self._cached_labels = labels
        return labels.copy()

    def _full_recompute(self) -> np.ndarray:
        """From-scratch recompute + sketch rebuild with fresh randomness."""
        graph = self.current_graph()
        result = mpc_connected_components(
            graph,
            self._gap_bound,
            config=self._config,
            rng=self._rng,
            engine=self._engine,
            backend=self._backend,
        )
        self.stats.full_recomputes += 1
        self.stats.oracle_rounds += result.rounds
        self._rebuild_sketch()
        self._batches_since_recompute = 0
        return canonical_labels(result.labels)

    def _rebuild_sketch(self) -> None:
        """Fresh-randomness sketch rebuilt from the live multiset."""
        # Dirty until the rebuild's ingest completes: a failure part-way
        # must not leave a half-built sketch for the next query.
        self._sketch_dirty = True
        self._sketch.close()
        self._sketch = self._new_sketch()
        graph = self.current_graph()
        if graph.m:
            self._sketch.update_edges(graph.edges)
        self._sketch_dirty = False
        self.stats.sketch_rebuilds += 1

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Release the sketch partials and any ingest backend this object owns.

        Idempotent.  The structure stays usable: the sketch is dirty
        from here on, so :meth:`apply` updates only the multiset and the
        next uncached query falls back to the oracle, which rebuilds the
        sketch (restarting owned pools if needed).
        """
        self._sketch_dirty = True
        self._sketch.close()
        if self._owns_ingest_backend:
            self._ingest_backend.close()
