"""Sharded, mergeable AGM sketches: parallel streaming ingest by linearity.

The AGM sketch is *linear*: the sketch of an edge multiset is the
elementwise sum of the sketches of any partition of that multiset.  This
module exploits the dual reading — partition the *vertices* into
contiguous owner ranges, keep one per-shard partial block of the
:class:`~repro.sketch.agm.AGMSketch` layout, and route each update batch
to all shards, where each shard scatters only the incidence updates
whose owner it holds.  The ranges are contiguous and disjoint, and every
partial's fingerprints are reduced mod p at batch boundaries, so the
partials laid end to end along the vertex axis
(:meth:`ShardedAGMSketch.merge`) are **bit-identical** to an
:class:`~repro.sketch.agm.AGMSketch` fed the same stream.  Decoding
needs no such copy: :func:`~repro.sketch.agm.agm_decode_components`
reads the gathered partials in place (:meth:`ShardedAGMSketch.partials`)
and sums each over its own range, so it returns the labels of that
one-block sketch — decode never knows the ingest was parallel.

Where the partials live is the backend's business: the backend a
sketch ingests on places them once, in its ``_place_sketch_partials``
hook, and owns them from then on.

* ``local`` (the default) / ``sharded`` — plain numpy arrays, updated
  by the vectorized per-shard kernel in-process;
* ``process`` — :class:`~repro.mpc.arena.ShmArena` segments leased for
  the sketch's lifetime from the persistent arena; workers attach once and scatter in place, so
  the parent never copies a partial;
* ``rpc`` — partials are *resident in the workers* (the parent holds no
  copy); update batches ship digest-deduped over the wire and partials
  come back only at decode time.

:func:`~repro.sketch.agm.sketch_update_partial` is the one shared
kernel: it operates on plain arrays (hash coefficients, not hash
objects), so the pooled ``sketch_update`` kernel of
:mod:`repro.mpc.kernels` runs exactly the code the in-process path and
:meth:`AGMSketch.update_edges <repro.sketch.agm.AGMSketch.update_edges>`
run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.mpc.backends import LocalBackend
from repro.sketch.agm import (
    AGMSketch,
    RoundSpec,
    _checked_batch,
    _draw_layout,
    sketch_update_partial,
)
from repro.sketch.hashing import MERSENNE_P
from repro.utils.validation import check_positive_int

#: The :meth:`SketchStats.to_json` key set, zero-filled.
SKETCH_STATS_ZERO = {"shard_updates": 0, "merges": 0, "partial_words": 0}


@dataclass
class SketchStats:
    """Counters for sharded sketch ingest and decode-time gathers.

    ``shard_updates`` counts per-shard kernel invocations (one per shard
    per applied batch), ``merges`` counts decode-time gathers of the
    partials (:meth:`ShardedAGMSketch.partials`, one per decode or
    :meth:`~ShardedAGMSketch.merge`), and ``partial_words`` is the
    int64 words currently held across all shard partials (equal to one
    ``AGMSketch`` block — sharding splits the block, it does not grow
    it).
    """

    shard_updates: int = 0
    merges: int = 0
    partial_words: int = 0

    def to_json(self) -> dict:
        """The counters under the stable one-schema key set."""
        return {
            "shard_updates": int(self.shard_updates),
            "merges": int(self.merges),
            "partial_words": int(self.partial_words),
        }


class SketchPartial:
    """One shard's partial: the owner range plus its counter block.

    :attr:`data` is the live ``(rounds, 3, vhi - vlo, cells)`` array — a
    plain array in-process, an arena-lease view on the process backend,
    or ``None`` when the partial is resident in an rpc worker.  ``lease``
    keeps the arena segment alive for the arena-backed case; the
    backend that places the partial sets one or the other.
    """

    def __init__(self, vlo: int, vhi: int, data=None):
        self.vlo = vlo
        self.vhi = vhi
        self._data = data
        self.lease = None

    @property
    def data(self) -> "np.ndarray | None":
        """The counter block.  An arena-backed partial reads it through
        its lease on every access, so once the arena closes (the backend
        closed, or a worker death closed it) a read raises
        :class:`~repro.mpc.arena.ArenaLeaseError` — a ``RuntimeError`` —
        instead of touching unmapped memory."""
        if self.lease is not None:
            return self.lease.view
        return self._data

    @data.setter
    def data(self, value: np.ndarray) -> None:
        if self.lease is not None:
            self.lease.view[...] = value
        else:
            self._data = value

    @property
    def descriptor(self):
        """The shared-memory descriptor workers attach to (arena-backed
        partials only)."""
        if self.lease is None:
            raise RuntimeError("sketch partial has no shared-memory lease")
        return self.lease.descriptor

    def release(self) -> None:
        """Release the arena lease (idempotent; no-op without one).  The
        released lease stays attached, so later reads raise."""
        if self.lease is not None:
            self.lease.release()
        self._data = None


class SketchPartialStore:
    """The backend-facing handle for a sharded sketch's partials.

    Backends receive this object through
    :meth:`~repro.mpc.backends.ExecutionBackend.sketch_update` /
    ``sketch_collect``: it carries one :class:`SketchPartial` per owner
    range and the plain-array kernel parameters (``params``).  The
    partials start empty; the backend the sketch ingests on places them
    (``_place_sketch_partials``).  ``token`` and ``residency`` stay
    ``None`` unless that backend keeps the partials in its workers: the
    rpc backend records the key they live under and its pool generation,
    which makes partial loss loud instead of silent.
    """

    def __init__(self, ranges: "list[tuple[int, int]]", params: dict):
        self.partials = [SketchPartial(vlo, vhi) for vlo, vhi in ranges]
        self.params = params
        self.token: "str | None" = None
        self.residency: "int | None" = None

    @property
    def shard_count(self) -> int:
        """Number of shard partials."""
        return len(self.partials)

    def partial_shape(self, part: SketchPartial) -> "tuple[int, int, int, int]":
        """The ``(rounds, 3, vhi - vlo, cells)`` shape of ``part``'s
        counter block."""
        params = self.params
        rounds = int(params["bases"].shape[0])
        cells = params["levels"] * int(params["row_coeffs"].shape[1]) * params["cols"]
        return (rounds, 3, part.vhi - part.vlo, cells)

    def local_partial_data(self) -> "list[np.ndarray]":
        """The partial arrays, for in-process updates and decode reads.

        Raises :class:`RuntimeError` when a partial is not held in this
        process (worker-resident, or released).
        """
        blocks = [part.data for part in self.partials]
        if any(block is None for block in blocks):
            raise RuntimeError(
                "sketch partials are worker-resident (or released), not "
                "held in this process; go through the owning backend"
            )
        return blocks

    def apply_serial(self, edges: np.ndarray, weights: np.ndarray) -> int:
        """Run the shared kernel over every partial in-process; returns
        incidence updates applied."""
        applied = 0
        for part, block in zip(self.partials, self.local_partial_data()):
            applied += sketch_update_partial(
                block,
                edges,
                weights,
                vlo=part.vlo,
                vhi=part.vhi,
                **self.params,
            )
        return applied

    def close(self) -> None:
        """Release any arena leases held by the partials (idempotent)."""
        for part in self.partials:
            part.release()


class ShardedAGMSketch:
    """An AGM sketch whose updates are range-partitioned across shards.

    Drop-in ingest replacement for :class:`~repro.sketch.agm.AGMSketch`:
    ``update_edges`` routes batches through the owning backend's
    ``sketch_update`` seam, :func:`~repro.sketch.agm.agm_decode_components`
    decodes it from :meth:`partials` in place, and :meth:`merge` lays
    the partials end to end as one :class:`AGMSketch` — bit-identical
    to one fed the same stream.  Created with the same seed, ``empty`` draws the
    exact randomness ``AGMSketch.empty`` would (the
    :class:`~repro.sketch.agm.RoundSpec` contract), which is what makes
    the bit-identity testable.
    """

    def __init__(self, n, specs, store, *, backend, stats=None):
        self.n = n
        self.backend = backend
        self.stats = stats if stats is not None else SketchStats()
        self._specs = specs
        self._store = store
        self._closed = False
        self.stats.partial_words = sum(
            math.prod(store.partial_shape(part)) for part in store.partials
        )

    @classmethod
    def empty(
        cls,
        n: int,
        rng=None,
        *,
        shards: "int | None" = None,
        backend=None,
        boruvka_rounds: "int | None" = None,
        sparsity: int = 4,
        rows: int = 3,
        stats: "SketchStats | None" = None,
    ) -> "ShardedAGMSketch":
        """A zero sharded sketch over ``shards`` contiguous owner ranges.

        ``backend=None`` ingests on a fresh
        :class:`~repro.mpc.backends.LocalBackend`.  ``shards=None``
        defaults to the backend's worker count (1 without workers).
        The backend places the partials (see the module docs).
        ``stats`` lets a caller accumulate counters across rebuilds.
        """
        if backend is None:
            backend = LocalBackend()
        specs, params = _draw_layout(
            n, rng, boruvka_rounds=boruvka_rounds, sparsity=sparsity, rows=rows
        )
        if shards is None:
            shards = backend.workers or 1
        check_positive_int(shards, "shards")
        shards = min(shards, max(n, 1))
        per = max(1, -(-n // shards))
        # The empty vertex set gets one empty owner range.
        ranges = [
            (start, min(n, start + per))
            for start in range(0, n, per)
        ] or [(0, 0)]
        store = SketchPartialStore(ranges, params)
        backend._place_sketch_partials(store)
        return cls(n, specs, store, backend=backend, stats=stats)

    @property
    def shard_count(self) -> int:
        """Number of owner-range shards."""
        return self._store.shard_count

    @property
    def shard_ranges(self) -> "list[tuple[int, int]]":
        """The contiguous ``[vlo, vhi)`` owner ranges, in order."""
        return [(part.vlo, part.vhi) for part in self._store.partials]

    def words_per_vertex(self) -> int:
        """Sketch size per vertex in machine words (matches
        :meth:`AGMSketch.words_per_vertex` exactly)."""
        return sum(3 * spec.cells for spec in self._specs)

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("the sharded AGM sketch is closed")

    def update_edges(self, edges, weights=None) -> None:
        """Apply one batch of signed edge updates to every shard partial.

        Validation (bounds, weight shape) happens up front, parent-side;
        the backend seam then fans the batch out to the shard kernels.
        Raises :class:`RuntimeError` once the sketch is closed.
        """
        self._check_open()
        batch = _checked_batch(edges, weights, self.n)
        if batch is None:
            return
        self.backend.sketch_update(self._store, *batch)
        self.stats.shard_updates += self.shard_count

    @property
    def rounds(self) -> "list[RoundSpec]":
        """Each round's shared randomness, merge rounds first and the
        verification round last; the counters live in the partials."""
        return self._specs

    def partials(self) -> "list[tuple[int, np.ndarray]]":
        """The shard partials as ``(vlo, block)`` pairs, gathered by the
        backend's one ``sketch_collect`` and not copied further: arena
        views on ``process``, received frames on ``rpc``, the live
        arrays in-process.  This is what
        :func:`~repro.sketch.agm.agm_decode_components` reads.  Counts
        one merge.  Raises :class:`RuntimeError` once the sketch is
        closed, or when its partials cannot be read (a closed arena, a
        lost rpc pool).
        """
        self._check_open()
        blocks = self.backend.sketch_collect(self._store)
        self.stats.merges += 1
        return [(part.vlo, block) for part, block in zip(self._store.partials, blocks)]

    def merge(self) -> AGMSketch:
        """The shard partials as one read-only :class:`AGMSketch`.

        The owner ranges are contiguous and disjoint, and every partial's
        fingerprints are already reduced mod p, so one concatenation
        along the vertex axis is bit-identical to the sketch fed the
        same update stream.  A lone partial that owns its memory (a
        plain in-process array) is not copied: the result views it, so
        it follows later updates.  Partials over memory they do not own
        (an arena segment the backend recycles, a received wire frame)
        are always copied out.  Decoding needs no merge (it reads
        :meth:`partials`); this one-block form is for comparing with an
        :class:`AGMSketch`.  Raises :class:`RuntimeError` once the
        sketch is closed.
        """
        blocks = [block for _, block in self.partials()]
        if len(blocks) == 1 and blocks[0].flags.owndata:
            block = blocks[0].view()
        else:
            block = np.concatenate(blocks, axis=2)
        block.flags.writeable = False
        return AGMSketch(self._specs, self._store.params, block)

    @staticmethod
    def sum_partials(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Merge two same-range partial blocks (elementwise sum, fingers
        mod p) — the associative/commutative monoid of linearity."""
        out = np.array(a, dtype=np.int64, copy=True)
        out += b
        out[:, 2] %= MERSENNE_P
        return out

    def close(self) -> None:
        """Release backend-held partial state (arena leases, worker
        residency); idempotent.  Later updates and merges raise."""
        self._closed = True
        self.backend.sketch_release(self._store)
        self._store.close()
