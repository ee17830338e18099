"""Sharded, mergeable AGM sketches: parallel streaming ingest by linearity.

The AGM sketch is *linear*: the sketch of an edge multiset is the
elementwise sum of the sketches of any partition of that multiset.  This
module exploits the dual reading — partition the *vertices* into
contiguous owner ranges, keep one per-shard partial of every round's
counter arrays, and route each update batch to all shards, where each
shard scatters only the incidence updates whose owner it holds.  Because
int64 scatter-adds are commutative and associative (wraparound
semantics) and fingerprints are reduced mod p at batch boundaries, the
partials summed back together (:meth:`ShardedAGMSketch.merge`) are
**bit-identical** to the monolithic :class:`~repro.sketch.agm.AGMSketch`
fed the same stream — decode never knows the ingest was parallel.

Where the partials live is the backend's business:

* no backend / ``local`` / ``sharded`` — plain numpy arrays, updated by
  the vectorized per-shard kernel in-process;
* ``process`` — pinned :class:`~repro.mpc.arena.ShmArena` segments from
  the persistent arena; workers attach once and scatter in place, so
  the parent never copies a partial;
* ``rpc`` — partials are *resident in the workers* (the parent holds no
  copy); update batches ship digest-deduped over the wire and partials
  come back only at merge (decode) time.

:func:`sketch_update_partial` is the one shared kernel: it operates on
plain arrays (hash coefficients, not hash objects), so the pooled
``sketch_update`` kernel of :mod:`repro.mpc.kernels` runs exactly the
code the in-process path runs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from repro.sketch.agm import AGMSketch, RoundSpec, _scatter_edge_updates
from repro.sketch.hashing import MERSENNE_P, KWiseHash
from repro.sketch.one_sparse import _pow_mod
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_positive_int

#: Zero-filled sketch-counter block (the streaming stats schema embeds
#: this shape even when ingest is monolithic, so JSON consumers see one
#: schema).
SKETCH_STATS_ZERO = {"shard_updates": 0, "merges": 0, "partial_words": 0}

_TOKENS = itertools.count()


@dataclass
class SketchStats:
    """Counters for sharded sketch ingest and decode-time merging.

    ``shard_updates`` counts per-shard kernel invocations (one per shard
    per applied batch), ``merges`` counts decode-time materialisations
    of the monolithic sketch, and ``partial_words`` is the int64 words
    currently held across all shard partials (equal to the monolithic
    sketch's footprint — sharding splits the arrays, it does not grow
    them).
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


def _hash_from_coefficients(coefficients: np.ndarray) -> KWiseHash:
    """Reconstitute a :class:`KWiseHash` from its coefficient words (the
    wire/worker-side inverse of shipping ``hash.coefficients``)."""
    hasher = KWiseHash.__new__(KWiseHash)
    hasher.k = int(coefficients.shape[0])
    hasher.coefficients = np.asarray(coefficients, dtype=np.uint64)
    return hasher


def sketch_update_partial(
    data: np.ndarray,
    edges: np.ndarray,
    weights: np.ndarray,
    *,
    vlo: int,
    vhi: int,
    n: int,
    levels: int,
    cols: int,
    level_coeffs: np.ndarray,
    row_coeffs: np.ndarray,
    bases: np.ndarray,
) -> int:
    """Scatter one update batch into one shard's partial, in place.

    ``data`` has shape ``(rounds, 3, vhi - vlo, levels * rows * cols)``
    — all round sketches' (totals, moments, fingers) planes for the
    owner range ``[vlo, vhi)``.  The hash state arrives as plain arrays
    (``level_coeffs``: ``(rounds, 2)`` uint64, ``row_coeffs``:
    ``(rounds, rows, 2)`` uint64, ``bases``: ``(rounds,)`` int64) so the
    same kernel runs in-process, in forked process-pool workers, and in
    rpc wire workers.  Returns the number of incidence updates applied
    (those whose owner falls in the range); bounds/shape validation is
    the caller's job.
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    weights = np.asarray(weights, dtype=np.int64)
    if edges.size == 0:
        return 0
    u = edges[:, 0]
    v = edges[:, 1]
    keep = (u != v) & (weights != 0)
    if not keep.any():
        return 0
    u, v, weights = u[keep], v[keep], weights[keep]
    lo = np.minimum(u, v)
    hi = np.maximum(u, v)
    edge_ids = lo * n + hi
    owners = np.concatenate([lo, hi])
    ids = np.concatenate([edge_ids, edge_ids])
    signed = np.concatenate([weights, -weights])
    in_shard = (owners >= vlo) & (owners < vhi)
    if not in_shard.any():
        return 0
    owners = owners[in_shard] - vlo
    ids = ids[in_shard]
    signed = signed[in_shard]

    rounds = data.shape[0]
    rows = int(row_coeffs.shape[1])
    for r in range(rounds):
        level_hash = _hash_from_coefficients(level_coeffs[r])
        row_hashes = [
            _hash_from_coefficients(row_coeffs[r, i]) for i in range(rows)
        ]
        depth = level_hash.level(ids, levels - 1)
        powers = _pow_mod(
            np.full(ids.shape, int(bases[r])), ids, MERSENNE_P
        ).astype(np.int64)
        finger_contrib = ((signed % MERSENNE_P) * powers) % MERSENNE_P
        _scatter_edge_updates(
            data[r, 0].reshape(-1),
            data[r, 1].reshape(-1),
            data[r, 2].reshape(-1),
            owners,
            ids,
            signed,
            finger_contrib,
            depth,
            row_hashes,
            levels,
            rows,
            cols,
        )
        data[r, 2] %= MERSENNE_P
    return int(owners.size)


class SketchPartial:
    """One shard's partial: the owner range plus its counter block.

    :attr:`data` is the live ``(rounds, 3, vhi - vlo, cells)`` array — a
    plain array in-process, an arena-lease view on the process backend,
    or ``None`` when the partial is resident in an rpc worker.  ``lease``
    keeps the arena segment alive for the arena-backed case.
    """

    def __init__(self, vlo: int, vhi: int, data=None, lease=None):
        self.vlo = vlo
        self.vhi = vhi
        self._data = data
        self.lease = lease

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
    ``sketch_collect``: it carries the shard partials, the plain-array
    kernel parameters (``params``), and — for worker-resident (rpc)
    stores — the residency ``token`` plus the pool-generation snapshot
    that makes partial loss loud instead of silent.
    """

    def __init__(
        self,
        partials: "list[SketchPartial]",
        params: dict,
        *,
        kind: str = "memory",
        token: "str | None" = None,
        residency: "int | None" = None,
    ):
        self.partials = partials
        self.params = params
        self.kind = kind
        self.token = token
        self.residency = residency

    @property
    def shard_count(self) -> int:
        """Number of shard partials."""
        return len(self.partials)

    def apply_serial(self, edges: np.ndarray, weights: np.ndarray) -> int:
        """Run the shared kernel over every partial in-process; returns
        incidence updates applied."""
        if self.kind == "resident":
            raise RuntimeError(
                "worker-resident sketch partials cannot be updated "
                "in-process; dispatch through the owning backend"
            )
        applied = 0
        for part in self.partials:
            applied += sketch_update_partial(
                part.data,
                edges,
                weights,
                vlo=part.vlo,
                vhi=part.vhi,
                **self.params,
            )
        return applied

    def local_partial_data(self) -> "list[np.ndarray]":
        """The partial arrays, for in-process merge reads."""
        if self.kind == "resident":
            raise RuntimeError(
                "worker-resident sketch partials must be collected "
                "through the owning backend"
            )
        return [part.data for part in self.partials]

    def close(self) -> None:
        """Release any arena leases held by the partials (idempotent)."""
        for part in self.partials:
            part.release()


class ShardedAGMSketch:
    """An AGM sketch whose updates are range-partitioned across shards.

    Drop-in ingest replacement for :class:`~repro.sketch.agm.AGMSketch`:
    ``update_edges`` routes batches through the owning backend's
    ``sketch_update`` seam (or the in-process kernel without a backend),
    and :meth:`merge` sums the partials back into a real monolithic
    :class:`AGMSketch` — bit-identical to one fed the same stream — for
    unchanged decoding.  Created with the same seed, ``empty`` draws the
    exact randomness ``AGMSketch.empty`` would (the :class:`RoundSpec`
    contract), which is what makes the bit-identity testable.
    """

    def __init__(self, n, specs, store, ranges, *, backend=None, stats=None):
        self.n = n
        self.backend = backend
        self.stats = stats if stats is not None else SketchStats()
        self._specs = specs
        self._store = store
        self._ranges = ranges
        self.stats.partial_words = sum(
            len(specs) * 3 * (vhi - vlo) * specs[0].cells
            for vlo, vhi in ranges
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

        ``shards=None`` defaults to the backend's worker count (1 without
        a backend).  Partial placement follows the backend: plain arrays
        in-process, persistent-arena shm segments on the process backend,
        worker-resident state on the rpc backend.  ``stats`` lets a
        caller accumulate counters across rebuilds.
        """
        rng = ensure_rng(rng)
        check_positive_int(sparsity, "sparsity")
        check_positive_int(rows, "rows")
        if boruvka_rounds is None:
            boruvka_rounds = max(2, int(np.ceil(np.log2(max(n, 2)))) + 3)
        check_positive_int(boruvka_rounds, "boruvka_rounds")
        specs = [
            RoundSpec.draw(n, rng, sparsity=sparsity, rows=rows)
            for _ in range(boruvka_rounds + 1)
        ]
        if shards is None:
            shards = int(getattr(backend, "workers", 1) or 1)
        check_positive_int(shards, "shards")
        shards = min(shards, n)
        per = -(-n // shards)
        ranges = [
            (start, min(n, start + per))
            for start in range(0, n, per)
        ]

        spec = specs[0]
        rounds = len(specs)
        level_coeffs = np.stack(
            [s.level_hash.coefficients for s in specs]
        ).astype(np.uint64)
        row_coeffs = np.stack(
            [np.stack([h.coefficients for h in s.row_hashes]) for s in specs]
        ).astype(np.uint64)
        bases = np.array([s.fingerprint_base for s in specs], dtype=np.int64)
        for array in (level_coeffs, row_coeffs, bases):
            array.setflags(write=False)
        params = {
            "n": n,
            "levels": spec.levels,
            "cols": spec.cols,
            "level_coeffs": level_coeffs,
            "row_coeffs": row_coeffs,
            "bases": bases,
        }

        partials: "list[SketchPartial]" = []
        kind = "memory"
        token = None
        residency = None
        if backend is not None and getattr(backend, "name", "") == "rpc":
            kind = "resident"
            token = f"sketch{next(_TOKENS)}"
            residency = backend.sketch_residency()
            partials = [SketchPartial(vlo, vhi, None) for vlo, vhi in ranges]
        elif backend is not None and hasattr(backend, "persistent_lease"):
            kind = "arena"
            for vlo, vhi in ranges:
                lease = backend.persistent_lease(
                    (rounds, 3, vhi - vlo, spec.cells), np.int64
                )
                partials.append(SketchPartial(vlo, vhi, lease=lease))
        else:
            partials = [
                SketchPartial(
                    vlo,
                    vhi,
                    np.zeros((rounds, 3, vhi - vlo, spec.cells), dtype=np.int64),
                )
                for vlo, vhi in ranges
            ]
        store = SketchPartialStore(
            partials, params, kind=kind, token=token, residency=residency
        )
        return cls(n, specs, store, ranges, backend=backend, stats=stats)

    @property
    def shard_count(self) -> int:
        """Number of owner-range shards."""
        return len(self._ranges)

    @property
    def shard_ranges(self) -> "list[tuple[int, int]]":
        """The contiguous ``[vlo, vhi)`` owner ranges, in order."""
        return list(self._ranges)

    def words_per_vertex(self) -> int:
        """Sketch size per vertex in machine words (matches the
        monolithic sketch exactly)."""
        return sum(3 * spec.cells for spec in self._specs)

    def update_edges(self, edges, weights=None) -> None:
        """Apply one batch of signed edge updates to every shard partial.

        Validation (bounds, weight shape) happens up front, parent-side;
        the backend seam then fans the batch out to the shard kernels.
        """
        edges = np.asarray(edges, dtype=np.int64)
        if edges.size == 0:
            return
        edges = edges.reshape(-1, 2)
        if weights is None:
            weights = np.ones(edges.shape[0], dtype=np.int64)
        else:
            weights = np.asarray(weights, dtype=np.int64)
            if weights.shape != (edges.shape[0],):
                raise ValueError(
                    f"weights shape {weights.shape} does not match "
                    f"{edges.shape[0]} edges"
                )
        if edges.min() < 0 or edges.max() >= self.n:
            raise ValueError(f"edge endpoint out of range [0, {self.n})")
        if self.backend is None:
            self._store.apply_serial(edges, weights)
        else:
            self.backend.sketch_update(self._store, edges, weights)
        self.stats.shard_updates += self.shard_count

    def merge(self) -> AGMSketch:
        """Sum the shard partials into a monolithic :class:`AGMSketch`.

        Linearity makes this elementwise addition (fingerprints reduced
        mod p); the result is bit-identical to the monolithic sketch fed
        the same update stream, so decoding is unchanged.
        """
        if self.backend is None:
            parts = self._store.local_partial_data()
        else:
            parts = self.backend.sketch_collect(self._store)
        rounds = []
        for r, spec in enumerate(self._specs):
            round_sketch = spec.empty_round()
            totals = round_sketch.totals.reshape(self.n, spec.cells)
            moments = round_sketch.moments.reshape(self.n, spec.cells)
            fingers = round_sketch.fingers.reshape(self.n, spec.cells)
            for (vlo, vhi), part in zip(self._ranges, parts):
                totals[vlo:vhi] += part[r, 0]
                moments[vlo:vhi] += part[r, 1]
                fingers[vlo:vhi] += part[r, 2]
            round_sketch.fingers %= MERSENNE_P
            rounds.append(round_sketch)
        self.stats.merges += 1
        return AGMSketch(n=self.n, rounds=rounds)

    @staticmethod
    def sum_partials(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Merge two same-range partial blocks (elementwise sum, fingers
        mod p) — the associative/commutative monoid ``merge`` folds."""
        out = np.array(a, dtype=np.int64, copy=True)
        out += b
        out[:, 2] %= MERSENNE_P
        return out

    def close(self) -> None:
        """Release backend-held partial state (arena leases, worker
        residency); idempotent."""
        if self.backend is not None:
            release = getattr(self.backend, "sketch_release", None)
            if release is not None:
                release(self._store)
        self._store.close()
