"""Persistent shared-memory arena for the true-parallel executor.

Before this module existed, every :class:`~repro.mpc.process_backend.
ProcessBackend` operation created fresh ``multiprocessing.shared_memory``
segments for its inputs and outputs and unlinked them when the operation
returned.  At pipeline scale that is O(ops) segment allocations per run —
each one a ``shm_open`` + ``ftruncate`` + ``mmap`` round-trip on the hot
path, exactly the constant-factor per-round overhead the work-efficient
MPC connectivity literature warns separates round-optimal algorithms from
fast ones.

A :class:`ShmArena` owns *long-lived* segments instead.  Callers acquire
:class:`ArenaLease`\\ s — numpy-viewable reservations of a whole segment —
and release them back to a free list when the operation completes, so a
pipeline run allocates O(distinct size classes) segments up front and then
recycles them across operations and rounds.  Three safety properties make
the leases a real discipline rather than a raw buffer pool:

* **No aliasing** — a live lease owns its whole segment; the arena never
  hands the same segment to two live leases (property-tested in
  ``tests/test_arena.py``).
* **Generation tags** — every segment carries a generation counter,
  bumped on each release.  A lease captures the generation it was issued
  under, and every access through :attr:`ArenaLease.view` /
  :attr:`ArenaLease.descriptor` re-validates it, so use-after-release is
  an immediate :class:`ArenaLeaseError` instead of silent data corruption
  through a recycled buffer.
* **Bounded lifetime** — segments are unlinked only by :meth:`ShmArena.
  close` (also run by a ``weakref`` finalizer), never mid-run, so worker
  processes may cache their attachments by segment name for as long as
  the arena lives.  ``close()`` leaves nothing behind in ``/dev/shm`` —
  the lifecycle test re-attaches every name and expects
  ``FileNotFoundError``.

This buffer-lease discipline is also the prerequisite for any future
async/RPC executor: a remote data plane needs exactly this "allocate
once, lease per op, generation-check on reuse" contract.
"""

from __future__ import annotations

import weakref
from multiprocessing import shared_memory

import numpy as np

#: Smallest segment the arena allocates (one page); sizes round up to the
#: next power of two so operations of similar magnitude share size classes.
MIN_SEGMENT_BYTES = 4096


class ArenaLeaseError(RuntimeError):
    """A lease was used after release (or after its arena closed)."""


def _round_up_pow2(nbytes: int) -> int:
    """Smallest power-of-two segment size (≥ :data:`MIN_SEGMENT_BYTES`)
    holding ``nbytes``.
    """
    size = MIN_SEGMENT_BYTES
    while size < nbytes:
        size *= 2
    return size


class _Segment:
    """One shared-memory block owned by the arena (internal)."""

    __slots__ = ("shm", "size", "generation", "in_use")

    def __init__(self, shm: shared_memory.SharedMemory, size: int):
        self.shm = shm
        self.size = size
        self.generation = 0
        self.in_use = False


class ArenaLease:
    """A generation-tagged reservation of one arena segment.

    The lease exposes the segment as a numpy array (:attr:`view`) and as
    a picklable :attr:`descriptor` workers can attach by name.  Both
    accessors re-validate the generation tag, so any access after
    :meth:`release` (or after the owning arena closed) raises
    :class:`ArenaLeaseError`.  Leases are context managers: leaving the
    ``with`` body releases them.
    """

    __slots__ = ("_arena", "_segment", "shape", "dtype", "nbytes",
                 "_generation", "_released")

    def __init__(self, arena: "ShmArena", segment: _Segment, shape, dtype):
        self._arena = arena
        self._segment = segment
        self.shape = tuple(shape)
        self.dtype = np.dtype(dtype)
        self.nbytes = int(np.prod(self.shape, dtype=np.int64)) * self.dtype.itemsize
        self._generation = segment.generation
        self._released = False

    # -- validation ----------------------------------------------------------

    @property
    def alive(self) -> bool:
        """True while the lease may be used (not released, arena open)."""
        return (
            not self._released
            and not self._arena.closed
            and self._segment.generation == self._generation
        )

    def _check(self) -> None:
        if not self.alive:
            raise ArenaLeaseError(
                f"stale lease: segment {self._segment.shm.name} is at "
                f"generation {self._segment.generation}, lease was issued at "
                f"{self._generation}"
                + (" (arena closed)" if self._arena.closed else "")
            )

    # -- access --------------------------------------------------------------

    @property
    def view(self) -> np.ndarray:
        """The live numpy view over the leased segment."""
        self._check()
        return np.ndarray(self.shape, dtype=self.dtype,
                          buffer=self._segment.shm.buf)

    @property
    def descriptor(self) -> tuple:
        """Picklable ``(name, shape, dtype_str)`` for workers.

        Segments live until the arena closes, so a worker may keep its
        attachment open by name.
        """
        self._check()
        return (self._segment.shm.name, self.shape, self.dtype.str)

    @property
    def segment_name(self) -> str:
        """The shared-memory name backing this lease (for tests/debug)."""
        self._check()
        return self._segment.shm.name

    # -- lifecycle -----------------------------------------------------------

    def release(self) -> None:
        """Return the segment to the arena's free list (idempotent).

        Releasing a lease after its arena closed is a no-op: release is
        the cleanup path (``with`` blocks, ``finally`` clauses), and
        cleanup must not mask the error that invalidated the lease.
        Only the *data* accessors raise on staleness.
        """
        if self._released or not self.alive:
            self._released = True
            return
        self._released = True
        self._arena._release_segment(self._segment)

    def __enter__(self) -> "ArenaLease":
        return self

    def __exit__(self, *exc) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "live" if self.alive else "stale"
        return (
            f"ArenaLease({self._segment.shm.name}, shape={self.shape}, "
            f"dtype={self.dtype}, {state})"
        )


def _unlink_segments(segments: "list[_Segment]") -> None:
    """Finalizer body: close + unlink every segment (idempotent)."""
    for segment in segments:
        try:
            segment.shm.close()
            segment.shm.unlink()
        except (FileNotFoundError, OSError):  # pragma: no cover - cleanup
            pass
    segments.clear()


class ShmArena:
    """Allocator of long-lived shared-memory segments with lease recycling.

    Acquisition is best-fit over the free list: the smallest free segment
    that holds the request wins; a miss allocates a fresh segment whose
    size is the request rounded up to a power of two (so repeated
    operations of similar magnitude converge on a handful of size
    classes and the steady-state allocation rate is zero).
    """

    def __init__(self):
        self._segments: "list[_Segment]" = []
        self._closed = False
        self.segments_created = 0
        self.bytes_reserved = 0
        self.leases_issued = 0
        self.leases_recycled = 0
        self._live_leases = 0
        self.peak_live_leases = 0
        self._finalizer = weakref.finalize(
            self, _unlink_segments, self._segments
        )

    # -- state ---------------------------------------------------------------

    @property
    def closed(self) -> bool:
        """True once :meth:`close` ran; acquiring then raises."""
        return self._closed

    def segment_names(self) -> "list[str]":
        """Shared-memory names of every segment currently owned."""
        return [segment.shm.name for segment in self._segments]

    def stats(self) -> dict:
        """Allocation/recycling counters (embedded in ``BackendStats``).

        ``segments`` is the number of shared-memory segments ever created
        by this arena — the quantity the arena exists to keep O(1) per
        run; ``leases`` / ``recycled`` break down how
        demand was served; ``bytes_reserved`` is the total capacity held.
        """
        return {
            "segments": self.segments_created,
            "segments_held": len(self._segments),
            "bytes_reserved": self.bytes_reserved,
            "leases": self.leases_issued,
            "recycled": self.leases_recycled,
            "peak_live_leases": self.peak_live_leases,
        }

    # -- allocation ----------------------------------------------------------

    def acquire(self, shape, dtype) -> ArenaLease:
        """Lease a segment holding an array of ``shape`` × ``dtype``.

        Reuses the best-fitting free segment when one exists, else
        allocates a new one.  The returned view is uninitialised.

        Raises
        ------
        ArenaLeaseError
            The arena is closed.
        """
        if self._closed:
            raise ArenaLeaseError("arena is closed")
        dtype = np.dtype(dtype)
        nbytes = max(1, int(np.prod(shape, dtype=np.int64)) * dtype.itemsize)
        best = None
        for segment in self._segments:
            if segment.in_use or segment.size < nbytes:
                continue
            if best is None or segment.size < best.size:
                best = segment
        if best is None:
            size = _round_up_pow2(nbytes)
            shm = shared_memory.SharedMemory(create=True, size=size)
            best = _Segment(shm, size)
            self._segments.append(best)
            self.segments_created += 1
            self.bytes_reserved += size
        else:
            self.leases_recycled += 1
        best.in_use = True
        self.leases_issued += 1
        self._live_leases += 1
        self.peak_live_leases = max(self.peak_live_leases, self._live_leases)
        return ArenaLease(self, best, shape, dtype)

    def share(self, array: np.ndarray) -> ArenaLease:
        """Copy ``array`` into a leased segment; returns the lease."""
        array = np.ascontiguousarray(array)
        lease = self.acquire(array.shape, array.dtype)
        lease.view[...] = array
        return lease

    def _release_segment(self, segment: _Segment) -> None:
        segment.generation += 1  # invalidates every outstanding lease tag
        segment.in_use = False
        self._live_leases -= 1

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Unlink every segment and invalidate all leases (idempotent).

        After closing, nothing this arena created remains attachable by
        name; live leases turn stale.
        """
        if self._closed:
            return
        self._closed = True
        for segment in self._segments:
            segment.generation += 1
        self._finalizer()
        self._live_leases = 0

    def __enter__(self) -> "ShmArena":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShmArena(segments={len(self._segments)}, "
            f"created={self.segments_created}, "
            f"reserved={self.bytes_reserved}b, "
            f"{'closed' if self._closed else 'open'})"
        )
