"""True-parallel MPC data plane: a pool of OS worker processes.

:class:`ProcessBackend` is the first executor that makes the reproduction
faster on real hardware rather than only cheaper in accounted rounds.  It
subclasses :class:`~repro.mpc.backends.ShardedBackend` (through
:class:`~repro.mpc.backends.PooledBackend`) and overrides *only* the
compute kernels, so capacity enforcement
(:class:`~repro.mpc.machine.MachineMemoryError` semantics), exchange
attribution, and every counter reported in ``engine.summary()["backend"]``
are shared code — counter-identical to the sharded backend by
construction, which the differential suite asserts.

Execution model
---------------
The pool holds ``workers`` long-lived OS processes (stdlib
``multiprocessing``; no third-party dependencies).  Arrays travel through
``multiprocessing.shared_memory`` blocks and are read in the workers as
zero-copy numpy views; only tiny *plans* (lists of step descriptors:
shared-memory names, shapes, dtypes, splitters, block bounds) cross the
command pipes.

Work is partitioned along the canonical shard layout the
:class:`~repro.mpc.backends.ShardedBackend` accounts for, by the
planners and block kernels of :mod:`repro.mpc.kernels`, which this
backend shares with :class:`~repro.mpc.rpc.RpcBackend`: it supplies
only the transport.  Synchronisation is one explicit exchange barrier
per operation — the parent dispatches one plan per worker and waits for
all replies.

Arena-backed buffers
--------------------
Shared-memory blocks come from a persistent
:class:`~repro.mpc.arena.ShmArena` owned by the backend: segments are
allocated once (rounded to power-of-two size classes), leased per
operation with generation tags, and recycled across operations and
rounds, so a pipeline run performs O(size classes) segment allocations
instead of O(ops).  Workers cache their segment attachments by name for
the arena's lifetime, so the per-operation IPC setup is just the plan
descriptor.

Dispatch
--------
Worker messages carry *plans* — lists of kernel steps executed
back-to-back without returning to the parent (a sketch ingest sends one
step per owned shard partial).  Each step's outputs are written
straight into the operation's shared-memory output blocks
(:func:`repro.mpc.kernels.place`), so replies carry only spans and
scalars.  Round counters, exchange counters, and results match the
serial backend bit for bit, because all accounting lives in the public
operations of :class:`~repro.mpc.backends.ExecutionBackend` and the
fleet hooks of :class:`~repro.mpc.backends.ShardedBackend`, which this
class never overrides.

Determinism
-----------
Every kernel is bit-identical to the serial hooks of
:class:`~repro.mpc.backends.ExecutionBackend` — the pipeline's
labels, round counts, and RNG streams do not depend on the worker count.
Operations below ``min_parallel_items`` words take the serial kernels,
where process dispatch overhead would dominate.

Lifecycle
---------
Workers start lazily on the first parallel kernel and are reused across
operations, engines, and :meth:`reset` calls; the arena's segments
likewise survive :meth:`reset` and are recycled across runs.  Call
:meth:`close` (or use the backend as a context manager) to stop the pool
and unlink every arena segment; finalizers and daemonised workers
guarantee nothing outlives the interpreter either way.  The pipeline
entry points close backends they constructed from a string spec via
``try``/``finally``, so segments cannot leak even when an exception
escapes mid-run.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import weakref
from multiprocessing import shared_memory

import numpy as np

from repro.mpc.arena import ShmArena
from repro.mpc.backends import (
    ARENA_STATS_ZERO,
    BACKENDS,
    TRANSPORT_STATS_ZERO,
    PooledBackend,
)
from repro.mpc.kernels import place, plain, run_step
from repro.mpc.plan import RoundPlan
from repro.utils.validation import check_nonnegative_int, check_positive_int

#: Below this many words an operation runs on the serial kernels: the
#: ~0.1–1 ms of per-operation process dispatch would dominate the compute.
DEFAULT_MIN_PARALLEL_ITEMS = 32768


#: Scoped override for the ``workers=None`` default (see
#: :func:`default_workers`); ``None`` means "derive from the CPU count".
_DEFAULT_WORKERS_OVERRIDE: "int | None" = None


def usable_cpu_count() -> int:
    """CPUs this process may run on (affinity-aware; at least 1)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux hosts
        return os.cpu_count() or 1


def default_worker_count() -> int:
    """Worker processes to use when none are requested.

    The :func:`default_workers` override wins when active; otherwise the
    usable CPUs (respecting CPU affinity masks in containers), capped
    at 4.
    """
    if _DEFAULT_WORKERS_OVERRIDE is not None:
        return _DEFAULT_WORKERS_OVERRIDE
    return min(4, usable_cpu_count())


@contextlib.contextmanager
def default_workers(workers: "int | None"):
    """Scope a default pool size for ``ProcessBackend(workers=None)``.

    The bench runner wraps each experiment in this so ``--workers N``
    reaches every backend the experiment constructs by name — including
    the ones built deep inside ``mpc_connected_components(...,
    backend="process")``.  Backends constructed with an explicit
    ``workers=`` are unaffected.  ``None`` is a no-op scope.
    """
    global _DEFAULT_WORKERS_OVERRIDE
    if workers is not None:
        workers = check_positive_int(workers, "workers")
    previous = _DEFAULT_WORKERS_OVERRIDE
    _DEFAULT_WORKERS_OVERRIDE = workers if workers is not None else previous
    try:
        yield
    finally:
        _DEFAULT_WORKERS_OVERRIDE = previous


def _mp_context():
    """The cheapest available start method (fork on Linux, else spawn)."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


# ---------------------------------------------------------------------------
# Shared-memory plumbing
# ---------------------------------------------------------------------------
#
# A descriptor is the picklable triple ``(name, shape, dtype_str)``
# issued by an ArenaLease; the parent owns every segment (create +
# unlink), workers only attach.  Every segment comes from the backend's
# persistent arena and lives until the backend closes, so workers keep
# their attachments open by name instead of re-mmapping per operation.

#: Worker-side attachment cache: segment name -> SharedMemory handle.
#: Only ever populated inside worker processes.
_SHM_CACHE: "dict[str, shared_memory.SharedMemory]" = {}


def _attach(desc) -> np.ndarray:
    """Worker-side: attach a descriptor (once per segment), return its
    numpy view.

    Resource-tracker registration is suppressed around the attach: the
    parent owns every segment's lifetime, and on Python < 3.13 an attach
    would otherwise register the name a second time and have it unlinked
    (or double-unregistered) when the worker exits (bpo-39959).
    """
    name, shape, dtype_str = desc
    shm = _SHM_CACHE.get(name)
    if shm is None:
        from multiprocessing import resource_tracker

        original_register = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            shm = shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original_register
        _SHM_CACHE[name] = shm
    return np.ndarray(shape, dtype=np.dtype(dtype_str), buffer=shm.buf)


def _run_plan(steps: list, inputs: dict, dests: dict) -> dict:
    """Worker-side: run a plan over attached inputs, placing each
    step's outputs into the attached destination blocks; returns the
    merged :func:`~repro.mpc.kernels.place` replies."""
    env = {name: _attach(desc) for name, desc in inputs.items()}
    views = {name: _attach(desc) for name, desc in dests.items()}
    reply: dict = {}
    for step in steps:
        run_step(step, env)
        reply.update(place(views, step, env))
    return reply


def _worker_main(conn, parent_ends) -> None:
    """Worker process loop: execute step plans until EOF / ``None``.

    Each message is ``(steps, inputs, dests)`` — a plan of kernel steps
    plus the descriptors of the arrays they read and of the blocks
    their outputs land in — executed back-to-back; one reply carries
    every step's spans and scalars.

    A forked worker inherits the parent's end of its own pipe and of
    every earlier worker's.  It closes them first, so the parent holds
    the only copy of each: once the parent dies, even by ``SIGKILL``,
    ``recv`` sees EOF and the worker exits.
    """
    for end in parent_ends:
        end.close()
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message is None:
            return
        try:
            reply = _run_plan(*message)
        except BaseException as exc:  # noqa: BLE001 - ship every failure back
            try:
                conn.send(("err", f"{type(exc).__name__}: {exc}"))
            except (BrokenPipeError, OSError):
                return
        else:
            conn.send(("ok", reply))


def _shutdown_pool(procs: list, pipes: list) -> None:
    """Stop a worker pool: polite ``None``, then join, then terminate."""
    for pipe in pipes:
        try:
            pipe.send(None)
        except (BrokenPipeError, OSError):
            pass
        try:
            pipe.close()
        except OSError:  # pragma: no cover - cleanup
            pass
    for proc in procs:
        proc.join(timeout=2.0)
        if proc.is_alive():  # pragma: no cover - stuck worker
            proc.terminate()
            proc.join(timeout=2.0)


# ---------------------------------------------------------------------------
# Parent-side buffer handout (arena leases per operation)
# ---------------------------------------------------------------------------


def _fold_arena_stats(totals: dict, stats: dict) -> None:
    """Add one arena's lifetime counters into ``totals`` (peak: max)."""
    for field in ("segments", "leases", "recycled"):
        totals[field] += stats[field]
    totals["peak_live_leases"] = max(
        totals["peak_live_leases"], stats["peak_live_leases"]
    )


class _OpBuffers:
    """One operation's shared-memory handout from the persistent arena.

    ``share``/``alloc`` return descriptors (and views); :meth:`finish`
    releases every lease back to the arena so the segments recycle.
    """

    def __init__(self, arena: ShmArena):
        self._arena = arena
        self._leases: list = []
        self.bytes_copied = 0

    def share(self, array: np.ndarray) -> tuple:
        """Place ``array`` in shared memory; returns its descriptor."""
        lease = self._arena.share(array)
        self._leases.append(lease)
        self.bytes_copied += int(array.nbytes)
        return lease.descriptor

    def alloc(self, shape, dtype) -> "tuple[tuple, np.ndarray]":
        """Lease an uninitialised output; returns (descriptor, view)."""
        lease = self._arena.acquire(shape, dtype)
        self._leases.append(lease)
        return lease.descriptor, lease.view

    def finish(self) -> None:
        """Release this operation's leases (outputs must be copied out).

        Runs from ``finally`` blocks; a worker death may already have
        closed the backend's arena, which is fine — releasing a stale
        lease is a no-op, so the original ``RuntimeError`` diagnostic
        is never masked.
        """
        for lease in self._leases:
            lease.release()
        self._leases.clear()


# ---------------------------------------------------------------------------
# The backend
# ---------------------------------------------------------------------------


class ProcessBackend(PooledBackend):
    """Sharded execution on a pool of OS worker processes.

    Accounting (capacity enforcement, exchange/byte counters, op counts)
    is inherited unchanged from :class:`~repro.mpc.backends.ShardedBackend`;
    the ``_kernel_*`` compute hooks are the shared planners of
    :class:`~repro.mpc.backends.PooledBackend`, so results *and*
    counters are bit-identical to the serial sharded backend while the
    heavy numpy work runs in parallel.  This class supplies the
    transport: arena shared-memory bindings and pipe dispatch, and
    places sketch partials in persistent-arena segments.

    Parameters
    ----------
    shard_memory:
        Per-shard capacity ``s`` in words; bound to the owning engine's
        ``machine_memory`` at attach time when ``None`` (exactly as the
        sharded backend does).
    max_shards:
        Optional hard fleet size; operations needing more shards raise
        :class:`~repro.mpc.machine.MachineMemoryError`.
    workers:
        OS processes in the pool (default: :func:`default_worker_count`).
        ``workers=1`` still routes kernels through the single worker
        process — the honest baseline for scaling measurements.
    min_parallel_items:
        Operations touching fewer words than this run on the serial
        kernels (default :data:`DEFAULT_MIN_PARALLEL_ITEMS`); set to 0 to
        force every operation through the pool (the differential tests
        do).

    Raises
    ------
    RuntimeError
        From any operation whose worker process died mid-command.
    """

    name = "process"

    def __init__(
        self,
        shard_memory: "int | None" = None,
        *,
        max_shards: "int | None" = None,
        workers: "int | None" = None,
        min_parallel_items: int = DEFAULT_MIN_PARALLEL_ITEMS,
    ):
        if workers is None:
            workers = default_worker_count()
        super().__init__(shard_memory, max_shards=max_shards, workers=workers)
        self.min_parallel_items = check_nonnegative_int(
            min_parallel_items, "min_parallel_items"
        )
        self._arena: "ShmArena | None" = None
        self._arena_retired = dict(ARENA_STATS_ZERO)
        self._procs: list = []
        self._pipes: list = []
        self._finalizer = None
        # Set when a worker died mid-operation and the pool was dropped:
        # the next start is a restart.
        self._pool_failed = False
        self.workers_restarted = 0
        self.dispatch_barriers = 0
        self.dispatch_messages = 0
        self.dispatch_steps = 0
        self.shm_bytes_copied = 0
        self.plan_barriers: "dict[str, int]" = {}

    # -- pool + arena lifecycle ----------------------------------------------

    def _stop_pool(self) -> None:
        """Tear down the worker pool (shared by :meth:`close` and the
        half-dead-pool recovery in :meth:`_ensure_pool`).
        """
        if self._finalizer is not None:
            self._finalizer()
            self._finalizer = None
        self._procs = []
        self._pipes = []

    def close(self) -> None:
        """Stop the pool and unlink every arena segment (idempotent).

        The pool stops first so cached worker attachments close before
        the parent unlinks; both restart lazily on the next operation,
        so a closed backend remains usable and its counters readable.
        """
        self._pool_failed = False
        self._stop_pool()
        if self._arena is not None:
            # Counters outlive the arena: fold them into the lifetime totals.
            _fold_arena_stats(self._arena_retired, self._arena.stats())
            self._arena.close()
            self._arena = None

    def reset(self) -> None:
        """Clear run counters; the pool and the arena's segments survive."""
        super().reset()
        self.workers_restarted = 0
        self.dispatch_barriers = 0
        self.dispatch_messages = 0
        self.dispatch_steps = 0
        self.shm_bytes_copied = 0
        self.plan_barriers = {}

    # -- round plans ---------------------------------------------------------

    def run_plan(self, plan: RoundPlan) -> tuple:
        """Execute a plan, attributing dispatch barriers to its name.

        Inherits the sequential walk (public operations keep all model
        accounting); the override only records how many dispatch
        barriers each plan shape cost, which the ``e17_backend_parity``
        experiment reads per stage through ``stats().dispatch``.
        """
        before = self.dispatch_barriers
        outputs = super().run_plan(plan)
        self.plan_barriers[plan.name] = (
            self.plan_barriers.get(plan.name, 0)
            + self.dispatch_barriers
            - before
        )
        return outputs

    def _ensure_pool(self) -> None:
        if self._procs and all(p.is_alive() for p in self._procs):
            return
        # Replacing a pool that lost a worker is a restart; the first
        # start and a start after close() are not.
        if self._procs or self._pool_failed:
            self.workers_restarted += 1
        self._pool_failed = False
        self._stop_pool()  # drop any half-dead pool first (arena survives)
        ctx = _mp_context()
        for _ in range(self.workers):
            parent_conn, child_conn = ctx.Pipe()
            self._pipes.append(parent_conn)
            proc = ctx.Process(
                target=_worker_main, args=(child_conn, list(self._pipes)), daemon=True
            )
            proc.start()
            child_conn.close()
            self._procs.append(proc)
        self._finalizer = weakref.finalize(
            self, _shutdown_pool, list(self._procs), list(self._pipes)
        )

    def _persistent_arena(self) -> ShmArena:
        if self._arena is None or self._arena.closed:
            self._arena = ShmArena()
        return self._arena

    def arena_stats(self) -> dict:
        """Lifetime arena counters: live arena plus every retired one.

        ``segments`` counts every shared-memory segment this backend ever
        created — the quantity the arena keeps at O(size classes) per
        run; ``bytes_reserved`` and ``segments_held`` describe only the
        currently live arena.
        """
        merged = dict(self._arena_retired)
        if self._arena is not None and not self._arena.closed:
            live = self._arena.stats()
            _fold_arena_stats(merged, live)
            merged["segments_held"] = live["segments_held"]
            merged["bytes_reserved"] = live["bytes_reserved"]
        return merged

    def _place_sketch_partials(self, store) -> None:
        """Place each shard partial in a zeroed lease from the persistent
        arena.

        Pool workers attach the segment once and keep the mapping:
        workers scatter into the partials in place, and the parent reads
        the same memory at merge time without ever copying a partial.
        The partial owns its lease (releasing it returns the segment to
        the arena); leases survive pool restarts because the parent owns
        the arena.
        """
        arena = self._persistent_arena()
        for part in store.partials:
            part.lease = arena.acquire(store.partial_shape(part), np.int64)
            part.lease.view[...] = 0

    def _drop_failed_pool(self) -> None:
        """Close the backend after a worker died mid-operation, and count
        the next pool start as a restart."""
        self.close()
        self._pool_failed = True

    # -- dispatch ------------------------------------------------------------

    def _dispatch(self, messages: "list[tuple]") -> "list[dict]":
        """One exchange barrier: send ``messages[i]`` — ``(steps, inputs,
        dests)``, a plan plus its descriptors — to worker ``i`` and
        gather every reply.

        Messages without steps are skipped.  Returns one reply dict per
        message, aligned with ``messages``; raises on worker death or any
        step error.
        """
        self._ensure_pool()
        self.dispatch_barriers += 1
        sent = []
        for i, message in enumerate(messages):
            if not message[0]:
                continue
            try:
                self._pipes[i].send(message)
            except (BrokenPipeError, OSError) as exc:
                # Same contract as a recv failure: a dead worker means the
                # pipes are desynchronised — drop the pool and report.
                self._drop_failed_pool()
                raise RuntimeError(
                    f"process backend worker {i} died mid-dispatch"
                ) from exc
            sent.append(i)
            self.dispatch_messages += 1
            self.dispatch_steps += len(message[0])
        replies: "list[dict]" = [{} for _ in messages]
        first_error = None
        for i in sent:
            try:
                status, value = self._pipes[i].recv()
            except (EOFError, OSError) as exc:
                # A dead worker desynchronises the pipes; drop the pool so
                # the next operation starts from a clean slate.
                self._drop_failed_pool()
                raise RuntimeError(
                    f"process backend worker {i} died mid-operation"
                ) from exc
            if status == "err" and first_error is None:
                first_error = f"process backend worker {i} failed: {value}"
            else:
                replies[i] = value
        if first_error is not None:
            raise RuntimeError(first_error)
        return replies

    # -- transport -----------------------------------------------------------

    def _pooled(self, words: int) -> bool:
        return words > 0 and words >= self.min_parallel_items

    def _execute(self, arrays, dests, plans, finish, resident=None):
        """Run one planned operation over arena shared memory.

        Inputs are copied into leases, destinations are leased
        uninitialised, and each worker's message carries only the
        descriptors its steps name; ``resident`` maps names to
        descriptors already in shared memory (sketch partials).  Results
        that are destination views are copied out before the leases
        recycle.
        """
        buf = _OpBuffers(self._persistent_arena())
        try:
            inputs = dict(resident or {})
            for name, array in arrays.items():
                inputs[name] = buf.share(array)
            outputs, views = {}, {}
            for name, (shape, dtype) in dests.items():
                outputs[name], views[name] = buf.alloc(shape, dtype)
            replies = self._dispatch([
                (
                    steps,
                    {n: inputs[n] for step in steps for n in step["inputs"]},
                    {n: outputs[n] for step in steps for n in step["outputs"]
                     if n in outputs},
                )
                for steps in plans
            ])
            result = finish(views, replies)
            return tuple(
                r.copy() if any(r is v for v in views.values()) else r
                for r in result
            )
        finally:
            buf.finish()
            self.shm_bytes_copied += buf.bytes_copied

    def _kernel_sketch_update(self, store, edges, weights) -> int:
        """Scatter one update batch into the shm-resident shard partials.

        One plan per worker — one ``sketch_update`` step per owned
        shard — with the batch and the hash coefficient arrays shared
        transiently.  Workers scatter straight into the cached persistent-arena
        segments, so the parent copies zero partial bytes; small batches
        take the serial kernel, which writes the very same shm views
        parent-side.
        """
        words = int(edges.size) + int(weights.size)
        if not (self._pooled(words) and plain(edges, weights)):
            return super()._kernel_sketch_update(store, edges, weights)
        return self._pooled_sketch_update(
            store, edges, weights, [part.descriptor for part in store.partials]
        )

    # -- reporting -----------------------------------------------------------

    def stats(self):
        """Sharded counters plus pool size, arena, dispatch and restart telemetry.

        Restarts are the transport block's ``workers_restarted``; its
        other keys stay zero, as no wire is involved.
        """
        snapshot = super().stats()  # name resolves to "process" already
        snapshot.arena = self.arena_stats()
        snapshot.transport = {
            **TRANSPORT_STATS_ZERO, "workers_restarted": self.workers_restarted
        }
        snapshot.dispatch = {
            "barriers": self.dispatch_barriers,
            "messages": self.dispatch_messages,
            "steps": self.dispatch_steps,
            "shm_bytes_copied": self.shm_bytes_copied,
            "plan_barriers": dict(self.plan_barriers),
        }
        return snapshot


#: Selecting ``backend="process"`` anywhere resolves to this class.
BACKENDS["process"] = ProcessBackend
