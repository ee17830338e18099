"""Pluggable execution backends for the MPC subsystem.

The :class:`~repro.mpc.engine.MPCEngine` is the *control plane*: it charges
rounds for every primitive an algorithm would execute on a real cluster.
An :class:`ExecutionBackend` is the *data plane* behind it — the thing that
actually performs the sorts, searches, reductions, and label exchanges the
charges describe.  Four implementations ship:

* :class:`LocalBackend` — accounting-only.  Every operation runs the
  serial compute on the plain arrays; no partitioning, no caps, no
  communication counters.  This is the zero-overhead default.
* :class:`ShardedBackend` — the scale substrate.  Data is kept as numpy
  arrays in canonical layout over ``ceil(N/s)`` contiguous shards of at
  most ``s`` words (see below); every operation enforces the per-shard
  memory cap *and* the per-round communication cap of the
  Beame–Koutris–Suciu model (raising
  :class:`~repro.mpc.machine.MachineMemoryError` on violation), while
  counting exchange barriers and bytes moved.  Sorting is one stable
  order (:func:`~repro.mpc.kernels.stable_order`) plus shard-boundary
  splitters; search and reduce-by-key route by key home;
  the min-label exchange is one fused shipment per level.
* :class:`~repro.mpc.process_backend.ProcessBackend` and
  :class:`~repro.mpc.rpc.RpcBackend` — the worker pools.  Both subclass
  :class:`PooledBackend`, which keeps the sharded accounting and plans
  the walk and sketch-ingest hooks into per-worker steps over the block
  kernels of :mod:`repro.mpc.kernels` (sort, search, reduce and the
  min-label level always run in the parent, where they are faster);
  they differ only in how arrays reach the workers (shared memory or
  socket frames).  Selected with
  ``backend="process"`` or ``backend="rpc"`` (registered when
  :mod:`repro.mpc` imports their modules).

The layers are explicit in the code.  All compute lives in
:mod:`repro.mpc.kernels`.  Every public op and every serial
``_kernel_*`` hook is written once, on :class:`ExecutionBackend`: the op
checks its operands, checks capacity, computes its result (inline, or
through a hook for the walk and the sketch ops) and records its
barrier.  :class:`ShardedBackend` overrides only the two fleet hooks,
the one that sizes the fleet and enforces its caps and the one that
counts barriers and bytes between shards (one machine finds one shard
and counts nothing), and :class:`PooledBackend` overrides only the walk
and sketch-ingest hooks, so the pools are counter-identical to
:class:`ShardedBackend` by construction, which is what the differential
suite asserts.  Where a sketch's partials live is the one other thing a
backend decides, in its ``_place_sketch_partials`` hook.

Shard layout convention
-----------------------
Arrays live in *canonical layout*: the item at global position ``p``
resides on shard ``p // s``.  Every operation consumes and produces
canonical layout, so communication for an operation is exactly the set of
items whose canonical position changes.  They are counted one position
block (one shard) at a time, with no division (:func:`_crossings`), and
the min-label level's endpoint pairs in cache-sized blocks
(:func:`_pair_crossings`).  One *exchange* is one all-to-all barrier (the
unit the engine charges rounds for); ``bytes_exchanged`` sums the payload
that actually crossed shard boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.mpc.kernels import (
    _REDUCERS,
    _grouped_reduce,
    _step,
    position_blocks,
    stable_order,
    walk_columns,
)
from repro.mpc.machine import MachineMemoryError
from repro.mpc.plan import RoundPlan, run_plan_steps
from repro.utils.validation import check_nonnegative_int, check_positive_int

#: Zeroed arena block for backends without a shared-memory arena, so
#: ``BackendStats.to_json()`` emits one schema for every backend (the
#: process backend fills the same keys with live counters).
ARENA_STATS_ZERO = {
    "segments": 0,
    "segments_held": 0,
    "bytes_reserved": 0,
    "leases": 0,
    "recycled": 0,
    "peak_live_leases": 0,
}

#: Zeroed dispatch block, same contract as :data:`ARENA_STATS_ZERO`.
DISPATCH_STATS_ZERO = {
    "barriers": 0,
    "messages": 0,
    "steps": 0,
    "shm_bytes_copied": 0,
    "plan_barriers": {},
}

#: Zeroed transport block for backends that move no data over a wire,
#: same one-schema contract as :data:`ARENA_STATS_ZERO`.  The RPC
#: backend (:mod:`repro.mpc.rpc`) fills the same keys with live
#: counters: ``op_frames``/``op_wire_bytes`` count only operation
#: traffic (deterministic, so bench records may gate them), while
#: ``heartbeats`` and ``retries`` are time-driven and never gated.
TRANSPORT_STATS_ZERO = {
    "op_frames": 0,
    "op_wire_bytes": 0,
    "acks": 0,
    "digest_hits": 0,
    "digest_misses": 0,
    "heartbeats": 0,
    "retries": 0,
    "workers_restarted": 0,
}

#: Zeroed CSR block.  No backend builds a CSR index any more, so every
#: backend emits it as it is; it stays in the schema because the e2e
#: benchmark harness (``benchmarks/e2e/harness.py``) reads
#: ``stats["csr"]["csr_builds"]`` on every answer.
CSR_STATS_ZERO = {
    "csr_builds": 0,
}


@dataclass
class BackendStats:
    """Resource counters of one backend over one algorithm execution.

    ``shard_count`` is the *peak* fleet size observed (``ceil(N/s)`` over
    the largest data volume seen); ``peak_shard_load`` the largest number
    of items any single shard held; ``exchanges`` the number of all-to-all
    barriers executed; ``bytes_exchanged`` the payload bytes that crossed
    shard boundaries.  ``op_counts`` breaks executions down by operation
    name; ``plans`` counts the :class:`~repro.mpc.plan.RoundPlan` batches
    executed through :meth:`ExecutionBackend.run_plan`.  All fields are
    zero for the accounting-only local backend.
    ``workers`` is the OS-process pool size of a
    :class:`~repro.mpc.process_backend.ProcessBackend` (``None`` for the
    in-process backends); ``arena`` and ``dispatch`` carry that backend's
    shared-memory arena counters (segment allocations, lease recycling)
    and dispatch telemetry (barriers, worker messages, steps, bytes
    copied into shared memory, barriers per plan name) —
    ``None`` on the dataclass for backends without a worker pool, but
    :meth:`to_json` always emits both blocks (zeroed where not
    applicable) so ``--compare`` and downstream tooling never
    special-case the backend.  ``transport`` carries the wire telemetry
    of an :class:`~repro.mpc.rpc.RpcBackend` (frames, payload bytes,
    digest-dedup hits, heartbeats, retries) under the same zero-filled
    one-schema contract (:data:`TRANSPORT_STATS_ZERO`).  :meth:`to_json`
    also emits the zeroed :data:`CSR_STATS_ZERO` block.
    """

    name: str
    shard_memory: "int | None" = None
    max_shards: "int | None" = None
    shard_count: int = 0
    peak_shard_load: int = 0
    exchanges: int = 0
    bytes_exchanged: int = 0
    op_counts: "dict[str, int]" = field(default_factory=dict)
    plans: int = 0
    workers: "int | None" = None
    arena: "dict | None" = None
    dispatch: "dict | None" = None
    transport: "dict | None" = None

    def to_json(self) -> dict:
        """Plain-dict form embedded in ``MPCEngine.summary()`` and the
        ``BENCH_*.json`` artifacts.

        One schema for every backend: the ``workers`` scalar and the
        ``arena``/``dispatch`` blocks carry the same keys everywhere,
        zero-filled for backends without a worker pool, so consumers
        index the document without branching on the backend name.
        """
        return {
            "name": self.name,
            "shard_memory": self.shard_memory,
            "max_shards": self.max_shards,
            "shard_count": self.shard_count,
            "peak_shard_load": self.peak_shard_load,
            "exchanges": self.exchanges,
            "bytes_exchanged": self.bytes_exchanged,
            "op_counts": dict(self.op_counts),
            "plans": self.plans,
            "workers": 0 if self.workers is None else self.workers,
            "arena": dict(ARENA_STATS_ZERO if self.arena is None else self.arena),
            "dispatch": dict(
                DISPATCH_STATS_ZERO if self.dispatch is None else self.dispatch
            ),
            "transport": dict(
                TRANSPORT_STATS_ZERO if self.transport is None else self.transport
            ),
            "csr": dict(CSR_STATS_ZERO),
        }


def _keyed(keys, values, op: "str | None" = None):
    """The operands of a keyed op (``sort``, ``reduce_by_key``) as arrays,
    checked alike on every backend before any capacity check or kernel:
    1-D keys, one key per value row, and a known reducer ``op``.

    Raises
    ------
    ValueError
        On any other operands.
    """
    keys = np.asarray(keys)
    values = np.asarray(values)
    if keys.ndim != 1 or values.shape[:1] != keys.shape:
        raise ValueError(
            "keys must be 1-D with one key per value row: got keys of "
            f"shape {keys.shape} for values of shape {values.shape}"
        )
    if op is not None and op not in _REDUCERS:
        raise ValueError(f"unknown reducer {op!r}; choose from {sorted(_REDUCERS)}")
    return keys, values


#: Items per step of the crossing counts: a step's temporaries stay in
#: cache and are reused, where whole-array temporaries are fresh pages.
_COUNT_BLOCK = 1 << 15


def _crossings(home: np.ndarray, s: int) -> int:
    """How many items change shard: those whose ``home`` shard differs from
    their position's, ``home[p] // s != p // s``, exactly, with no division.

    Position block ``j`` is shard ``j``: its item stays iff ``home - j·s``,
    read as ``uint64``, is below ``s``, so a negative or out-of-range
    home crosses as it does under floor division.  A step covers whole
    shards, about :data:`_COUNT_BLOCK` positions (one shard when ``s`` is
    larger).
    """
    n = home.shape[0]
    step = max(1, _COUNT_BLOCK // s) * s
    width = min(step, n)
    # Where each step position's shard starts, from the step's start.
    first = np.arange(0, width, s, dtype=np.uint64).repeat(min(s, width))[:width]
    offset = np.empty(width, dtype=np.uint64)
    stays = np.empty(width, dtype=bool)
    stayed = 0
    for lo in range(0, n, step):
        size = min(step, n - lo)
        np.subtract(
            home[lo:lo + size], first[:size], out=offset[:size],
            dtype=np.uint64, casting="unsafe",
        )
        offset[:size] -= np.uint64(lo)
        stayed += int(np.count_nonzero(
            np.less(offset[:size], np.uint64(s), out=stays[:size])
        ))
    return n - stayed


def _pair_crossings(send: np.ndarray, recv: np.ndarray, s: int) -> int:
    """How many endpoint pairs sit on different shards, ``send // s !=
    recv // s``, counted :data:`_COUNT_BLOCK` pairs at a time."""
    return sum(
        int(np.count_nonzero(
            send[lo:lo + _COUNT_BLOCK] // s != recv[lo:lo + _COUNT_BLOCK] // s
        ))
        for lo in range(0, send.shape[0], _COUNT_BLOCK)
    )


class ExecutionBackend:
    """The MPC data plane on one machine, and the one definition of every op.

    Seven public operations carry the data movement of the pipeline
    stages and the streaming sketch:

    * :meth:`scatter` — place an array on the fleet;
    * :meth:`sort` — global stable sort (one stable order +
      shard-boundary splitters);
    * :meth:`search` — annotate integer queries against a table
      (Goodrich parallel search: the cost model prices it like a sort);
    * :meth:`reduce_by_key` — group by key and fold (contractions,
      tallies, dedup);
    * :meth:`min_label_exchange` — one fused min-label broadcast level
      (edge copies co-located with the sending endpoint, one shipment to
      the receiving home);
    * :meth:`sketch_update` / :meth:`sketch_collect` — the sharded AGM
      sketch's ingest and decode-time gather.

    Each is written once, here: it counts itself, checks its operands,
    checks capacity (:meth:`ensure_capacity`), computes its result
    (``sort``, ``search``, ``reduce_by_key`` and ``min_label_exchange``
    inline, the sketch ops through a serial ``_kernel_*`` hook) and
    records the barrier it crossed (:meth:`_exchange`).  The counters,
    :meth:`reset`, :meth:`take_exchange_delta` and :meth:`stats` live
    here too.  On
    this one machine every input fits one shard and no barrier is
    recorded, so :class:`LocalBackend` is this class under its name.
    :class:`ShardedBackend` overrides only the fleet hooks
    :meth:`ensure_capacity` and :meth:`_exchange` (the ``shards > 1``
    branches, which read its shard size ``_s``, run only there), and
    the pools override only the walk and sketch ``_kernel_*`` hooks and
    :meth:`_place_sketch_partials`, so every backend reports the same
    counters by construction.  Hooks never mutate their inputs and
    return arrays they own.

    :meth:`walk`, the random-walk sampler of the randomization step, is
    the one seam outside the round plans with no op count.  The engine
    additionally calls :meth:`ensure_capacity` for every charge it
    records, so resource bounds are enforced across the *whole*
    pipeline, including stages whose data never materialises here.
    """

    name = "abstract"
    #: Per-shard capacity in words; ``None`` on one machine (no cap).
    shard_memory: "int | None" = None
    #: Hard fleet size; ``None`` when the fleet is uncapped.
    max_shards: "int | None" = None
    #: OS-process pool size; ``None`` for the in-process backends.
    workers: "int | None" = None

    def __init__(self) -> None:
        # Not self.reset(): a subclass's reset may clear state that its
        # __init__ has not made yet.
        ExecutionBackend.reset(self)

    # -- lifecycle -----------------------------------------------------------

    def attach(self, machine_memory: int) -> None:
        """Bind to an engine's machine memory (no-op unless needed)."""

    def reset(self) -> None:
        """Clear all counters (heavy resources like pools may survive)."""
        self._op_counts: "dict[str, int]" = {}
        self._exchange_mark = 0
        self.plans_run = 0
        self.shard_count = 0
        self.peak_shard_load = 0
        self.exchanges = 0
        self.bytes_exchanged = 0

    def close(self) -> None:
        """Release external resources (processes, files); no-op here.

        Counters stay readable after closing, and implementations restart
        their resources on demand, so a closed backend remains usable.
        The pipeline closes backends it constructed itself from a string
        spec; callers who pass an instance own its lifetime.
        """

    # -- enforcement / accounting --------------------------------------------

    def ensure_capacity(self, total_items: int) -> int:
        """Check ``total_items`` fits the fleet; returns the shard count."""
        return 1

    def take_exchange_delta(self) -> int:
        """Exchanges since the previous call (engine charge attribution)."""
        delta = self.exchanges - self._exchange_mark
        self._exchange_mark = self.exchanges
        return delta

    def _exchange(self, shards: int, nbytes: int) -> None:
        """Record one all-to-all barrier; one machine crosses none, even
        for a sketch whose partials it holds as several shards."""

    def stats(self) -> BackendStats:
        """Snapshot of this backend's resource counters (see
        :class:`BackendStats`)."""
        return BackendStats(
            name=self.name,
            shard_memory=self.shard_memory,
            max_shards=self.max_shards,
            shard_count=self.shard_count,
            peak_shard_load=self.peak_shard_load,
            exchanges=self.exchanges,
            bytes_exchanged=self.bytes_exchanged,
            op_counts=dict(self._op_counts),
            plans=self.plans_run,
            workers=self.workers,
        )

    def _count_op(self, op: str) -> None:
        self._op_counts[op] = self._op_counts.get(op, 0) + 1

    # -- round plans ---------------------------------------------------------

    def run_plan(self, plan: RoundPlan) -> tuple:
        """Execute one :class:`~repro.mpc.plan.RoundPlan`; returns its outputs.

        Steps run in order through the *public* operations —
        behaviourally identical to the eager calls the plan records, so
        results, capacity enforcement, and every exchange/byte counter
        match the unplanned execution bit for bit on any backend.
        """
        self.plans_run += 1
        return run_plan_steps(self, plan)

    # -- operations ----------------------------------------------------------

    def scatter(self, values) -> np.ndarray:
        """Place ``values`` on the fleet in canonical layout (one barrier);
        returns the placed array.

        Capacity and payload are counted in *words*: a row of a
        multi-column array (e.g. one edge of an ``(m, 2)`` list) is one
        word per column, matching the model's accounting."""
        self._count_op("scatter")
        values = np.asarray(values)
        shards = self.ensure_capacity(int(values.size))
        self._exchange(shards, int(values.nbytes))
        return values

    def sort(self, values, order_by=None) -> np.ndarray:
        """Globally stable-sort ``values`` by ``order_by`` (by the values
        themselves when ``None``); raises :class:`ValueError` unless the
        keys are 1-D with one per value row.

        Routing sends the item at rank ``r`` to shard ``r // s``, so each
        shard receives at most ``s`` items; the shard-boundary splitters
        (the sorted values at positions ``s, 2s, …``) are broadcast so
        every shard can route locally — their cost is counted into the
        same barrier."""
        self._count_op("sort")
        values = np.asarray(values)
        keys, values = _keyed(values if order_by is None else order_by, values)
        n = int(values.shape[0])
        shards = self.ensure_capacity(n)
        order = stable_order(keys)
        out = values[order]
        if shards > 1:
            moved = _crossings(order, self._s)
            splitter_bytes = (shards - 1) * shards * out.itemsize
            self._exchange(shards, moved * out.itemsize + splitter_bytes)
        return out

    def search(self, table, queries) -> np.ndarray:
        """Parallel search: annotate integer ``queries`` with ``table``
        entries (``table[queries]``).

        Query at position ``p`` lives on shard ``p // s``; the key it
        references lives on shard ``key // s`` — crossing pairs ship the
        query over and the annotation back in one barrier (the cost
        model prices search like sort, which covers the skew-free
        routing Goodrich's construction guarantees)."""
        self._count_op("search")
        table = np.asarray(table)
        queries = np.asarray(queries)
        # Capacity check first: a capped fleet must reject oversized input
        # before any compute runs.
        shards = self.ensure_capacity(int(table.shape[0]) + int(queries.shape[0]))
        result = table[queries]
        if shards > 1:
            crossing = _crossings(queries, self._s)
            self._exchange(
                shards, crossing * (queries.itemsize + result.itemsize)
            )
        return result

    def reduce_by_key(self, keys, values, op: str = "min"):
        """Group ``values`` by ``keys`` and fold with ``op``; returns the
        sorted unique keys and one reduced value per key.

        Raises :class:`ValueError` for an unknown ``op``, keys that are
        not 1-D, or a key count that differs from the value rows.
        Routing is by key rank (the stable order); groups straddling a
        shard boundary combine their partials in the same barrier (≤ 1
        partial per boundary)."""
        self._count_op("reduce_by_key")
        keys, values = _keyed(keys, values, op)
        n = int(keys.shape[0])
        shards = self.ensure_capacity(n)
        unique, reduced, order = _grouped_reduce(keys, values, op)
        if shards > 1 and order is not None:
            moved = _crossings(order, self._s)
            partial_bytes = (shards - 1) * (keys.itemsize + values.itemsize)
            self._exchange(shards, moved * keys.itemsize + partial_bytes)
        return unique, reduced

    def min_label_exchange(self, labels, send, recv):
        """One min-label broadcast level; returns ``(new_labels,
        incoming)`` with ``incoming = labels[send]`` folded onto
        ``labels[recv]`` by elementwise minimum.

        Each edge copy reads its sending endpoint's label locally
        (co-located with it) and ships it to the receiving endpoint's
        home — one barrier, payload = the incidences whose endpoints live
        on different shards."""
        self._count_op("min_label_exchange")
        labels = np.asarray(labels)
        send = np.asarray(send)
        recv = np.asarray(recv)
        # Capacity check first (see search()).
        shards = self.ensure_capacity(int(labels.shape[0]) + int(send.shape[0]))
        incoming = labels[send]
        new_labels = labels.copy()
        np.minimum.at(new_labels, recv, incoming)
        if shards > 1:
            crossing = _pair_crossings(send, recv, self._s)
            self._exchange(shards, crossing * incoming.itemsize)
        return new_labels, incoming

    # -- sketch ingest seam ---------------------------------------------------
    #
    # The streaming layer's sharded AGM sketch routes its update batches
    # through these ops (see ``repro.sketch.sharded``).  The store
    # argument is a ``SketchPartialStore``: shard partials plus the
    # plain-array kernel parameters.  The backend a sketch ingests on
    # places its partials once (``_place_sketch_partials``) and owns
    # them from then on: zeroed arrays here, persistent-arena segments
    # on the process pool, worker-resident state on the rpc pool.

    def _place_sketch_partials(self, store) -> None:
        """Place a new sketch's shard partials: zeroed arrays in this
        process, updated by the shared kernel in place."""
        for part in store.partials:
            part.data = np.zeros(store.partial_shape(part), dtype=np.int64)

    def sketch_update(self, store, edges, weights) -> int:
        """Broadcast one signed edge-update batch to the sketch shard
        partials; returns the number of incidence updates applied.

        Capacity is charged on the batch in flight (the edge endpoints
        plus their weights — the partials themselves are standing state,
        not a message); the broadcast to ``store.shard_count`` owner
        ranges is one barrier when more than one shard listens.  A
        backend without ``shard_memory`` skips the capacity check
        (standing ingest services have no engine to attach one).
        """
        self._count_op("sketch_update")
        edges = np.asarray(edges)
        weights = np.asarray(weights)
        if self.shard_memory is not None:
            self.ensure_capacity(int(edges.size) + int(weights.size))
        applied = self._kernel_sketch_update(store, edges, weights)
        self._exchange(store.shard_count, int(edges.nbytes + weights.nbytes))
        return applied

    def sketch_collect(self, store) -> "list[np.ndarray]":
        """Gather the shard partials to the coordinator for a decode —
        one barrier carrying the partial payloads."""
        self._count_op("sketch_collect")
        parts = self._kernel_sketch_collect(store)
        self._exchange(
            store.shard_count, int(sum(int(p.nbytes) for p in parts))
        )
        return parts

    def sketch_release(self, store) -> None:
        """Drop backend-held partial state for ``store`` (best effort;
        in-process stores hold nothing backend-side)."""
        self._count_op("sketch_release")
        self._kernel_sketch_release(store)

    def _kernel_sketch_update(self, store, edges, weights) -> int:
        """Sketch-update kernel: the shared per-shard scatter, in-process."""
        return store.apply_serial(edges, weights)

    def _kernel_sketch_collect(self, store) -> "list[np.ndarray]":
        """Sketch-collect kernel: read the locally held partial arrays."""
        return store.local_partial_data()

    def _kernel_sketch_release(self, store) -> None:
        """Sketch-release kernel: nothing held backend-side by default."""
        return None

    # -- walk sampling --------------------------------------------------------

    def walk(
        self,
        heads,
        degree: int,
        steps: int,
        columns: int,
        entropy: int,
    ) -> np.ndarray:
        """Walk ``columns`` independent lazy ``steps``-step walkers from every
        vertex of a ``degree``-regular graph with CSR ``heads`` (vertex
        ``v``'s port ``p`` leads to ``heads[v·degree + p]``); returns the
        ``(columns, n)`` int64 endpoints, row ``c`` holding column ``c``.

        Column ``c`` draws only from ``SeedSequence(entropy,
        spawn_key=(c,))`` (see :func:`walk_columns`), so the endpoints are
        bit-identical on every backend and for any split of the columns.
        The walk is not a plan step, so it adds no op count (trace replay
        reproduces ``op_counts`` from the recorded plans alone), exchange
        or capacity charge: the caller charges Theorem 3's rounds for it.
        Subclasses override :meth:`_kernel_walk` to split the columns.
        """
        heads = np.asarray(heads)
        degree = check_positive_int(degree, "degree")
        steps = check_positive_int(steps, "steps")
        columns = check_nonnegative_int(columns, "columns")
        if heads.ndim != 1 or heads.dtype.kind not in "iu" or heads.shape[0] % degree:
            raise ValueError(
                f"heads must be a 1-D integer array of n·{degree} entries, "
                f"got {heads.dtype} of shape {heads.shape}"
            )
        n = heads.shape[0] // degree
        if heads.size and (heads.min() < 0 or heads.max() >= n):
            raise ValueError(f"heads must lie in [0, {n})")
        return self._kernel_walk(heads, degree, steps, columns, int(entropy))

    def _kernel_walk(self, heads, degree, steps, columns, entropy) -> np.ndarray:
        """Walk kernel: every column in this process."""
        (targets,) = walk_columns(
            heads, lo=0, hi=columns, degree=degree, steps=steps, entropy=entropy
        )
        return targets


class LocalBackend(ExecutionBackend):
    """Accounting-only backend: the serial compute on plain arrays, no caps.

    Every op is :class:`ExecutionBackend`'s on one machine: it counts
    itself, checks its operands and computes serially, so results,
    RNG streams and round charges equal every other backend's — the
    zero-overhead default.
    """

    name = "local"


class ShardedBackend(ExecutionBackend):
    """Vectorised sharded executor with enforced memory/communication caps.

    The ops and counters are :class:`ExecutionBackend`'s; this class
    supplies the fleet they run on: :meth:`ensure_capacity` sizes it and
    enforces the caps, and :meth:`_exchange` counts the barriers and
    bytes the ops report.

    Parameters
    ----------
    shard_memory:
        The per-shard capacity ``s`` (words).  When ``None`` it is bound
        to the owning engine's ``machine_memory`` at attach time, so the
        enforced bound is exactly the bound the engine charges against.
    max_shards:
        Optional hard fleet size.  When set, any operation (or engine
        charge) whose data volume needs more than ``max_shards`` shards
        raises :class:`MachineMemoryError` — input exceeding
        ``max_shards × shard_memory`` cannot be placed.  When ``None``
        the fleet grows as ``ceil(N/s)``, the standard MPC regime where
        the machine *count* is unbounded but each machine is small.
    """

    name = "sharded"

    def __init__(
        self,
        shard_memory: "int | None" = None,
        *,
        max_shards: "int | None" = None,
    ):
        super().__init__()
        if shard_memory is not None:
            shard_memory = check_positive_int(shard_memory, "shard_memory")
        if max_shards is not None:
            max_shards = check_positive_int(max_shards, "max_shards")
        self.shard_memory = shard_memory
        self.max_shards = max_shards

    # -- lifecycle -----------------------------------------------------------

    def attach(self, machine_memory: int) -> None:
        """Adopt the engine's machine memory as ``s`` when unset."""
        if self.shard_memory is None:
            self.shard_memory = check_positive_int(machine_memory, "machine_memory")

    # -- enforcement / accounting --------------------------------------------

    @property
    def _s(self) -> int:
        if self.shard_memory is None:
            raise RuntimeError(
                "ShardedBackend has no shard_memory; pass one or attach an engine"
            )
        return self.shard_memory

    def shards_for(self, total_items: int) -> int:
        """Shards needed for ``total_items`` in canonical layout."""
        total_items = check_nonnegative_int(total_items, "total_items")
        return max(1, math.ceil(total_items / self._s))

    def ensure_capacity(self, total_items: int) -> int:
        """Check ``total_items`` fits the fleet and update peak counters.

        Raises
        ------
        MachineMemoryError
            When ``max_shards`` is set and ``total_items`` needs more
            than ``max_shards × shard_memory`` words — the input cannot
            be placed on the capped fleet.
        """
        shards = self.shards_for(total_items)
        if self.max_shards is not None and shards > self.max_shards:
            raise MachineMemoryError(
                f"{total_items} items need {shards} shards of {self._s} words; "
                f"fleet is capped at {self.max_shards} "
                f"(capacity {self.max_shards * self._s})"
            )
        self.shard_count = max(self.shard_count, shards)
        self.peak_shard_load = max(
            self.peak_shard_load, min(total_items, self._s)
        )
        return shards

    def _exchange(self, shards: int, nbytes: int) -> None:
        """Record one all-to-all barrier (single-shard ops are local)."""
        if shards > 1:
            self.exchanges += 1
            self.bytes_exchanged += int(nbytes)


class PooledBackend(ShardedBackend):
    """Sharded execution on a pool of workers, whatever the transport.

    Accounting (capacity enforcement, exchange/byte counters, op counts)
    stays in the public operations and :class:`ShardedBackend`'s fleet
    hooks; this class overrides only the walk compute hook (and gives
    its subclasses the pooled sketch ingest), planning each into
    per-worker steps over :data:`~repro.mpc.kernels.KERNELS` and
    assembling the replies, so results *and* counters are bit-identical
    to the serial backend.  ``sort``, ``search``, ``reduce_by_key`` and
    ``min_label_exchange`` are never planned: on 2 workers a pooled sort
    or reduce lost to the parent's stable order at every size measured
    (up to 4M keys), and one gather or one ``minimum.at`` in the parent
    is faster than dispatching it.  Subclasses supply the transport:

    * ``_pooled(words)`` — whether an operation of that size uses the
      pool (below it, the serial hooks of :class:`ExecutionBackend`
      run);
    * ``_execute(arrays, dests, plans, finish, resident)`` — run
      ``plans[w]`` on worker ``w`` over the named input ``arrays`` (and
      the transport's ``resident`` bindings), place outputs into fresh
      ``dests`` arrays (``name → (shape, dtype)``), and return
      ``finish(dests, replies)`` with one
      :func:`~repro.mpc.kernels.place` reply per plan.
      Results must not alias transport-owned buffers.
    """

    def __init__(
        self,
        shard_memory: "int | None" = None,
        *,
        max_shards: "int | None" = None,
        workers: int,
    ):
        super().__init__(shard_memory, max_shards=max_shards)
        self.workers = check_positive_int(workers, "workers")

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- transport (subclass responsibility) ---------------------------------

    def _pooled(self, words: int) -> bool:
        raise NotImplementedError

    def _execute(self, arrays, dests, plans, finish, resident=None):
        raise NotImplementedError

    # -- planning ------------------------------------------------------------

    def _kernel_walk(self, heads, degree, steps, columns, entropy):
        n = int(heads.shape[0]) // degree
        if not self._pooled(n * columns):
            return super()._kernel_walk(heads, degree, steps, columns, entropy)
        plans = [
            [_step(
                "walk", ["heads"], ["targets"], lo=lo, hi=hi, degree=degree,
                steps=steps, entropy=entropy,
            )]
            for lo, hi in position_blocks(columns, self.workers)
        ]
        (targets,) = self._execute(
            {"heads": heads},
            {"targets": ((columns, n), np.int64)},
            plans,
            lambda out, _: (out["targets"],),
        )
        return targets

    def _pooled_sketch_update(self, store, edges, weights, partials: list) -> int:
        """Scatter one update batch into every shard partial: one message
        per worker, one step per owned shard.  ``partials[i]`` is the
        transport's binding of shard ``i``'s partial (bound as the
        step's first input)."""
        params = store.params
        steps = [
            _step(
                "sketch_update",
                [f"partial_{shard}", "edges", "weights", "level_coeffs",
                 "row_coeffs", "bases"],
                [f"applied_{shard}"],
                vlo=part.vlo,
                vhi=part.vhi,
                n=params["n"],
                levels=params["levels"],
                cols=params["cols"],
            )
            for shard, part in enumerate(store.partials)
        ]
        plans = [
            steps[lo:hi] for lo, hi in position_blocks(len(steps), self.workers)
        ]
        (applied,) = self._execute(
            {
                "edges": edges,
                "weights": weights,
                "level_coeffs": params["level_coeffs"],
                "row_coeffs": params["row_coeffs"],
                "bases": params["bases"],
            },
            {},
            plans,
            lambda _, replies: (
                sum(int(count[0]) for reply in replies for count in reply.values()),
            ),
            resident={f"partial_{i}": p for i, p in enumerate(partials)},
        )
        return applied


#: Registry for CLI/pipeline string selection.  ``"process"`` and
#: ``"rpc"`` are added by :mod:`repro.mpc.process_backend` and
#: :mod:`repro.mpc.rpc` at import time — and since importing *this*
#: module always executes the :mod:`repro.mpc` package ``__init__``
#: first (which imports both), every import path sees the full
#: registry.
BACKENDS = {
    "local": LocalBackend,
    "sharded": ShardedBackend,
}


def backend_names() -> "list[str]":
    """All selectable backend names, sorted."""
    return sorted(BACKENDS)


def make_backend(spec, **kwargs) -> "ExecutionBackend | None":
    """Resolve a backend spec into an instance.

    Parameters
    ----------
    spec:
        ``None`` (caller default, returned as-is), a name from
        :data:`BACKENDS` (``"local"``, ``"sharded"``, ``"process"``,
        ``"rpc"``), or an
        :class:`ExecutionBackend` instance (returned unchanged).
    **kwargs:
        Constructor options for a named backend (e.g. ``workers=4`` for
        ``"process"``).  Rejected when ``spec`` is already an instance.

    Raises
    ------
    ValueError
        Unknown name, or options passed alongside an instance.
    TypeError
        ``spec`` is neither ``None``, a string, nor a backend instance.
    """
    if spec is None:
        return None
    if isinstance(spec, ExecutionBackend):
        if kwargs:
            raise ValueError("cannot pass options with a backend instance")
        return spec
    if isinstance(spec, str):
        # Lookup and construction are separated deliberately: a KeyError
        # escaping a backend *constructor* must propagate as-is, not be
        # mislabelled as an unknown-name error.
        try:
            cls = BACKENDS[spec]
        except KeyError:
            raise ValueError(
                f"unknown backend {spec!r}; available: {backend_names()}"
            ) from None
        return cls(**kwargs)
    raise TypeError(f"backend must be None, a name, or an ExecutionBackend: {spec!r}")
