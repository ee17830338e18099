"""One kernel table for the worker pools: every pooled block kernel, the
partition helpers, and each op's planner, written once.

A pooled operation is one MPC round in miniature: every worker runs a
block kernel over its part of the data, then the parent waits at one
exchange barrier.  :class:`~repro.mpc.process_backend.ProcessBackend`
and :class:`~repro.mpc.rpc.RpcBackend` differ only in how arrays reach
their workers — shared-memory views or digest-deduplicated socket
frames — so everything else lives here:

* :data:`KERNELS` — the block kernels, pure functions from input arrays
  plus JSON-able params to a tuple of output arrays;
* the partition helpers both pools plan with;
* :class:`PooledBackend` — plans each op into per-worker steps and
  assembles the replies.  A transport implements only
  :meth:`~PooledBackend._pooled` (when to use the pool) and
  :meth:`~PooledBackend._execute` (bind arrays, run the steps).

A *step* is the JSON-able dict ``{"op", "inputs", "outputs",
"params"}``: a kernel name, the names of the arrays it reads, the names
of its outputs, and its params (:func:`run_step` executes one).  An
output whose name is one of the op's *destinations* is placed
(:func:`place`) into that array: the process pool places in the worker,
straight into shared memory; the rpc pool places in the parent, from
the ACK.

Partitioning
------------
Work follows the canonical shard layout
:class:`~repro.mpc.backends.ShardedBackend` accounts for: with
``shard_count`` shards of ``s`` words, each worker owns
``ceil(shard_count / workers)`` consecutive shards.

* ``search`` — query positions are split into shard-aligned blocks;
  each worker gathers ``table[queries[lo:hi]]`` for its block.
* ``sort`` / ``reduce_by_key`` — sample sort: a deterministic sample of
  the keys yields ``W - 1`` splitters, and each worker stable-sorts the
  keys in its splitter range (original positions ascending break ties,
  so the buckets laid end to end *are* the global stable argsort, bit
  for bit).  Reduce also folds each group in its bucket; key ranges are
  disjoint, so no combine step is needed.
* ``min_label_exchange`` — two steps per worker in one message: a
  gather fills ``incoming = labels[send]`` for a position block, and a
  fold owns a label block and applies ``minimum.at`` for exactly the
  incidences received there (min is commutative, associative, and
  idempotent, so any partition gives the serial result).  The fold finds
  its incidences by scanning the full arrays: the compares are cheap,
  the scalar scatter they feed is what the partition divides.
* ``csr_min_label`` — the same gather, and a fold that reads the
  contiguous slot range ``indptr[lo]:indptr[hi]`` its label block owns,
  with no scan.
* ``sketch_update`` — each worker owns a contiguous group of sketch
  shard partials and scatters the batch into each of them in place.
* ``walk`` — each worker walks a contiguous block of walk columns.  A
  column seeds its own random stream, so any split gives the serial
  endpoints.

Inputs the range partition cannot handle exactly (non-finite float
keys, object dtypes, unsupported shapes) take the serial
:class:`~repro.mpc.backends.ShardedBackend` kernels, as do operations
below the pool's size threshold.
"""

from __future__ import annotations

import math

import numpy as np

from repro.mpc.backends import _REDUCERS, ShardedBackend, _grouped_reduce, walk_columns
from repro.utils.validation import check_positive_int

# ---------------------------------------------------------------------------
# Partition helpers
# ---------------------------------------------------------------------------


def position_blocks(n: int, s: int, workers: int) -> "list[tuple[int, int]]":
    """Shard-aligned position blocks: worker ``w`` owns the
    ``ceil(shard_count / workers)`` consecutive shards of block ``w``.
    """
    shards = max(1, math.ceil(n / s))
    per_worker = math.ceil(shards / min(workers, shards))
    blocks = []
    for w in range(workers):
        lo = w * per_worker * s
        if lo >= n:
            break
        blocks.append((lo, min(n, (w + 1) * per_worker * s)))
    return blocks


def key_bounds(keys: np.ndarray, buckets: int) -> "list[tuple]":
    """Splitter-delimited key ranges for sample sort: ``≤ buckets``
    disjoint half-open intervals covering the key space, picked from a
    deterministic sample so buckets are approximately balanced.  Bounds
    are Python scalars (``None`` is open), so they pickle and
    JSON-encode as they are.
    """
    if buckets == 1:
        return [(None, None)]
    step = max(1, keys.shape[0] // (buckets * 64))
    sample = np.sort(keys[::step], kind="stable")
    positions = [(sample.shape[0] * i) // buckets for i in range(1, buckets)]
    splitters = np.unique(sample[positions])
    bounds = [None, *splitters.tolist(), None]
    return list(zip(bounds[:-1], bounds[1:]))


def bucket(keys: np.ndarray, lo, hi) -> "tuple[np.ndarray, int]":
    """Original positions (ascending) of the keys in ``[lo, hi)`` plus the
    bucket's global output offset (= count of keys below ``lo``).

    ``None`` bounds are open: ``(None, None)`` selects everything.
    """
    if lo is None and hi is None:
        return np.arange(keys.shape[0], dtype=np.int64), 0
    mask = np.ones(keys.shape[0], dtype=bool)
    if lo is not None:
        mask &= keys >= lo
    if hi is not None:
        mask &= keys < hi
    offset = 0 if lo is None else int(np.count_nonzero(keys < lo))
    return np.flatnonzero(mask), offset


def partitionable(keys: np.ndarray) -> bool:
    """Key dtypes the range partition handles exactly (ints, bools,
    finite floats); anything else falls back to the serial kernel.
    """
    if keys.dtype.kind in "iub":
        return True
    if keys.dtype.kind == "f":
        return bool(np.isfinite(keys).all())
    return False


def plain(*arrays: np.ndarray) -> bool:
    """True iff no array has an object dtype: PyObject pointers are
    meaningless in another process (and refcount-unsafe after fork), so
    such arrays take the serial kernels instead.
    """
    return not any(array.dtype.hasobject for array in arrays)


def reduced_dtype(values: np.ndarray, op: str) -> np.dtype:
    """The dtype the serial fold returns (``add`` widens bools and small
    integers), so a reduce destination holds exactly what it gives."""
    return _REDUCERS[op].reduceat(values[:1], [0]).dtype


# ---------------------------------------------------------------------------
# Block kernels
# ---------------------------------------------------------------------------


def gather(table, queries, *, lo, hi):
    """``table[queries[lo:hi]]`` for one position block: the search
    kernel, and the incoming gather ``labels[send[lo:hi]]`` of a
    min-label level."""
    return (table[queries[lo:hi]],)


def sort_bucket(keys, values, *, lo, hi):
    """Stable-sort the keys in ``[lo, hi)``: returns the bucket's slice of
    the global stable argsort, the values gathered through it, and the
    slice's output offset."""
    idx, offset = bucket(keys, lo, hi)
    seg = idx[np.argsort(keys[idx], kind="stable")]
    return seg, values[seg], np.array([offset], dtype=np.int64)


def reduce_bucket(keys, values, *, lo, hi, op):
    """Grouped fold of the keys in ``[lo, hi)``: the bucket's slice of the
    sort permutation, its unique keys and folded values, and its output
    offset."""
    idx, offset = bucket(keys, lo, hi)
    if idx.size:
        unique, reduced, local = _grouped_reduce(keys[idx], values[idx], op)
        seg = idx[local]
    else:
        unique, reduced, seg = keys[:0], values[:0], idx
    return seg, unique, reduced, np.array([offset], dtype=np.int64)


def min_fold(labels, send, recv, *, lo, hi):
    """The new labels of block ``[lo, hi)``: each folds, by minimum, the
    labels of the incidences whose receiving endpoint it is."""
    out = labels[lo:hi].copy()
    mask = (recv >= lo) & (recv < hi)
    targets = recv[mask].astype(np.intp, copy=False)
    targets -= lo  # in place: the masked gather is already a private copy
    np.minimum.at(out, targets, labels[send[mask]])
    return (out,)


def csr_min_fold(labels, indptr, indices, *, lo, hi):
    """The CSR fold of block ``[lo, hi)``: its vertices own the slot range
    ``indptr[lo]:indptr[hi]``, so one ``minimum.reduceat`` over the
    non-empty runs folds every row."""
    out = labels[lo:hi].copy()
    block_ptr = indptr[lo : hi + 1]
    base = block_ptr[0]
    nz = np.diff(block_ptr) > 0
    if nz.any():
        incoming = labels[indices[base : block_ptr[-1]]]
        starts = (block_ptr[:-1] - base)[nz]
        out[nz] = np.minimum(out[nz], np.minimum.reduceat(incoming, starts))
    return (out,)


def sketch_update(
    partial, edges, weights, level_coeffs, row_coeffs, bases,
    *, vlo, vhi, n, levels, cols,
):
    """Scatter one update batch into one sketch shard partial, in place;
    returns the count of incidence updates applied."""
    # Imported lazily: the sketch layer sits above the backend stack.
    from repro.sketch.agm import sketch_update_partial

    applied = sketch_update_partial(
        partial, edges, weights, vlo=vlo, vhi=vhi, n=n, levels=levels,
        cols=cols, level_coeffs=level_coeffs, row_coeffs=row_coeffs,
        bases=bases,
    )
    return (np.array([applied], dtype=np.int64),)


#: The kernel table: step op name → block kernel.
KERNELS = {
    "search": gather,
    "sort": sort_bucket,
    "reduce": reduce_bucket,
    "gather_incoming": gather,
    "min_fold": min_fold,
    "csr_min_fold": csr_min_fold,
    "sketch_update": sketch_update,
    "walk": walk_columns,
}


def run_step(step: dict, env: dict) -> None:
    """Run one step: call its kernel on the ``env`` arrays its inputs
    name and store the outputs in ``env`` under its output names."""
    outputs = KERNELS[step["op"]](
        *(env[name] for name in step["inputs"]), **step["params"]
    )
    env.update(zip(step["outputs"], outputs))


def place(dests: dict, step: dict, env: dict) -> dict:
    """Move a step's outputs out of ``env`` (freeing them before the next
    step allocates its own) into the same-named ``dests`` arrays, from
    the ``offset`` a bucket kernel reports, else from the block's ``lo``.

    Returns what the assembly reads: the ``(start, stop)`` span of every
    placed output, and every other output (sketch counts) as it is.
    """
    outputs = {name: env.pop(name) for name in step["outputs"]}
    if "offset" in outputs:
        start = int(outputs.pop("offset")[0])
    else:
        start = step["params"].get("lo")
    reply = {}
    for name, array in outputs.items():
        if name in dests:
            stop = start + array.shape[0]
            dests[name][start:stop] = array
            reply[name] = (start, stop)
        else:
            reply[name] = array
    return reply


def _step(kernel: str, inputs, outputs, **params) -> dict:
    return {"op": kernel, "inputs": inputs, "outputs": outputs, "params": params}


# ---------------------------------------------------------------------------
# Planner and assembler
# ---------------------------------------------------------------------------


class PooledBackend(ShardedBackend):
    """Sharded execution on a pool of workers, whatever the transport.

    Accounting (capacity enforcement, exchange/byte counters, op counts)
    stays in the :class:`~repro.mpc.backends.ShardedBackend` public
    operations; this class overrides only the ``_kernel_*`` compute
    hooks, planning each into per-worker steps over :data:`KERNELS` and
    assembling the replies, so results *and* counters are bit-identical
    to the serial backend.  Subclasses supply the transport:

    * ``_pooled(words)`` — whether an operation of that size uses the
      pool (below it, the serial kernels run);
    * ``_execute(arrays, dests, plans, finish, resident)`` — run
      ``plans[w]`` on worker ``w`` over the named input ``arrays`` (and
      the transport's ``resident`` bindings), place outputs into fresh
      ``dests`` arrays (``name → (shape, dtype)``), and return
      ``finish(dests, replies)`` with one :func:`place` reply per plan.
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

    def stats(self):
        """Sharded counters plus the pool size."""
        snapshot = super().stats()
        snapshot.workers = self.workers
        return snapshot

    # -- transport (subclass responsibility) ---------------------------------

    def _pooled(self, words: int) -> bool:
        raise NotImplementedError

    def _execute(self, arrays, dests, plans, finish, resident=None):
        raise NotImplementedError

    # -- planning ------------------------------------------------------------

    def _blocks(self, n: int) -> "list[tuple[int, int]]":
        return position_blocks(n, self._s, self.workers)

    def _buckets(self, keys: np.ndarray) -> "list[tuple]":
        n = int(keys.shape[0])
        return key_bounds(keys, max(1, min(self.workers, self.shards_for(n))))

    def _sortable(self, keys: np.ndarray, values: np.ndarray) -> bool:
        """Whether a sort or reduce takes the pool: 1-D keys the range
        partition handles exactly, plain values of at most two dims."""
        return (
            self._pooled(int(keys.shape[0]))
            and keys.ndim == 1
            and values.ndim <= 2
            and partitionable(keys)
            and plain(values)
        )

    def _labelable(self, labels: np.ndarray, slots: np.ndarray) -> bool:
        """Whether a min-label level takes the pool: 1-D plain labels
        and 1-D incidence slots."""
        return (
            self._pooled(int(labels.shape[0]) + int(slots.shape[0]))
            and labels.ndim == 1
            and slots.ndim == 1
            and plain(labels)
        )

    def _kernel_search(self, table: np.ndarray, queries: np.ndarray):
        n = int(queries.shape[0])
        if not (
            self._pooled(n)
            and queries.ndim == 1
            and queries.dtype.kind in "iu"
            and table.ndim <= 2
            and plain(table)
        ):
            return super()._kernel_search(table, queries)
        plans = [
            [_step("search", ["table", "queries"], ["found"], lo=lo, hi=hi)]
            for lo, hi in self._blocks(n)
        ]
        (found,) = self._execute(
            {"table": table, "queries": queries},
            {"found": ((n,) + table.shape[1:], table.dtype)},
            plans,
            lambda out, _: (out["found"],),
        )
        return found

    def _kernel_sort(self, values: np.ndarray, keys: np.ndarray):
        if not self._sortable(keys, values):
            return super()._kernel_sort(values, keys)
        n = int(values.shape[0])
        # ``sort(values)`` orders by the values themselves: bind them once.
        arrays = {"keys": keys}
        if values is not keys:
            arrays["values"] = values
        inputs = ["keys", "keys" if values is keys else "values"]
        plans = [
            [_step("sort", inputs, ["order", "sorted", "offset"], lo=lo, hi=hi)]
            for lo, hi in self._buckets(keys)
        ]
        return self._execute(
            arrays,
            {"sorted": (values.shape, values.dtype), "order": ((n,), np.int64)},
            plans,
            lambda out, _: (out["sorted"], out["order"]),
        )

    def _kernel_reduce(self, keys: np.ndarray, values: np.ndarray, op: str):
        if not self._sortable(keys, values):
            return super()._kernel_reduce(keys, values, op)
        n = int(keys.shape[0])
        outputs = ["order", "unique", "reduced", "offset"]
        plans = [
            [_step("reduce", ["keys", "values"], outputs, lo=lo, hi=hi, op=op)]
            for lo, hi in self._buckets(keys)
        ]

        def finish(out, replies):
            # Key ranges are disjoint and ascending, so the buckets'
            # unique/reduced slices laid end to end are the global result.
            spans = [reply["unique"] for reply in replies]
            return (
                np.concatenate([out["unique"][a:b] for a, b in spans]),
                np.concatenate([out["reduced"][a:b] for a, b in spans]),
                out["order"],
            )

        return self._execute(
            {"keys": keys, "values": values},
            {
                "order": ((n,), np.int64),
                "unique": ((n,), keys.dtype),
                "reduced": (values.shape, reduced_dtype(values, op)),
            },
            plans,
            finish,
        )

    def _kernel_min_label(
        self, labels: np.ndarray, send: np.ndarray, recv: np.ndarray
    ):
        if not self._labelable(labels, send):
            return super()._kernel_min_label(labels, send, recv)
        return self._label_level(
            {"labels": labels, "send": send, "recv": recv}, "send", "min_fold"
        )

    def _kernel_csr_min_label(
        self, labels: np.ndarray, indptr: np.ndarray, indices: np.ndarray
    ):
        if not self._labelable(labels, indices):
            return super()._kernel_csr_min_label(labels, indptr, indices)
        return self._label_level(
            {"labels": labels, "indptr": indptr, "indices": indices},
            "indices",
            "csr_min_fold",
        )

    def _label_level(self, arrays: dict, sources: str, fold: str):
        """One min-label level: per worker, a gather step over a block of
        the ``sources`` slots and a ``fold`` step (reading every array)
        over a block of labels, fused in one message — both read only
        the immutable inputs and write disjoint outputs, so no barrier
        is needed between them."""
        labels = arrays["labels"]
        slots = int(arrays[sources].shape[0])
        pos_blocks = self._blocks(slots)
        label_blocks = self._blocks(int(labels.shape[0]))
        gather_inputs, fold_inputs = ["labels", sources], list(arrays)
        plans = []
        for w in range(max(len(pos_blocks), len(label_blocks))):
            steps = []
            if w < len(pos_blocks):
                lo, hi = pos_blocks[w]
                steps.append(_step(
                    "gather_incoming", gather_inputs, ["incoming"], lo=lo, hi=hi
                ))
            if w < len(label_blocks):
                lo, hi = label_blocks[w]
                steps.append(_step(fold, fold_inputs, ["folded"], lo=lo, hi=hi))
            plans.append(steps)
        return self._execute(
            arrays,
            {
                "incoming": ((slots,), labels.dtype),
                "folded": (labels.shape, labels.dtype),
            },
            plans,
            lambda out, _: (out["folded"], out["incoming"]),
        )

    def _kernel_walk(self, heads, degree, steps, columns, entropy, lazy):
        n = int(heads.shape[0]) // degree
        if not self._pooled(n * columns):
            return super()._kernel_walk(heads, degree, steps, columns, entropy, lazy)
        plans = [
            [_step(
                "walk", ["heads"], ["targets"], lo=lo, hi=hi, degree=degree,
                steps=steps, lazy=lazy, entropy=entropy,
            )]
            for lo, hi in position_blocks(columns, 1, self.workers)
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
            steps[lo:hi] for lo, hi in position_blocks(len(steps), 1, self.workers)
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
