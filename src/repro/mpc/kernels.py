"""All MPC compute, written once: the serial numpy helpers, every pooled
block kernel, and the partition helpers the pools plan with.

The backends of :mod:`repro.mpc.backends` only call into this module —
it imports nothing from them:

* the serial hooks of :class:`~repro.mpc.backends.ExecutionBackend` run
  :func:`_grouped_reduce`, :func:`csr_min_fold` over the one block
  ``[0, n)``, and :func:`walk_columns` over every column;
* :class:`~repro.mpc.backends.PooledBackend` plans each op into
  per-worker steps over :data:`KERNELS`, and its two transports
  (:class:`~repro.mpc.process_backend.ProcessBackend` over shared
  memory, :class:`~repro.mpc.rpc.RpcBackend` over socket frames) run
  those steps with :func:`run_step` and :func:`place`.

:data:`KERNELS` maps a step's op name to its block kernel, a pure
function from input arrays plus JSON-able params to a tuple of output
arrays.  A *step* is the JSON-able dict ``{"op", "inputs", "outputs",
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
keys, object dtypes, unsupported shapes) take the serial hooks, as do
operations below the pool's size threshold.
"""

from __future__ import annotations

import math

import numpy as np

#: Reduction operators supported by ``reduce_by_key``.
_REDUCERS = {
    "min": np.minimum,
    "max": np.maximum,
    "sum": np.add,
}


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


def _grouped_reduce(keys: np.ndarray, values: np.ndarray, op: str):
    """Sorted unique keys + per-group fold: ``(unique, reduced, order)``.

    Stable argsort keeps equal keys in input order, so ``op="min"`` over
    ascending index values reproduces ``np.unique(keys, return_index=True)``
    exactly — the contraction dedup relies on that.  Also returns the sort
    permutation (``None`` for empty input) so callers accounting for data
    movement don't argsort twice.  The backend ops check the operands
    (1-D keys, one per value row, a known ``op``) before calling it.
    """
    if keys.shape[0] == 0:
        return keys.copy(), values.copy(), None
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    sorted_values = values[order]
    starts = np.empty(sorted_keys.shape[0], dtype=bool)
    starts[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=starts[1:])
    boundaries = np.flatnonzero(starts)
    reduced = _REDUCERS[op].reduceat(sorted_values, boundaries)
    return sorted_keys[boundaries], reduced, order


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


def popcount64(words: np.ndarray) -> np.ndarray:
    """Set bits of each ``uint64`` word, as ``uint8``: ``np.bitwise_count``
    on numpy ≥ 2, an exact SWAR popcount on older numpy."""
    bitwise_count = getattr(np, "bitwise_count", None)
    if bitwise_count is not None:
        return bitwise_count(words)
    return _swar_popcount(words)


def _swar_popcount(words: np.ndarray) -> np.ndarray:
    """Popcount by SWAR: sum bits in 2-, 4- then 8-bit fields, and add the
    eight byte sums with one wrapping multiply into the top byte."""
    u = np.uint64
    x = words - ((words >> u(1)) & u(0x5555555555555555))
    x = (x & u(0x3333333333333333)) + ((x >> u(2)) & u(0x3333333333333333))
    x = (x + (x >> u(4))) & u(0x0F0F0F0F0F0F0F0F)
    return ((x * u(0x0101010101010101)) >> u(56)).astype(np.uint8)


def lazy_step_counts(rng: np.random.Generator, n: int, steps: int) -> np.ndarray:
    """Moves made by each of ``n`` lazy ``steps``-step walkers: the popcount
    of ``steps`` fair bits, so exactly ``Binomial(steps, ½)``.

    A lazy walk that stays put on each step with an independent fair coin
    is, in distribution, a plain walk of that many steps.
    """
    counts = np.zeros(n, dtype=np.min_scalar_type(steps))
    full, rest = divmod(steps, 64)
    for _ in range(full):
        counts += popcount64(rng.bit_generator.random_raw(n))
    if rest:
        counts += popcount64(rng.bit_generator.random_raw(n) & np.uint64((1 << rest) - 1))
    return counts


def walk_columns(heads, *, lo, hi, degree, steps, entropy):
    """The walk kernel: endpoints of lazy walk columns ``[lo, hi)``.

    Column ``c`` walks one lazy ``steps``-step walker from every vertex
    of the ``degree``-regular out-neighbour table ``heads`` and draws
    only from ``SeedSequence(entropy, spawn_key=(c,))``; row ``c - lo``
    of the ``(hi - lo, n)`` int64 result holds its endpoints.  A column
    draws every walker's move count (:func:`lazy_step_counts`), orders
    the walkers by it, longest first, and at step ``s`` advances only
    the prefix still moving.  Each move is one uniform port draw and one
    gather.
    """
    n = heads.shape[0] // degree
    index = np.int32 if n * degree <= np.iinfo(np.int32).max else np.int64
    # Walkers carry the slot base v·degree of their vertex v, so a move
    # is base + port -> bases[slot], with no multiply.
    bases = heads.astype(index) * degree
    port = np.min_scalar_type(degree - 1)
    out = np.empty((hi - lo, n), dtype=np.int64)
    slot = np.empty(n, dtype=index)
    for column in range(lo, hi):
        rng = np.random.default_rng(np.random.SeedSequence(entropy, spawn_key=(column,)))
        counts = lazy_step_counts(rng, n, steps)
        order = np.argsort(steps - counts, kind="stable")
        moving = n - np.cumsum(np.bincount(counts, minlength=steps + 1)[:steps])
        walkers = order.astype(index) * degree
        for active in moving.tolist():
            if active == 0:
                break
            np.add(
                walkers[:active],
                rng.integers(0, degree, size=active, dtype=port),
                out=slot[:active],
            )
            np.take(bases, slot[:active], out=walkers[:active], mode="clip")
        out[column - lo, order] = walkers // degree
    return (out,)


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
