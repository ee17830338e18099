"""All MPC compute, written once: the serial numpy helpers, every pooled
block kernel, and the partition helpers the pools plan with.

The backends of :mod:`repro.mpc.backends` only call into this module —
it imports nothing from them:

* the serial hooks of :class:`~repro.mpc.backends.ExecutionBackend` run
  :func:`stable_order`, :func:`_grouped_reduce` and :func:`walk_columns`
  over every column;
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
* ``sort`` / ``reduce_by_key`` — sample sort: a deterministic sample of
  the keys yields ``W - 1`` splitters, and each worker takes the
  :func:`stable_order` of the keys in its splitter range (original
  positions ascending break ties, so the buckets laid end to end *are*
  the global stable order, bit for bit).  Reduce also folds each group
  in its bucket; key ranges are disjoint, so no combine step is needed.
* ``sketch_update`` — each worker owns a contiguous group of sketch
  shard partials (:func:`position_blocks`) and scatters the batch into
  each of them in place.
* ``walk`` — each worker walks a contiguous block of walk columns
  (:func:`position_blocks`).  A column seeds its own random stream, so
  any split gives the serial endpoints.

``search`` and ``min_label_exchange`` have no block kernel: one gather
or one ``minimum.at`` in the parent costs less than dispatching it.
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
# The stable order
# ---------------------------------------------------------------------------


def stable_order(keys: np.ndarray) -> np.ndarray:
    """The stable argsort of 1-D ``keys``, bit for bit, as a fresh int64
    array that owns its data.

    Integer keys of 4 or 8 bytes sort as one packed ``uint64`` word per
    key, ``(key - min) << b | position`` with ``b`` the bit length of
    ``n - 1``.  The words are distinct, so numpy's unstable (SIMD) sort
    orders them exactly as a stable sort orders the keys, and masking
    the positions back out gives the permutation.  Everything else takes
    ``np.argsort(kind="stable")``: non-integer keys, 1- and 2-byte keys
    (numpy radix-sorts those already), ``n < 2``, and key spans whose
    bit length plus ``b`` exceeds 64.
    """
    keys = np.asarray(keys)
    n = keys.shape[0]
    if keys.dtype.kind not in "iu" or keys.dtype.itemsize < 4 or n < 2:
        return np.argsort(keys, kind="stable")
    lo = int(keys.min())
    shift = (n - 1).bit_length()
    if (int(keys.max()) - lo).bit_length() + shift > 64:
        return np.argsort(keys, kind="stable")
    order = np.empty(n, dtype=np.int64)
    words = order.view(np.uint64)
    # Modulo 2⁶⁴, key - min is exact: the span fits in 64 bits.
    np.subtract(
        keys, np.uint64(lo % (1 << 64)), out=words, dtype=np.uint64,
        casting="unsafe",
    )
    words <<= np.uint64(shift)
    words |= np.arange(n, dtype=np.uint64)
    words.sort()
    words &= np.uint64((1 << shift) - 1)
    return order


# ---------------------------------------------------------------------------
# Partition helpers
# ---------------------------------------------------------------------------


def position_blocks(n: int, workers: int) -> "list[tuple[int, int]]":
    """Contiguous blocks of ``[0, n)``, at most one per worker: block
    ``w`` holds the ``ceil(n / workers)`` positions from
    ``w · ceil(n / workers)`` on."""
    per_worker = math.ceil(max(1, n) / min(workers, max(1, n)))
    return [(lo, min(n, lo + per_worker)) for lo in range(0, n, per_worker)]


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
    sample = np.sort(keys[::step])
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


def sort_bucket(keys, values, *, lo, hi):
    """Stable-sort the keys in ``[lo, hi)``: returns the bucket's slice of
    the global stable order, the values gathered through it, and the
    slice's output offset."""
    idx, offset = bucket(keys, lo, hi)
    seg = idx[stable_order(keys[idx])]
    return seg, values[seg], np.array([offset], dtype=np.int64)


def _grouped_reduce(keys: np.ndarray, values: np.ndarray, op: str):
    """Sorted unique keys + per-group fold: ``(unique, reduced, order)``.

    The stable order (:func:`stable_order`) keeps equal keys in input
    order, so ``op="min"`` over ascending index values reproduces
    ``np.unique(keys, return_index=True)`` exactly — the contraction
    dedup relies on that.  Also returns the sort permutation (``None``
    for empty input) so callers accounting for data movement don't sort
    twice.  The backend ops check the operands (1-D keys, one per value
    row, a known ``op``) before calling it.
    """
    if keys.shape[0] == 0:
        return keys.copy(), values.copy(), None
    order = stable_order(keys)
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
        order = stable_order(steps - counts)
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
    "sort": sort_bucket,
    "reduce": reduce_bucket,
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
