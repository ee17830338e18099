"""The pooled kernel table, pinned in-process.

``ProcessBackend`` and ``RpcBackend`` share every planner, block kernel
and assembly step in :mod:`repro.mpc.kernels`; they differ only in how
arrays reach the workers.  These properties run that shared code over
an in-process transport — each worker's steps through
:func:`~repro.mpc.kernels.run_step` on read-only inputs, outputs placed
with :func:`~repro.mpc.kernels.place` — and require the assembled
outputs to equal the serial hooks of ``ExecutionBackend`` bit for bit,
in values and dtypes.  No process is spawned, so the suite runs in
seconds and the kernels count toward coverage.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.mpc import ShardedBackend
from repro.mpc.backends import PooledBackend
from repro.mpc.kernels import place, run_step
from repro.sketch import ShardedAGMSketch

hyp_settings = settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _read_only(array: np.ndarray) -> np.ndarray:
    view = array.view()
    view.flags.writeable = False
    return view


class InlineBackend(PooledBackend):
    """A transport that runs every worker's steps in this process."""

    name = "inline"

    def _pooled(self, words: int) -> bool:
        return words > 0

    def _execute(self, arrays, dests, plans, finish, resident=None):
        out = {name: np.empty(shape, dtype) for name, (shape, dtype) in dests.items()}
        replies = []
        for steps in plans:
            env = {name: _read_only(a) for name, a in arrays.items()}
            env.update(resident or {})
            reply = {}
            for step in steps:
                run_step(step, env)
                reply.update(place(out, step, env))
            replies.append(reply)
        return finish(out, replies)


def assert_bit_identical(expected, actual):
    assert len(expected) == len(actual)
    for want, got in zip(expected, actual):
        if want is None:  # the serial reduce's order for empty input
            assert got is None
            continue
        assert got.dtype == want.dtype
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


#: Key pools per dtype: few distinct values, so ties are the rule; the
#: float pool mixes -0.0 with 0.0 and the uint64 pool straddles 2**63.
KEY_POOLS = {
    "int64": (np.int64, [-(2**40), -3, 0, 1, 7, 2**40]),
    "int32": (np.int32, [-(2**31), -1, 0, 5, 2**31 - 1]),
    "uint8": (np.uint8, [0, 1, 2, 200, 255]),
    "bool": (np.bool_, [False, True]),
    "float64": (np.float64, [-1e300, -1.5, -0.0, 0.0, 0.25, 2.0, 1e300]),
    "uint64": (np.uint64, [0, 5, 2**63 - 1, 2**63, 2**63 + 1, 2**64 - 1]),
}

VALUE_DTYPES = [np.int64, np.int32, np.float64, np.bool_]


@st.composite
def layouts(draw):
    """A pool shape: 1–4 workers over shards of 1–16 words."""
    return draw(st.integers(1, 16)), draw(st.integers(1, 4))


@st.composite
def keyed(draw, max_n=48):
    """Keys of one dtype (optionally all equal) plus aligned values."""
    dtype, pool = KEY_POOLS[draw(st.sampled_from(sorted(KEY_POOLS)))]
    n = draw(st.integers(0, max_n))
    keys = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    if keys and draw(st.booleans()):
        keys = [keys[0]] * n  # splitters collapse, buckets go empty
    keys = np.array(keys, dtype=dtype)
    columns = draw(st.sampled_from([None, 2]))
    shape = (n,) if columns is None else (n, columns)
    values = np.arange(int(np.prod(shape)), dtype=np.int64).reshape(shape)
    values = values[::-1].astype(draw(st.sampled_from(VALUE_DTYPES)))
    return keys, np.ascontiguousarray(values)


def backends(layout):
    s, workers = layout
    return ShardedBackend(shard_memory=s), InlineBackend(
        shard_memory=s, workers=workers
    )


@hyp_settings
@given(layout=layouts(), data=keyed(), by_itself=st.booleans())
def test_sort_matches_serial(layout, data, by_itself):
    serial, pooled = backends(layout)
    keys, values = data
    if by_itself:
        values = keys  # sort(values) orders by the values themselves
    assert_bit_identical(
        serial._kernel_sort(values, keys), pooled._kernel_sort(values, keys)
    )


@hyp_settings
@given(
    layout=layouts(),
    data=keyed(),
    op=st.sampled_from(["min", "max", "sum"]),
)
def test_reduce_by_key_matches_serial(layout, data, op):
    serial, pooled = backends(layout)
    keys, values = data
    assert_bit_identical(
        serial._kernel_reduce(keys, values, op),
        pooled._kernel_reduce(keys, values, op),
    )


@hyp_settings
@given(
    workers=st.integers(1, 4),
    n=st.integers(0, 12),
    degree=st.integers(1, 6),
    steps=st.sampled_from([1, 2, 7, 63, 64, 65, 130]),
    columns=st.integers(1, 9),
    seed=st.integers(0, 2**16),
)
def test_walk_matches_serial(workers, n, degree, steps, columns, seed):
    rng = np.random.default_rng(seed)
    heads = rng.integers(0, max(n, 1), n * degree)  # any out-neighbour table
    entropy = int(rng.integers(2**63))
    serial = ShardedBackend(shard_memory=16)
    pooled = InlineBackend(shard_memory=16, workers=workers)
    assert_bit_identical(
        (serial.walk(heads, degree, steps, columns, entropy),),
        (pooled.walk(heads, degree, steps, columns, entropy),),
    )


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_sketch_update_matches_serial_ingest(workers):
    rng = np.random.default_rng(7)
    n = 23
    serial = ShardedAGMSketch.empty(n, 5, shards=3, boruvka_rounds=2)
    pooled = ShardedAGMSketch.empty(n, 5, shards=3, boruvka_rounds=2)
    backend = InlineBackend(workers=workers)
    for _ in range(3):
        edges = rng.integers(0, n, (12, 2))
        weights = rng.integers(-2, 3, 12)
        expected = serial._store.apply_serial(edges, weights)
        store = pooled._store
        applied = backend._pooled_sketch_update(
            store, edges, weights, [part.data for part in store.partials]
        )
        assert applied == expected
    for want, got in zip(
        serial._store.local_partial_data(), pooled._store.local_partial_data()
    ):
        assert got.tobytes() == want.tobytes()

