"""The pooled kernel table, pinned in-process.

``ProcessBackend`` and ``RpcBackend`` share every planner, block kernel
and assembly step in :mod:`repro.mpc.kernels`; they differ only in how
arrays reach the workers.  Two ops are pooled, the walk and sketch
ingest.  These tests run their shared code over an in-process transport
— each worker's steps through :func:`~repro.mpc.kernels.run_step` on
read-only inputs, outputs placed with :func:`~repro.mpc.kernels.place`
— and require the assembled outputs to equal the serial hooks of
``ExecutionBackend`` bit for bit, in values and dtypes.  No process is
spawned, so the suite runs in seconds and the kernels count toward
coverage.
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
        assert got.dtype == want.dtype
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


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

