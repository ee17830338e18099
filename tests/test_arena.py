"""The shared-memory arena: lease discipline, recycling, and lifecycle.

Three properties make :class:`repro.mpc.ShmArena` a safe allocator
rather than a raw buffer pool, and each is tested here adversarially:

* **no aliasing** — two live leases never share a segment (hypothesis
  drives random acquire/release interleavings and checks pairwise
  ``np.shares_memory``);
* **generation tags** — any access through a released lease raises
  :class:`~repro.mpc.ArenaLeaseError`, even after the segment has been
  recycled to a new lease;
* **no leaks** — ``close()`` unlinks every segment it ever created,
  verified by re-attaching each name and expecting ``FileNotFoundError``
  (the same check a ``/dev/shm`` audit would make).

The pipeline-level tests at the bottom are the regression suite for the
PR 4 bugfix: a backend the pipeline constructed from a string spec must
be released via ``try``/``finally`` even when an exception escapes
mid-run — for both ``mpc_connected_components`` and the adaptive
variant — instead of relying on finalizers that race pool shutdown at
interpreter exit.
"""

from multiprocessing import shared_memory

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.bench.workloads import Workload
from repro.mpc import (
    ArenaLeaseError,
    MPCEngine,
    ProcessBackend,
    ShmArena,
)


def assert_unlinked(names):
    """Every shared-memory name must be gone from the system namespace."""
    for name in names:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


# ---------------------------------------------------------------------------
# Lease basics
# ---------------------------------------------------------------------------


class TestLeaseBasics:
    def test_share_round_trips_contents(self):
        with ShmArena() as arena:
            data = np.arange(1234, dtype=np.int64)
            lease = arena.share(data)
            assert np.array_equal(lease.view, data)
            assert lease.view.dtype == np.int64

    def test_acquire_view_shape_and_dtype(self):
        with ShmArena() as arena:
            lease = arena.acquire((7, 2), np.float64)
            assert lease.view.shape == (7, 2)
            assert lease.view.dtype == np.float64

    def test_use_after_release_raises_on_every_accessor(self):
        arena = ShmArena()
        lease = arena.share(np.arange(10))
        lease.release()
        for accessor in ("view", "descriptor", "segment_name"):
            with pytest.raises(ArenaLeaseError):
                getattr(lease, accessor)
        arena.close()

    def test_release_is_idempotent(self):
        with ShmArena() as arena:
            lease = arena.acquire((10,), np.int64)
            lease.release()
            lease.release()  # no error, no double-free
            assert not lease.alive

    def test_release_after_close_is_a_noop(self):
        # release() is the cleanup path (with-blocks, finally clauses):
        # it must not raise for leases the arena's close invalidated,
        # or cleanup would mask the error that triggered the close.
        arena = ShmArena()
        with arena.acquire((10,), np.int64) as lease:
            arena.close()
        assert not lease.alive  # __exit__ released without raising

    def test_stale_lease_stays_stale_after_recycling(self):
        # The recycled segment serves a new lease; the old tag must not
        # become valid again just because the segment is in use once more.
        with ShmArena() as arena:
            old = arena.acquire((100,), np.uint8)
            name = old.segment_name
            old.release()
            new = arena.acquire((50,), np.uint8)
            assert new.segment_name == name  # really recycled
            assert arena.stats()["recycled"] == 1
            with pytest.raises(ArenaLeaseError):
                old.view

    def test_lease_context_manager_releases(self):
        with ShmArena() as arena:
            with arena.acquire((10,), np.int64) as lease:
                assert lease.alive
            assert not lease.alive

    def test_acquire_after_close_raises(self):
        arena = ShmArena()
        arena.close()
        with pytest.raises(ArenaLeaseError):
            arena.acquire((10,), np.int64)


# ---------------------------------------------------------------------------
# Property: live leases never alias, whatever the acquire/release order
# ---------------------------------------------------------------------------


class TestNoAliasing:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(st.booleans(), st.integers(1, 5000)),
            min_size=1,
            max_size=25,
        )
    )
    def test_live_leases_never_share_a_segment(self, ops):
        arena = ShmArena()
        live = []
        try:
            for release, size in ops:
                if release and live:
                    lease = live.pop(size % len(live))
                    lease.release()
                    with pytest.raises(ArenaLeaseError):
                        lease.view
                else:
                    live.append(arena.acquire((size,), np.uint8))
                names = [lease.segment_name for lease in live]
                assert len(names) == len(set(names)), "two live leases alias"
                for i in range(len(live)):
                    for j in range(i + 1, len(live)):
                        assert not np.shares_memory(
                            live[i].view, live[j].view
                        )
        finally:
            names = arena.segment_names()
            arena.close()
            assert_unlinked(names)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(1, 4096), min_size=1, max_size=12))
    def test_serial_reuse_allocates_one_segment_per_size_class(self, sizes):
        # Acquire/release one lease at a time: every acquisition after the
        # largest-so-far must be served from the free list.
        with ShmArena() as arena:
            peak = 0
            for size in sizes:
                with arena.acquire((size,), np.uint8):
                    pass
                peak = max(peak, size)
            assert arena.stats()["segments"] <= max(1, peak.bit_length())


# ---------------------------------------------------------------------------
# Lifecycle: close() leaves nothing in the system shm namespace
# ---------------------------------------------------------------------------


class TestLifecycle:
    def test_close_unlinks_every_segment_by_name(self):
        arena = ShmArena()
        for size in (10, 2000, 70000):
            arena.acquire((size,), np.uint8)
        names = arena.segment_names()
        assert len(names) == 3
        arena.close()
        assert_unlinked(names)

    def test_close_is_idempotent(self):
        arena = ShmArena()
        arena.acquire((10,), np.uint8)
        arena.close()
        arena.close()
        assert arena.closed

    def test_backend_close_unlinks_its_arena(self):
        backend = ProcessBackend(shard_memory=256, workers=2,
                                 min_parallel_items=0)
        backend.sort(np.arange(2000)[::-1].copy())
        names = backend._arena.segment_names()
        assert names
        backend.close()
        assert_unlinked(names)
        # Counters survive the close, and the backend restarts on demand.
        assert backend.arena_stats()["segments"] >= len(names)
        backend.sort(np.arange(1000))
        backend.close()

    def test_engine_context_manager_closes_backend(self):
        backend = ProcessBackend(shard_memory=256, workers=2,
                                 min_parallel_items=0)
        with MPCEngine(256, backend=backend) as engine:
            engine.backend.sort(np.arange(2000)[::-1].copy())
            assert backend._procs
        assert not backend._procs
        assert backend._arena is None


# ---------------------------------------------------------------------------
# Regression: string-spec backends are released even on exceptions
# ---------------------------------------------------------------------------


class _Boom(RuntimeError):
    pass


@pytest.fixture
def captured_backend(monkeypatch):
    """Capture the backend the pipeline constructs from a string spec,
    forcing every operation through the worker pool.
    """
    import repro.core.pipeline as pipeline_module

    captured = []
    real_make = pipeline_module.make_backend

    def capture(spec, **kwargs):
        backend = real_make(spec, **kwargs)
        if isinstance(backend, ProcessBackend):
            backend.min_parallel_items = 0
            backend.workers = 2
            captured.append(backend)
        return backend

    monkeypatch.setattr(pipeline_module, "make_backend", capture)
    return captured


class TestPipelineReleasesBackendOnError:
    GRAPH = None

    def graph(self):
        if TestPipelineReleasesBackendOnError.GRAPH is None:
            TestPipelineReleasesBackendOnError.GRAPH = Workload(
                "permutation_regular", 256, {"degree": 6}
            ).build(7)
        return TestPipelineReleasesBackendOnError.GRAPH

    def _assert_released(self, captured):
        [backend] = captured
        assert not backend._procs, "worker pool must be stopped"
        assert backend._arena is None, "arena must be retired"
        assert backend.arena_stats()["segments"] > 0  # pool really ran

    def test_mpc_connected_components_releases_on_midrun_error(
        self, captured_backend, monkeypatch
    ):
        import repro.core.pipeline as pipeline_module

        def boom(*args, **kwargs):
            raise _Boom("mid-run failure")

        # Fail in the Verify stage, after Step 3 executed real pooled
        # backend operations (so the pool and arena are live).
        monkeypatch.setattr(pipeline_module, "contract_batch", boom)
        with pytest.raises(_Boom):
            repro.mpc_connected_components(
                self.graph(), 0.1, rng=7, backend="process"
            )
        self._assert_released(captured_backend)

    def test_adaptive_releases_on_midrun_error(
        self, captured_backend, monkeypatch
    ):
        import repro.core.pipeline as pipeline_module

        def boom(*args, **kwargs):
            raise _Boom("mid-run failure")

        # Boom at the adaptive loop's final canonicalisation — inside the
        # guess loop's try block, after pooled operations executed.  (Only
        # pipeline.py's reference is patched; grow/bfs keep their own.)
        monkeypatch.setattr(pipeline_module, "canonical_labels", boom)
        with pytest.raises(_Boom):
            repro.mpc_connected_components_adaptive(
                self.graph(), rng=7, backend="process"
            )
        self._assert_released(captured_backend)

    def test_adaptive_releases_on_success(self, captured_backend):
        result = repro.mpc_connected_components_adaptive(
            self.graph(), rng=7, backend="process"
        )
        assert result.labels.shape == (256,)
        self._assert_released(captured_backend)
