"""Fault injection for the RPC wire: worker death, stalls, duplicate ACKs.

Each scenario asserts three things: the failure surfaces as the *typed*
error family (never a hang, never a bare OSError), the pool either
fails closed or recovers via a lazy restart, and nothing leaks — no
``/dev/shm`` segments, no socket files, no live worker processes
(the ``test_arena.py`` leak-audit pattern applied to the wire layer).
"""

import contextlib
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.mpc import (
    LocalBackend,
    RpcBackend,
    RpcError,
    RpcProtocolError,
    RpcTimeoutError,
    RpcWorkerError,
)

pytestmark = pytest.mark.slow

#: Out-degree of the probe walk's out-neighbour table.
DEGREE = 4


def heads(n: int) -> np.ndarray:
    """An ``n``-vertex out-neighbour table of degree :data:`DEGREE`."""
    return np.arange(n * DEGREE) % n


def walk(backend, n=20, entropy=0):
    """The probe op: two lazy 8-step walk columns from every vertex.  A
    walk runs on the workers at ``min_wire_items=0`` (sort, search,
    reduce and the min-label level run in the parent)."""
    return backend.walk(heads(n), DEGREE, 8, 2, entropy)


#: The probe's serial endpoints.
EXPECTED = walk(LocalBackend())

#: The probe as one raw worker step: both columns on one worker.
WALK_STEP = {
    "op": "walk",
    "inputs": ["heads"],
    "outputs": ["targets"],
    "params": {"lo": 0, "hi": 2, "degree": DEGREE, "steps": 8, "entropy": 0},
}


def shm_entries() -> set:
    """Names currently present in the system shared-memory namespace."""
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:  # pragma: no cover - non-Linux hosts
        return set()


def wait_until(predicate, timeout=5.0, interval=0.02) -> bool:
    """Poll ``predicate`` until true or ``timeout`` elapses."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def assert_no_leaks(backend, pool, procs, baseline_shm):
    """Post-close audit: socket gone, workers reaped, shm unchanged."""
    assert pool.socket_path is not None
    assert wait_until(lambda: not os.path.exists(pool.socket_path))
    assert wait_until(lambda: not any(p.is_alive() for p in procs))
    assert shm_entries() - baseline_shm == set()


class TestWorkerDeath:
    def test_kill_worker_mid_op_raises_typed_and_recovers(self):
        baseline = shm_entries()
        backend = RpcBackend(
            shard_memory=64, workers=2, min_wire_items=0,
            call_timeout=30.0, heartbeat_interval=30.0,
        )
        expected = walk(LocalBackend(), n=5000)
        try:
            assert np.array_equal(walk(backend, n=5000), expected)
            pool = backend._ensure_pool()
            procs = [h.proc for h in pool._handles]
            victim = procs[0]
            # Stall the worker so the next op is genuinely in flight,
            # then kill it mid-op: the parent's reader must fail the
            # pending call typed, long before the 30 s call timeout.
            os.kill(victim.pid, signal.SIGSTOP)
            failure = {}

            def in_flight():
                start = time.monotonic()
                try:
                    walk(backend, n=5000, entropy=1)
                except RpcError as exc:
                    failure["exc"] = exc
                failure["elapsed"] = time.monotonic() - start

            thread = threading.Thread(target=in_flight)
            thread.start()
            time.sleep(0.3)
            os.kill(victim.pid, signal.SIGKILL)
            thread.join(timeout=10.0)
            assert not thread.is_alive()
            assert isinstance(failure["exc"], RpcWorkerError)
            assert failure["elapsed"] < 10.0
            assert pool.failed
            # The pool fails closed, then recovers on the next op via a
            # lazy restart — and the restarted fleet is correct.
            assert np.array_equal(walk(backend, n=5000), expected)
            assert backend.workers_restarted == 1
        finally:
            backend.close()
        assert_no_leaks(backend, pool, procs, baseline)

    def test_dead_worker_before_op_raises_typed(self):
        backend = RpcBackend(shard_memory=64, workers=2, min_wire_items=0)
        try:
            walk(backend)
            pool = backend._ensure_pool()
            os.kill(pool._handles[1].proc.pid, signal.SIGKILL)
            assert wait_until(lambda: pool.failed)
            # Dispatching straight to the poisoned pool is typed...
            with pytest.raises(RpcWorkerError):
                pool.barrier(
                    [
                        None,
                        {
                            "steps": [WALK_STEP],
                            "arrays": {"heads": heads(20)},
                            "returns": ["targets"],
                        },
                    ]
                )
            # ...and so is dispatching to it again after it closed.
            with pytest.raises(RpcError, match="closed"):
                pool.barrier([None, None])
            # The backend itself recovers with a fresh pool.
            assert np.array_equal(walk(backend), EXPECTED)
            assert backend.workers_restarted == 1
        finally:
            backend.close()


class TestHeartbeat:
    def test_stalled_connection_fails_past_heartbeat_deadline(self):
        baseline = shm_entries()
        backend = RpcBackend(
            shard_memory=64, workers=2, min_wire_items=0,
            heartbeat_interval=0.15, heartbeat_timeout=0.3, max_retries=0,
        )
        try:
            walk(backend)
            pool = backend._ensure_pool()
            procs = [h.proc for h in pool._handles]
            victim = procs[0]
            os.kill(victim.pid, signal.SIGSTOP)
            try:
                # The idle-worker heartbeat must declare the stalled
                # worker dead within interval + timeout (plus slack).
                assert wait_until(lambda: pool.failed, timeout=5.0)
                reasons = pool.dead_workers
                assert any("heartbeat" in reason for reason in reasons)
            finally:
                os.kill(victim.pid, signal.SIGCONT)
            # Recovery: the next operation restarts the pool.
            assert np.array_equal(walk(backend), EXPECTED)
            assert backend.workers_restarted == 1
        finally:
            backend.close()
        assert_no_leaks(backend, pool, procs, baseline)

    def test_healthy_pool_heartbeats_without_failing(self):
        backend = RpcBackend(
            shard_memory=64, workers=2, min_wire_items=0,
            heartbeat_interval=0.05, heartbeat_timeout=2.0,
        )
        try:
            walk(backend)
            pool = backend._ensure_pool()
            assert wait_until(
                lambda: backend.transport_stats()["heartbeats"] >= 2,
                timeout=5.0,
            )
            assert not pool.failed
        finally:
            backend.close()


class TestCallTimeout:
    def test_stalled_call_times_out_typed_within_budget(self):
        backend = RpcBackend(
            shard_memory=64, workers=2, min_wire_items=0,
            call_timeout=0.2, max_retries=1, backoff=2.0,
            heartbeat_interval=60.0,
        )
        try:
            walk(backend)
            pool = backend._ensure_pool()
            victims = [h.proc for h in pool._handles]
            for proc in victims:
                os.kill(proc.pid, signal.SIGSTOP)
            try:
                start = time.monotonic()
                with pytest.raises(RpcTimeoutError, match="did not ACK"):
                    walk(backend)
                elapsed = time.monotonic() - start
                # One base wait + one backed-off retry, plus slack:
                # far under a hang, comfortably over the base timeout.
                assert elapsed < 5.0
                assert backend.transport_stats()["retries"] >= 1
            finally:
                for proc in victims:
                    # The fail-closed path may have reaped them already.
                    with contextlib.suppress(ProcessLookupError):
                        os.kill(proc.pid, signal.SIGCONT)
        finally:
            backend.close()


class TestDuplicateAck:
    def test_duplicate_ack_fails_closed_then_recovers(self):
        baseline = shm_entries()
        backend = RpcBackend(shard_memory=64, workers=2, min_wire_items=0)
        try:
            walk(backend)
            pool = backend._ensure_pool()
            procs = [h.proc for h in pool._handles]
            # The dup_ack debug knob makes the worker repeat its ACK
            # verbatim: the first resolves the call, the duplicate has
            # no pending future and must fail the pool closed.
            replies = pool.barrier(
                [
                    {
                        "steps": [WALK_STEP],
                        "arrays": {"heads": heads(20)},
                        "returns": ["targets"],
                        "dup_ack": True,
                    },
                    None,
                ]
            )
            assert np.array_equal(replies[0]["targets"], EXPECTED)
            assert wait_until(lambda: pool.failed, timeout=5.0)
            assert any(
                "duplicate or unmatched ACK" in reason
                for reason in pool.dead_workers
            )
            # Fails closed: the poisoned pool refuses further work...
            with pytest.raises(RpcProtocolError):
                pool.barrier(
                    [
                        {
                            "steps": [],
                            "arrays": {},
                            "returns": [],
                        },
                        None,
                    ]
                )
            # ...and the backend recovers by restarting it.
            assert np.array_equal(walk(backend), EXPECTED)
            assert backend.workers_restarted == 1
        finally:
            backend.close()
        assert_no_leaks(backend, pool, procs, baseline)


class TestLifecycleHygiene:
    def test_close_is_idempotent_and_leaves_no_sockets(self):
        baseline = shm_entries()
        backend = RpcBackend(shard_memory=64, workers=2, min_wire_items=0)
        walk(backend)
        pool = backend._ensure_pool()
        procs = [h.proc for h in pool._handles]
        path = pool.socket_path
        assert os.path.exists(path)
        backend.close()
        backend.close()
        assert_no_leaks(backend, pool, procs, baseline)

    def test_closed_backend_restarts_on_demand(self):
        backend = RpcBackend(shard_memory=64, workers=2, min_wire_items=0)
        try:
            walk(backend)
            backend.close()
            assert np.array_equal(walk(backend), EXPECTED)
        finally:
            backend.close()

    def test_connect_timeout_is_typed(self, monkeypatch):
        import repro.mpc.rpc as rpc_module

        # Workers that never connect: the pool must fail construction
        # with the typed timeout, not hang in accept.
        monkeypatch.setattr(
            rpc_module, "_rpc_worker_main", lambda path, worker_id: None
        )
        backend = RpcBackend(
            shard_memory=64, workers=2, min_wire_items=0,
            connect_timeout=0.4, max_retries=1,
        )
        try:
            with pytest.raises(RpcTimeoutError, match="workers connected"):
                walk(backend)
        finally:
            backend.close()
