"""Wire-protocol MPC data plane: worker processes behind a socket RPC.

:class:`RpcBackend` is the first executor whose kernels run across a
*wire* rather than shared memory — the substrate the ROADMAP's
connectivity service (:mod:`repro.service`) is built on.  Like
:class:`~repro.mpc.process_backend.ProcessBackend` it subclasses
:class:`~repro.mpc.backends.PooledBackend`, whose planners and block
kernels both pools share, and supplies only the transport, so capacity
enforcement, exchange attribution, partitioning, and every model
counter are shared code — counter-identical to the serial sharded
backend by construction.

Wire protocol
-------------
Everything crosses the socket as length-prefixed *frames*
(:func:`encode_frame` / :func:`decode_frame`): a fixed
magic + header-length + blob-length prefix, a JSON header, and a raw
binary blob.  Op frames carry :class:`~repro.mpc.plan.OpStep`-shaped
step sequences (``op`` / ``inputs`` / ``outputs`` / ``params`` dicts)
in the header and their input arrays in the blob; a worker executes the
steps in order against an environment of named arrays and replies with
one ACK frame carrying the requested output arrays.  Malformed,
truncated, or oversized frames raise the typed
:class:`RpcProtocolError` — never a hang, never a bare struct/JSON
error.

Arrays are *content-digest deduplicated* per worker
(:func:`repro.mpc.plan.content_digest`, the same identity trace files
and the service cache use): the parent tracks which digests each worker
holds and ships a bare digest reference instead of payload bytes on
every repeat — the hash coefficient arrays of a sketch ingest stream
cross the wire once per worker, not once per batch.

Execution model
---------------
The pool holds ``workers`` forked OS processes, each running a
synchronous frame loop over a private Unix-domain socket; the parent
side is a dedicated asyncio event loop on a background thread.  One
backend operation is one *ACK barrier*: the parent sends every worker
its step frame, then awaits all ACKs — exactly the all-to-all barrier
the sharded accounting already prices.  Workers run the steps through
the kernel table of :mod:`repro.mpc.kernels`; the parent places the
returned outputs with the same code the process workers use.
Worker-resident state (sketch partials) is bound by name from a
frame's ``resident`` map and dropped by its ``release`` list.

A background heartbeat task pings idle workers every
``heartbeat_interval`` seconds; a worker that misses the
``heartbeat_timeout`` deadline (or whose connection drops) is marked
dead with a typed error, pending calls fail immediately, and the pool
fails closed.  Calls are bounded by ``call_timeout`` with
``max_retries`` re-waits under exponential backoff
(:class:`RpcTimeoutError` after the budget); pool construction is
bounded by ``connect_timeout``.  A failed pool restarts lazily on the
next operation, so the backend recovers without caller intervention.

Certification order (the point of the plan IR)
----------------------------------------------
The backend is certified through the replay seam before it ever runs
live: every committed per-engine trace must replay bit-identically
(``repro.mpc.plan.replay(path, backend=RpcBackend(...))`` — outputs,
rounds, and exchange/byte counters), then the backend joins
``tests/test_differential.py`` as the fourth backend across all
generator families, and only then does the connectivity service ride
it.  Transport telemetry (frames, payload bytes, digest hits) is
reported in ``stats().transport`` under the one-schema zero-filled
contract of :data:`~repro.mpc.backends.TRANSPORT_STATS_ZERO`.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import json
import os
import socket
import struct
import tempfile
import threading
import time
import weakref

import numpy as np

from repro.mpc.backends import BACKENDS, TRANSPORT_STATS_ZERO, PooledBackend
from repro.mpc.kernels import place, position_blocks, run_step
from repro.mpc.plan import content_digest
from repro.mpc.process_backend import DEFAULT_MIN_PARALLEL_ITEMS, _mp_context
from repro.utils.validation import check_nonnegative_int, check_positive_int

# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------


class RpcError(RuntimeError):
    """Base class of every typed RPC failure."""


class RpcProtocolError(RpcError):
    """A malformed frame: bad magic, truncated payload, invalid JSON,
    oversized section, unknown digest reference, or a duplicate ACK.
    """


class RpcTimeoutError(RpcError):
    """A call (or pool connect) exceeded its configured deadline,
    including every retry of the bounded backoff schedule.
    """


class RpcWorkerError(RpcError):
    """A worker process died, failed a step, or missed its heartbeat."""


# ---------------------------------------------------------------------------
# Frame codec
# ---------------------------------------------------------------------------

#: Frame prefix: magic, header length, blob length (network byte order).
FRAME_MAGIC = b"MPR1"
_PREFIX = struct.Struct("!4sII")

#: Section ceilings: a frame announcing more than this is malformed by
#: definition (and would otherwise stall the reader on a short stream).
MAX_HEADER_BYTES = 16 * 1024 * 1024
MAX_BLOB_BYTES = 1 << 31


def encode_frame(header: dict, blob: bytes = b"") -> bytes:
    """Serialise one frame: prefix + JSON header + binary blob.

    Raises
    ------
    RpcProtocolError
        The header is not JSON-serialisable or a section exceeds its
        ceiling.
    """
    try:
        head = json.dumps(header, separators=(",", ":")).encode()
    except (TypeError, ValueError) as exc:
        raise RpcProtocolError(f"unencodable frame header: {exc}") from None
    if len(head) > MAX_HEADER_BYTES or len(blob) > MAX_BLOB_BYTES:
        raise RpcProtocolError(
            f"frame sections too large: header {len(head)}, blob {len(blob)}"
        )
    return _PREFIX.pack(FRAME_MAGIC, len(head), len(blob)) + head + blob


def _unpack_prefix(prefix: bytes) -> "tuple[int, int]":
    """Validate a frame prefix; returns ``(header_len, blob_len)``.

    Raises :class:`RpcProtocolError` on wrong magic or oversized
    sections, before any reader waits for the announced bytes.
    """
    magic, head_len, blob_len = _PREFIX.unpack_from(prefix)
    if magic != FRAME_MAGIC:
        raise RpcProtocolError(f"bad frame magic {magic!r}")
    if head_len > MAX_HEADER_BYTES or blob_len > MAX_BLOB_BYTES:
        raise RpcProtocolError(
            f"frame announces oversized sections: {head_len}/{blob_len}"
        )
    return head_len, blob_len


def decode_frame(data: bytes) -> "tuple[dict, bytes]":
    """Inverse of :func:`encode_frame` for one complete frame.

    Raises
    ------
    RpcProtocolError
        Truncated prefix/sections, wrong magic, oversized lengths,
        invalid JSON, a non-object header, or trailing garbage.
    """
    if len(data) < _PREFIX.size:
        raise RpcProtocolError(
            f"truncated frame prefix: {len(data)} < {_PREFIX.size} bytes"
        )
    head_len, blob_len = _unpack_prefix(data)
    expected = _PREFIX.size + head_len + blob_len
    if len(data) != expected:
        raise RpcProtocolError(
            f"frame length {len(data)} != announced {expected}"
        )
    head = data[_PREFIX.size : _PREFIX.size + head_len]
    try:
        header = json.loads(head.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise RpcProtocolError(f"invalid frame header: {exc}") from None
    if not isinstance(header, dict):
        raise RpcProtocolError(
            f"frame header must be a JSON object, got {type(header).__name__}"
        )
    return header, data[_PREFIX.size + head_len :]


def pack_arrays(
    arrays: "dict[str, np.ndarray]",
    known: "set[str] | None" = None,
    digests: "dict[int, tuple] | None" = None,
) -> "tuple[list[dict], bytes, list[str]]":
    """Encode named arrays for a frame blob, digest-deduplicated.

    Returns ``(meta, blob, shipped)``: per-array metadata for the frame
    header, the concatenated payload, and the digests whose bytes were
    actually included.  An array whose digest is in ``known`` (or
    appeared earlier in this same frame) is sent as a bare reference.
    ``digests`` memoises each array's digest by object identity; pass
    one dict to every call that packs the same arrays (one barrier's
    frames) and each array is hashed once.

    Raises
    ------
    RpcProtocolError
        An array has an object dtype (PyObject pointers are meaningless
        on the far side of a socket).
    """
    meta: "list[dict]" = []
    chunks: "list[bytes]" = []
    shipped: "list[str]" = []
    seen = set(known) if known is not None else set()
    memo = {} if digests is None else digests
    offset = 0
    for slot, array in arrays.items():
        array = np.asarray(array)
        if array.ndim:  # ascontiguousarray would flatten a 0-d to (1,)
            array = np.ascontiguousarray(array)
        if array.dtype.hasobject:
            raise RpcProtocolError(
                f"array {slot!r} has object dtype {array.dtype}; "
                "only plain binary dtypes cross the wire"
            )
        # The memo holds the array too, so its id is never reused.
        hit = memo.get(id(array))
        if hit is None:
            hit = memo[id(array)] = (array, content_digest(array))
        digest = hit[1]
        if digest in seen:
            meta.append({"slot": slot, "digest": digest, "cached": True})
            continue
        payload = array.tobytes()
        meta.append(
            {
                "slot": slot,
                "digest": digest,
                "dtype": array.dtype.str,
                "shape": list(array.shape),
                "offset": offset,
                "nbytes": len(payload),
            }
        )
        chunks.append(payload)
        offset += len(payload)
        seen.add(digest)
        shipped.append(digest)
    return meta, b"".join(chunks), shipped


def unpack_arrays(
    meta: "list[dict]",
    blob: bytes,
    cache: "dict[str, np.ndarray] | None" = None,
) -> "dict[str, np.ndarray]":
    """Decode :func:`pack_arrays` output back into named arrays.

    ``cache`` (digest → array) resolves bare references and is updated
    with every array decoded from the blob, so same-frame and
    cross-frame dedup both resolve.  Decoded arrays are read-only views
    of the blob — kernels never mutate their inputs.

    Raises
    ------
    RpcProtocolError
        A reference names a digest the cache does not hold, a payload
        slice falls outside the blob, or dtype/shape are inconsistent
        with the announced byte count.
    """
    out: "dict[str, np.ndarray]" = {}
    for entry in meta:
        slot = entry["slot"]
        if entry.get("cached"):
            if cache is None or entry["digest"] not in cache:
                raise RpcProtocolError(
                    f"frame references unknown cached digest "
                    f"{entry['digest']!r} for {slot!r}"
                )
            out[slot] = cache[entry["digest"]]
            continue
        lo = entry["offset"]
        hi = lo + entry["nbytes"]
        if lo < 0 or hi > len(blob):
            raise RpcProtocolError(
                f"array {slot!r} payload [{lo}:{hi}] exceeds blob of "
                f"{len(blob)} bytes"
            )
        try:
            dtype = np.dtype(entry["dtype"])
            count = int(np.prod(entry["shape"], dtype=np.int64))
        except (TypeError, ValueError) as exc:
            raise RpcProtocolError(
                f"array {slot!r} does not decode: {exc}"
            ) from None
        if count * dtype.itemsize != entry["nbytes"]:
            raise RpcProtocolError(
                f"array {slot!r} dtype/shape imply "
                f"{count * dtype.itemsize} bytes, frame announced "
                f"{entry['nbytes']}"
            )
        try:
            array = np.frombuffer(
                blob, dtype=dtype, count=count, offset=lo
            ).reshape(entry["shape"])
        except (TypeError, ValueError) as exc:
            raise RpcProtocolError(
                f"array {slot!r} does not decode: {exc}"
            ) from None
        out[slot] = array
        if cache is not None:
            cache[entry["digest"]] = array
    return out


def _recv_exact(sock: socket.socket, n: int) -> "bytes | None":
    """Read exactly ``n`` bytes from a blocking socket.

    Returns ``None`` on a clean EOF at offset 0 (peer closed between
    frames); raises :class:`RpcProtocolError` on EOF mid-read.
    """
    chunks: "list[bytes]" = []
    got = 0
    while got < n:
        chunk = sock.recv(min(n - got, 1 << 20))
        if not chunk:
            if got == 0:
                return None
            raise RpcProtocolError(
                f"connection closed mid-frame: {got}/{n} bytes"
            )
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> "tuple[dict, bytes] | None":
    """Read one frame from a blocking socket (``None`` on clean EOF).

    Raises :class:`RpcProtocolError` on truncation or malformed content.
    """
    prefix = _recv_exact(sock, _PREFIX.size)
    if prefix is None:
        return None
    head_len, blob_len = _unpack_prefix(prefix)
    rest = _recv_exact(sock, head_len + blob_len)
    if rest is None:
        raise RpcProtocolError("connection closed before frame body")
    return decode_frame(prefix + rest)


def send_frame(sock: socket.socket, header: dict, blob: bytes = b"") -> None:
    """Write one frame to a blocking socket."""
    sock.sendall(encode_frame(header, blob))


async def read_frame_async(
    reader: asyncio.StreamReader,
) -> "tuple[dict, bytes] | None":
    """Read one frame from an asyncio stream (``None`` on clean EOF).

    Raises :class:`RpcProtocolError` on truncation or malformed content.
    """
    try:
        prefix = await reader.readexactly(_PREFIX.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise RpcProtocolError(
            f"connection closed mid-prefix: {len(exc.partial)} bytes"
        ) from None
    head_len, blob_len = _unpack_prefix(prefix)
    try:
        rest = await reader.readexactly(head_len + blob_len)
    except asyncio.IncompleteReadError as exc:
        raise RpcProtocolError(
            f"connection closed mid-frame: {len(exc.partial)}/"
            f"{head_len + blob_len} bytes"
        ) from None
    return decode_frame(prefix + rest)


# ---------------------------------------------------------------------------
# Worker side (synchronous frame loop, forked process)
# ---------------------------------------------------------------------------


def _resident(state: dict, spec: dict) -> np.ndarray:
    """A worker-resident array, created zeroed on first touch: a shard no
    update frame touched is legitimately all-zero (the parent's
    pool-generation check catches real state loss before dispatching)."""
    array = state.get(spec["key"])
    if array is None:
        array = state[spec["key"]] = np.zeros(spec["shape"], dtype=np.int64)
    return array


def _rpc_worker_main(path: str, worker_id: int) -> None:
    """Worker process: connect back to the parent and serve frames.

    Each op frame carries an OpStep-shaped step sequence; the worker
    executes the steps through the kernel table against an environment
    seeded with the frame's arrays (plus its digest cache and any
    ``resident`` state) and replies with one ACK frame holding the
    arrays named in ``returns``.  ``ping`` frames get an immediate
    ``pong``; a ``shutdown`` frame or EOF ends the loop.
    """
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        sock.connect(path)
        send_frame(sock, {"kind": "hello", "worker": worker_id})
        cache: "dict[str, np.ndarray]" = {}
        # Persistent worker state across frames (worker-resident sketch
        # partials); dies with the worker, which the parent detects via
        # its pool-generation residency check.
        state: dict = {}
        while True:
            frame = recv_frame(sock)
            if frame is None:
                return
            header, blob = frame
            kind = header.get("kind")
            if kind == "shutdown":
                return
            if kind == "ping":
                send_frame(sock, {"kind": "pong", "call": header["call"]})
                continue
            if kind != "op":
                send_frame(
                    sock,
                    {
                        "kind": "err",
                        "call": header.get("call"),
                        "error": "RpcProtocolError",
                        "message": f"unknown frame kind {kind!r}",
                    },
                )
                continue
            for digest in header.get("evict", ()):
                cache.pop(digest, None)
            try:
                for key in header.get("release", ()):
                    state.pop(key, None)
                env = unpack_arrays(header["arrays"], blob, cache)
                for name, spec in header.get("resident", {}).items():
                    env[name] = _resident(state, spec)
                for step in header["steps"]:
                    run_step(step, env)
                meta, out_blob, _ = pack_arrays(
                    {name: env[name] for name in header["returns"]}
                )
            except BaseException as exc:  # noqa: BLE001 - ship failures back
                send_frame(
                    sock,
                    {
                        "kind": "err",
                        "call": header["call"],
                        "error": type(exc).__name__,
                        "message": str(exc),
                    },
                )
                continue
            send_frame(
                sock,
                {"kind": "ack", "call": header["call"], "arrays": meta},
                out_blob,
            )
            if header.get("dup_ack"):
                # Test-only fault injection: repeat the ACK verbatim so
                # the parent's router can prove it fails closed.
                send_frame(
                    sock,
                    {"kind": "ack", "call": header["call"], "arrays": meta},
                    out_blob,
                )
    except (RpcError, OSError):
        return
    finally:
        sock.close()


# ---------------------------------------------------------------------------
# Parent side (asyncio pool on a background thread)
# ---------------------------------------------------------------------------


class _WorkerHandle:
    """Parent-side state of one connected worker."""

    def __init__(self, proc, reader, writer):
        self.proc = proc
        self.reader = reader
        self.writer = writer
        self.digests: "set[str]" = set()
        self.digest_order: "list[tuple[str, int]]" = []
        self.cache_bytes = 0
        self.pending: "dict[int, asyncio.Future]" = {}
        self.dead: "str | None" = None
        self.dead_kind: type = RpcWorkerError


def stop_loop_thread(loop, thread, timeout: float) -> None:
    """Stop an event loop running on ``thread``: cancel and drain every
    task, stop the loop, join the thread (up to ``timeout`` seconds) and
    close the loop.  A no-op on a missing or closed loop."""
    if loop is None or loop.is_closed():
        return

    def _cancel_and_stop() -> None:
        tasks = list(asyncio.all_tasks(loop))
        for task in tasks:
            task.cancel()

        async def _drain() -> None:
            # Let the cancellations actually run before stopping,
            # else asyncio warns about destroyed pending tasks.
            await asyncio.gather(*tasks, return_exceptions=True)
            loop.stop()

        asyncio.ensure_future(_drain())

    with contextlib.suppress(RuntimeError):
        loop.call_soon_threadsafe(_cancel_and_stop)
    if thread is not None and thread.is_alive():
        thread.join(timeout=timeout)
    if not loop.is_running():
        with contextlib.suppress(RuntimeError):
            loop.close()


def _stop_rpc_pool(procs, loop, thread, tempdir) -> None:
    """Finalizer: stop the loop thread, reap workers, remove the socket dir."""
    stop_loop_thread(loop, thread, timeout=2.0)
    for proc in procs:
        proc.join(timeout=1.0)
        if proc.is_alive():
            # SIGKILL, not SIGTERM: a SIGSTOP'd worker queues SIGTERM
            # until continued, which would hang this reap.
            proc.kill()
            proc.join(timeout=2.0)
    if tempdir is not None:
        with contextlib.suppress(OSError):
            tempdir.cleanup()


class _RpcPool:
    """The parent half of the wire: workers, event loop, heartbeats.

    All socket I/O happens on one asyncio event loop running in a
    daemon thread; the synchronous kernel path submits coroutines with
    ``run_coroutine_threadsafe`` and blocks on the result.  One
    :meth:`barrier` call is one ACK barrier across every participating
    worker.
    """

    def __init__(
        self,
        workers: int,
        *,
        connect_timeout: float,
        call_timeout: float,
        max_retries: int,
        backoff: float,
        heartbeat_interval: float,
        heartbeat_timeout: float,
        cache_bytes: int,
        counters: dict,
    ):
        self.workers = workers
        self.connect_timeout = connect_timeout
        self.call_timeout = call_timeout
        self.max_retries = max_retries
        self.backoff = backoff
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        self.cache_bytes = cache_bytes
        self.counters = counters
        self._handles: "list[_WorkerHandle]" = []
        self._procs: list = []
        self._loop: "asyncio.AbstractEventLoop | None" = None
        self._thread: "threading.Thread | None" = None
        self._tempdir: "tempfile.TemporaryDirectory | None" = None
        self._call_counter = 0
        self._closed = False
        self._finalizer = None
        self.socket_path: "str | None" = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Bind the rendezvous socket, fork workers, accept them all.

        Raises :class:`RpcTimeoutError` when a worker fails to connect
        within ``connect_timeout``.
        """
        self._tempdir = tempfile.TemporaryDirectory(prefix="repro-rpc-")
        self.socket_path = os.path.join(
            self._tempdir.name, f"pool-{os.getpid()}.sock"
        )
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listener.bind(self.socket_path)
        listener.listen(self.workers)
        listener.setblocking(False)

        ctx = _mp_context()
        for worker_id in range(self.workers):
            proc = ctx.Process(
                target=_rpc_worker_main,
                args=(self.socket_path, worker_id),
                daemon=True,
            )
            proc.start()
            self._procs.append(proc)

        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="rpc-pool", daemon=True
        )
        self._thread.start()
        self._finalizer = weakref.finalize(
            self,
            _stop_rpc_pool,
            list(self._procs),
            self._loop,
            self._thread,
            self._tempdir,
        )
        try:
            fut = asyncio.run_coroutine_threadsafe(
                self._accept_all(listener), self._loop
            )
            fut.result(timeout=self.connect_timeout + 5.0)
        except Exception:
            self.close()
            raise
        finally:
            listener.close()

    async def _accept_all(self, listener: socket.socket) -> None:
        """Accept every worker's connection and start its reader task."""
        loop = asyncio.get_running_loop()
        deadline = time.monotonic() + self.connect_timeout
        accepted = 0
        while accepted < self.workers:
            remaining = max(0.0, deadline - time.monotonic())
            try:
                conn, _ = await asyncio.wait_for(
                    loop.sock_accept(listener), timeout=remaining
                )
            except (asyncio.TimeoutError, TimeoutError):
                raise RpcTimeoutError(
                    f"only {accepted}/{self.workers} workers connected "
                    f"within {self.connect_timeout:.1f}s"
                ) from None
            reader, writer = await asyncio.open_connection(sock=conn)
            frame = await read_frame_async(reader)
            if frame is None or frame[0].get("kind") != "hello":
                raise RpcProtocolError("worker sent no hello frame")
            handle = _WorkerHandle(
                self._procs[frame[0]["worker"]], reader, writer
            )
            self._handles.append(handle)
            asyncio.ensure_future(self._reader_task(handle))
            accepted += 1
        self._handles.sort(key=lambda h: h.proc.pid)
        asyncio.ensure_future(self._heartbeat_task())

    def close(self) -> None:
        """Stop the loop thread, reap workers, unlink the socket (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._loop is not None and self._loop.is_running():
            with contextlib.suppress(Exception):
                asyncio.run_coroutine_threadsafe(
                    self._shutdown_workers(), self._loop
                ).result(timeout=2.0)
        if self._finalizer is not None:
            self._finalizer()
            self._finalizer = None

    async def _shutdown_workers(self) -> None:
        """Send polite shutdown frames and close every writer."""
        for handle in self._handles:
            with contextlib.suppress(Exception):
                handle.writer.write(encode_frame({"kind": "shutdown"}))
                await handle.writer.drain()
            with contextlib.suppress(Exception):
                handle.writer.close()

    @property
    def failed(self) -> bool:
        """True once any worker has been marked dead (pool fails closed)."""
        return self._closed or any(h.dead for h in self._handles)

    @property
    def dead_workers(self) -> "list[str]":
        """Reasons for every worker currently marked dead."""
        return [h.dead for h in self._handles if h.dead]

    # -- routing -------------------------------------------------------------

    def _fail_worker(self, handle: _WorkerHandle, kind: type, reason: str):
        """Mark a worker dead and fail its pending calls (fail closed)."""
        if handle.dead is None:
            handle.dead = reason
            handle.dead_kind = kind
        for fut in list(handle.pending.values()):
            if not fut.done():
                fut.set_exception(kind(reason))
        handle.pending.clear()
        with contextlib.suppress(Exception):
            handle.writer.close()

    async def _reader_task(self, handle: _WorkerHandle) -> None:
        """Route every inbound frame to its pending call future.

        A frame whose call id has no pending future — a duplicate ACK,
        or an ACK for a call that already timed out — is a protocol
        violation: the worker is marked dead and the pool fails closed.
        """
        while True:
            try:
                frame = await read_frame_async(handle.reader)
            except RpcProtocolError as exc:
                self._fail_worker(handle, RpcProtocolError, str(exc))
                return
            except (ConnectionError, OSError) as exc:
                self._fail_worker(
                    handle, RpcWorkerError, f"connection lost: {exc}"
                )
                return
            if frame is None:
                if handle.dead is None and (handle.pending or not self._closed):
                    self._fail_worker(
                        handle,
                        RpcWorkerError,
                        f"worker pid {handle.proc.pid} closed its connection",
                    )
                return
            header, blob = frame
            fut = handle.pending.pop(header.get("call"), None)
            if fut is None:
                self._fail_worker(
                    handle,
                    RpcProtocolError,
                    f"duplicate or unmatched ACK for call "
                    f"{header.get('call')!r} from worker pid "
                    f"{handle.proc.pid}",
                )
                return
            if fut.done():  # pragma: no cover - cancelled by timeout
                continue
            kind = header.get("kind")
            if kind == "err":
                fut.set_exception(
                    RpcWorkerError(
                        f"worker pid {handle.proc.pid} failed: "
                        f"{header.get('error')}: {header.get('message')}"
                    )
                )
            else:
                self.counters["acks"] += 1
                fut.set_result((header, blob))

    async def _call(
        self,
        handle: _WorkerHandle,
        header: dict,
        blob: bytes,
        *,
        timeout: float,
        retries: int,
    ) -> "tuple[dict, bytes]":
        """Send one frame and await its ACK with bounded retry-and-backoff.

        Each retry re-arms the wait with an exponentially longer
        deadline (the frame is not re-sent — the barrier protocol is
        not idempotent); exhausting the budget raises
        :class:`RpcTimeoutError` and the caller fails the pool closed.
        """
        if handle.dead is not None:
            raise handle.dead_kind(handle.dead)
        self._call_counter += 1
        call_id = self._call_counter
        header = dict(header, call=call_id)
        fut = asyncio.get_running_loop().create_future()
        handle.pending[call_id] = fut
        try:
            handle.writer.write(encode_frame(header, blob))
            await handle.writer.drain()
        except (ConnectionError, OSError) as exc:
            handle.pending.pop(call_id, None)
            self._fail_worker(
                handle, RpcWorkerError, f"send failed: {exc}"
            )
            raise RpcWorkerError(
                f"worker pid {handle.proc.pid} unreachable: {exc}"
            ) from None
        delay = timeout
        for attempt in range(retries + 1):
            try:
                return await asyncio.wait_for(asyncio.shield(fut), delay)
            except (asyncio.TimeoutError, TimeoutError):
                if attempt < retries:
                    self.counters["retries"] += 1
                    delay *= self.backoff
        handle.pending.pop(call_id, None)
        raise RpcTimeoutError(
            f"worker pid {handle.proc.pid} did not ACK call {call_id} "
            f"within {timeout:.2f}s x {retries + 1} attempts"
        )

    async def _heartbeat_task(self) -> None:
        """Ping idle workers; a missed deadline marks the worker dead.

        Workers with calls in flight are skipped — the ACK itself
        proves liveness, and a worker mid-kernel cannot answer pings.
        """
        while True:
            await asyncio.sleep(self.heartbeat_interval)
            if self._closed:
                return
            for handle in self._handles:
                if handle.dead is not None or handle.pending:
                    continue
                try:
                    await self._call(
                        handle,
                        {"kind": "ping"},
                        b"",
                        timeout=self.heartbeat_timeout,
                        retries=0,
                    )
                    self.counters["heartbeats"] += 1
                except RpcTimeoutError:
                    self._fail_worker(
                        handle,
                        RpcWorkerError,
                        f"worker pid {handle.proc.pid} missed the "
                        f"{self.heartbeat_timeout:.1f}s heartbeat deadline",
                    )
                except RpcError:
                    continue

    # -- barrier dispatch ----------------------------------------------------

    def barrier(self, payloads: "list[dict | None]") -> "list[dict]":
        """One ACK barrier: send ``payloads[i]`` to worker ``i``, await all.

        Each payload is ``{"steps": [...], "arrays": {name: ndarray},
        "returns": [...]}``, optionally with ``"resident"`` (name →
        worker-state spec) and ``"release"`` (state keys to drop);
        ``None``, or no entry at all, skips the worker.  Returns the
        decoded output-array dict per participating payload, in order.
        Any failure closes the pool (fail closed) and re-raises typed.
        """
        if self._closed or self._loop is None or self._loop.is_closed():
            reasons = "; ".join(self.dead_workers) or "pool shut down"
            raise RpcWorkerError(f"pool is closed: {reasons}")
        fut = asyncio.run_coroutine_threadsafe(
            self._barrier_async(payloads), self._loop
        )
        try:
            return fut.result()
        except RpcError:
            self.close()
            raise

    async def _barrier_async(self, payloads) -> "list[dict]":
        calls = []
        # The payloads share the op's input arrays: hash each one once.
        digests: "dict[int, tuple]" = {}
        for handle, payload in zip(self._handles, payloads):
            if payload is None:
                continue
            arrays = {
                name: np.ascontiguousarray(a)
                for name, a in payload["arrays"].items()
            }
            meta, blob, shipped = pack_arrays(
                arrays, known=handle.digests, digests=digests
            )
            self.counters["digest_misses"] += len(shipped)
            self.counters["digest_hits"] += len(meta) - len(shipped)
            evict = self._plan_eviction(handle, meta, shipped)
            header = {
                "kind": "op",
                "steps": payload["steps"],
                "arrays": meta,
                "returns": payload["returns"],
            }
            if evict:
                header["evict"] = evict
            for key in ("resident", "release", "dup_ack"):
                if payload.get(key):
                    header[key] = payload[key]
            frame_bytes = len(encode_frame(header, blob))
            self.counters["op_frames"] += 1
            self.counters["op_wire_bytes"] += frame_bytes
            calls.append(
                self._call(
                    handle,
                    header,
                    blob,
                    timeout=self.call_timeout,
                    retries=self.max_retries,
                )
            )
        replies = await asyncio.gather(*calls, return_exceptions=True)
        results: "list[dict]" = []
        first_error = None
        for reply in replies:
            if isinstance(reply, BaseException):
                if first_error is None:
                    first_error = reply
                continue
            header, blob = reply
            self.counters["op_frames"] += 1
            self.counters["op_wire_bytes"] += len(
                encode_frame(header, blob)
            )
            # A fresh per-frame cache resolves same-frame references
            # (two identical output arrays dedup inside one ACK).
            results.append(unpack_arrays(header["arrays"], blob, {}))
        if first_error is not None:
            raise first_error
        return results

    def _plan_eviction(self, handle, meta, shipped) -> "list[str]":
        """Keep each worker's digest cache under ``cache_bytes``.

        The parent drives eviction deterministically (FIFO by first
        shipment) and tells the worker which digests to drop in the op
        frame, so both sides always agree on cache contents.  A digest
        the frame names, shipped or referenced, is never evicted by it:
        the worker drops the evicted digests before it decodes the
        frame.  Sizes come from the frame's :func:`pack_arrays`
        metadata.
        """
        sizes = {
            entry["digest"]: entry["nbytes"]
            for entry in meta
            if not entry.get("cached")
        }
        for digest in shipped:
            handle.digests.add(digest)
            size = sizes[digest]
            handle.digest_order.append((digest, size))
            handle.cache_bytes += size
        named = {entry["digest"] for entry in meta}
        evict: "list[str]" = []
        kept: "list[tuple[str, int]]" = []
        for digest, size in handle.digest_order:
            if handle.cache_bytes > self.cache_bytes and digest not in named:
                handle.digests.discard(digest)
                handle.cache_bytes -= size
                evict.append(digest)
            else:
                kept.append((digest, size))
        handle.digest_order = kept
        return evict


# ---------------------------------------------------------------------------
# The backend
# ---------------------------------------------------------------------------


class RpcBackend(PooledBackend):
    """Sharded execution over a socket wire protocol (see module docs).

    Accounting (capacity enforcement, exchange/byte counters, op
    counts) is inherited unchanged from
    :class:`~repro.mpc.backends.ShardedBackend`; the ``_kernel_*``
    compute hooks are the shared planners of
    :class:`~repro.mpc.backends.PooledBackend`, so results *and* model
    counters are bit-identical to the serial backend while kernels
    execute in worker processes across length-prefixed frames.  This
    class supplies the transport: digest-deduplicated frame arrays plus
    worker-resident sketch state.

    Parameters
    ----------
    shard_memory:
        Per-shard capacity ``s`` in words; bound to the owning engine's
        ``machine_memory`` at attach time when ``None``.
    max_shards:
        Optional hard fleet size (as in the sharded backend).
    workers:
        Worker processes behind the wire (default 2 — wire overhead
        grows with fan-out, and certification needs at least two
        partitions).
    min_wire_items:
        Operations touching fewer words than this run on the serial
        kernels (default
        :data:`~repro.mpc.process_backend.DEFAULT_MIN_PARALLEL_ITEMS`);
        set to 0 to force every operation across the wire (the
        certification and differential tests do).
    connect_timeout:
        Seconds the pool waits for every worker to connect at startup.
    call_timeout:
        Base seconds to await one op/ACK before the retry schedule.
    max_retries:
        Bounded retry budget: extra exponentially-backed-off waits per
        call before the typed :class:`RpcTimeoutError`.
    backoff:
        Multiplier applied to the deadline on each retry.
    heartbeat_interval / heartbeat_timeout:
        Idle-worker ping cadence and the pong deadline after which a
        worker is declared dead.
    cache_bytes:
        Per-worker digest-cache budget; the parent evicts FIFO beyond
        it (both sides stay agreed because eviction rides in op frames).

    Raises
    ------
    RpcTimeoutError
        Pool construction or a call exceeded its configured deadline.
    RpcWorkerError
        A worker died, failed a kernel, or missed its heartbeat.
    RpcProtocolError
        A malformed frame or duplicate ACK crossed the wire.
    """

    name = "rpc"

    def __init__(
        self,
        shard_memory: "int | None" = None,
        *,
        max_shards: "int | None" = None,
        workers: int = 2,
        min_wire_items: int = DEFAULT_MIN_PARALLEL_ITEMS,
        connect_timeout: float = 10.0,
        call_timeout: float = 30.0,
        max_retries: int = 2,
        backoff: float = 2.0,
        heartbeat_interval: float = 2.0,
        heartbeat_timeout: float = 10.0,
        cache_bytes: int = 64 * 1024 * 1024,
    ):
        super().__init__(shard_memory, max_shards=max_shards, workers=workers)
        self.min_wire_items = check_nonnegative_int(
            min_wire_items, "min_wire_items"
        )
        self.connect_timeout = float(connect_timeout)
        self.call_timeout = float(call_timeout)
        self.max_retries = check_nonnegative_int(max_retries, "max_retries")
        self.backoff = float(backoff)
        self.heartbeat_interval = float(heartbeat_interval)
        self.heartbeat_timeout = float(heartbeat_timeout)
        self.cache_bytes = check_positive_int(cache_bytes, "cache_bytes")
        self._pool: "_RpcPool | None" = None
        self.workers_restarted = 0
        # Monotonic pool identity: bumps on every (re)start, including
        # explicit close(); worker-resident sketch stores snapshot it so
        # partial loss is detected parent-side before any dispatch.
        self._pool_generation = 0
        # Keys of the sketches whose partials live in this pool's workers.
        self._sketch_tokens = itertools.count()
        self._transport = {
            key: 0 for key in TRANSPORT_STATS_ZERO if key != "workers_restarted"
        }

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Stop the pool: loop thread, workers, and the socket directory.

        Idempotent; counters stay readable, and the pool restarts
        lazily on the next wire operation, so a closed backend remains
        usable (the recovery path the fault suite exercises).
        """
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def reset(self) -> None:
        """Clear run counters; the pool and worker digest caches survive."""
        super().reset()
        for key in self._transport:
            self._transport[key] = 0
        self.workers_restarted = 0

    def _ensure_pool(self) -> _RpcPool:
        """The live pool, (re)started on demand after close or failure."""
        if self._pool is not None and self._pool.failed:
            self._pool.close()
            self._pool = None
            self.workers_restarted += 1
        if self._pool is None:
            pool = _RpcPool(
                self.workers,
                connect_timeout=self.connect_timeout,
                call_timeout=self.call_timeout,
                max_retries=self.max_retries,
                backoff=self.backoff,
                heartbeat_interval=self.heartbeat_interval,
                heartbeat_timeout=self.heartbeat_timeout,
                cache_bytes=self.cache_bytes,
                counters=self._transport,
            )
            pool.start()
            self._pool = pool
            self._pool_generation += 1
        return self._pool

    # -- reporting -----------------------------------------------------------

    def transport_stats(self) -> dict:
        """The live transport telemetry block (see module docs)."""
        return {
            **self._transport,
            "workers_restarted": self.workers_restarted,
        }

    def dead_workers(self) -> "list[str]":
        """Reasons for workers currently marked dead (empty when healthy)."""
        if self._pool is None:
            return []
        return self._pool.dead_workers

    def stats(self):
        """Sharded counters plus pool size and wire telemetry."""
        snapshot = super().stats()
        snapshot.transport = self.transport_stats()
        return snapshot

    # -- transport -----------------------------------------------------------

    def _pooled(self, words: int) -> bool:
        return words > 0 and words >= self.min_wire_items

    def _execute(self, arrays, dests, plans, finish, resident=None):
        """Run one planned operation as one ACK barrier.

        Every worker's frame carries the op's arrays (digest-deduped, so
        repeats cross as bare references) and the ``resident`` specs its
        steps name, and returns every step output; the parent places
        them into fresh destination arrays.
        """
        payloads = []
        for steps in plans:
            payload = {
                "steps": steps,
                "arrays": arrays,
                "returns": [name for step in steps for name in step["outputs"]],
            }
            if resident:
                payload["resident"] = {
                    name: resident[name]
                    for step in steps
                    for name in step["inputs"]
                    if name in resident
                }
            payloads.append(payload)
        replies = self._ensure_pool().barrier(payloads)
        out = {name: np.empty(shape, dtype) for name, (shape, dtype) in dests.items()}
        placed = []
        for steps, reply in zip(plans, replies):
            spans: dict = {}
            for step in steps:
                spans.update(place(out, step, reply))
            placed.append(spans)
        return finish(out, placed)

    # -- sketch residency (worker-resident partials) --------------------------

    def _place_sketch_partials(self, store) -> None:
        """Keep a new sketch's shard partials in the workers; the parent
        holds no copy.

        Starts the pool if needed and stamps ``store`` with a fresh key
        (``token``) and the pool generation (``residency``).  Workers
        create each partial zeroed on first touch; every later sketch op
        re-checks the stamp, so partials lost to a pool restart fail
        loudly (typed :class:`RpcWorkerError`) instead of silently
        resetting.
        """
        self._ensure_pool()
        store.token = f"sketch{next(self._sketch_tokens)}"
        store.residency = self._pool_generation

    def _check_residency(self, store) -> None:
        """Raise if ``store``'s resident partials predate the live pool."""
        if store.residency != self._pool_generation:
            raise RpcWorkerError(
                "worker-resident sketch partials were lost to a pool "
                "restart; rebuild the sketch"
            )

    def _resident_partials(self, store) -> "list[dict]":
        """Per shard, the worker-state spec of its resident partial: the
        key it lives under and the shape it is created zeroed with."""
        return [
            {"key": f"{store.token}/{shard}", "shape": store.partial_shape(part)}
            for shard, part in enumerate(store.partials)
        ]

    def _kernel_sketch_update(self, store, edges, weights) -> int:
        """Ship one update batch to the worker-resident shard partials.

        One frame per worker, one ``sketch_update`` step per owned
        shard; the hash coefficient arrays ride along digest-deduped
        (bare references after the first batch), so a warm stream ships
        only the edges and weights.  Partials never cross the wire here
        — only the per-shard applied counts come back.
        """
        self._ensure_pool()
        self._check_residency(store)
        return self._pooled_sketch_update(
            store, edges, weights, self._resident_partials(store)
        )

    def _kernel_sketch_collect(self, store) -> "list[np.ndarray]":
        """Fetch the worker-resident partials for a decode-time merge —
        the one moment partial payloads cross the wire."""
        pool = self._ensure_pool()
        self._check_residency(store)
        specs = self._resident_partials(store)
        payloads = [
            {
                "steps": [],
                "arrays": {},
                "returns": [f"partial_{shard}" for shard in range(lo, hi)],
                "resident": {f"partial_{i}": specs[i] for i in range(lo, hi)},
            }
            for lo, hi in position_blocks(len(specs), self.workers)
        ]
        # Workers own contiguous shard groups and ACK in return order.
        replies = pool.barrier(payloads)
        return [partial for reply in replies for partial in reply.values()]

    def _kernel_sketch_release(self, store) -> None:
        """Drop the worker-resident partials (best effort: a dead or
        already-replaced pool has nothing left to release)."""
        if self._pool is None or store.residency != self._pool_generation:
            return
        keys = [spec["key"] for spec in self._resident_partials(store)]
        payloads = [
            {"steps": [], "arrays": {}, "returns": [], "release": keys[lo:hi]}
            for lo, hi in position_blocks(len(keys), self.workers)
        ]
        with contextlib.suppress(RpcError):
            self._pool.barrier(payloads)


#: Selecting ``backend="rpc"`` anywhere resolves to this class.
BACKENDS["rpc"] = RpcBackend
