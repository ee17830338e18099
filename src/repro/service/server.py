"""The resident connectivity server (see package docs).

One :class:`ServiceServer` owns a Unix-domain listener, an asyncio
event loop on a daemon thread, a graph store, and a compute-once label
cache.  Client connections are handled concurrently on the loop; the
actual pipeline computations run serialised on a single worker thread
(the MPC engine and backend are not reentrant), with concurrent
requests for the same graph awaiting one shared future.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import tempfile
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.graph import Graph
from repro.mpc.plan import graph_digest
from repro.mpc.rpc import (
    RpcProtocolError,
    encode_frame,
    pack_arrays,
    read_frame_async,
    stop_loop_thread,
    unpack_arrays,
)
from repro.service.protocol import SERVICE_OPS


def _stop_server(loop, thread, tempdir) -> None:
    """Finalizer: stop the loop thread and remove the socket directory."""
    stop_loop_thread(loop, thread, timeout=5.0)
    if tempdir is not None:
        with contextlib.suppress(OSError):
            tempdir.cleanup()


class ServiceServer:
    """Long-lived connectivity service over a Unix-domain socket.

    Parameters
    ----------
    path:
        Socket path to listen on; a private temp directory is created
        when ``None`` (read the bound path from :attr:`address`).
    engine:
        Registered connectivity-engine name every computation runs
        through (``"paper"``, ``"liu_tarjan"``, ``"exponentiation"``,
        ``"portfolio"``).
    backend:
        Execution-backend spec for the data plane — any
        :func:`repro.mpc.backends.make_backend` name (``"rpc"`` puts
        the whole compute path on the wire protocol) or a ready
        instance.  Constructed once and reused across computations;
        instances passed in are owned by the caller.
    spectral_gap_bound:
        The paper's ``λ`` lower bound applied to every query graph.
    config, seed:
        Pipeline tuning constants and the RNG seed; both are fixed for
        the server's lifetime so every computation is deterministic —
        a cached result is bit-identical to a fresh one.

    Results are cached per graph-content digest
    (:func:`repro.mpc.plan.graph_digest`): the first query for a digest
    computes, concurrent duplicates await that same computation, and
    later queries are pure cache hits.  Distinct graphs never share an
    entry — the digest covers the vertex count and every edge byte.
    """

    def __init__(
        self,
        path: "str | None" = None,
        *,
        engine: str = "paper",
        backend=None,
        spectral_gap_bound: float = 0.1,
        config=None,
        seed: int = 23,
    ):
        self.engine = engine
        self.spectral_gap_bound = float(spectral_gap_bound)
        self.config = config
        self.seed = int(seed)
        from repro.mpc.backends import ExecutionBackend, make_backend

        # Pools start on their first operation, so resolving a name here
        # spawns nothing.
        self._owns_backend = not isinstance(backend, ExecutionBackend)
        self._backend = make_backend("local" if backend is None else backend)
        self._path = path
        self._tempdir: "tempfile.TemporaryDirectory | None" = None
        self._loop: "asyncio.AbstractEventLoop | None" = None
        self._thread: "threading.Thread | None" = None
        self._server: "asyncio.AbstractServer | None" = None
        self._executor: "ThreadPoolExecutor | None" = None
        self._finalizer = None
        self._graphs: "dict[str, tuple[int, np.ndarray]]" = {}
        self._labels: "dict[str, asyncio.Future]" = {}
        self._counters = dict.fromkeys(
            ("queries", "cache_hits", "cache_misses", "computes", "errors"), 0
        )
        self._started = False

    # -- lifecycle -----------------------------------------------------------

    @property
    def address(self) -> str:
        """The socket path clients connect to (after :meth:`start`)."""
        if self._path is None:
            raise RuntimeError("server not started; no address yet")
        return self._path

    def start(self) -> "ServiceServer":
        """Bind the socket and serve until :meth:`close` (returns self)."""
        if self._started:
            return self
        if self._path is None:
            self._tempdir = tempfile.TemporaryDirectory(prefix="repro-svc-")
            self._path = os.path.join(
                self._tempdir.name, f"service-{os.getpid()}.sock"
            )
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="svc-compute"
        )
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="svc-server", daemon=True
        )
        self._thread.start()
        self._finalizer = weakref.finalize(
            self, _stop_server, self._loop, self._thread, self._tempdir
        )
        fut = asyncio.run_coroutine_threadsafe(self._serve(), self._loop)
        fut.result(timeout=10.0)
        self._started = True
        return self

    async def _serve(self) -> None:
        """Create the listening server on the loop thread."""
        self._server = await asyncio.start_unix_server(
            self._handle_connection, path=self._path
        )

    def close(self) -> None:
        """Stop serving, release the compute thread and backend (idempotent)."""
        if self._server is not None and self._loop is not None:
            with contextlib.suppress(Exception):
                asyncio.run_coroutine_threadsafe(
                    self._close_server(), self._loop
                ).result(timeout=5.0)
            self._server = None
        if self._finalizer is not None:
            self._finalizer()
            self._finalizer = None
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None
        if self._owns_backend:
            self._backend.close()
        self._started = False

    async def _close_server(self) -> None:
        """Close the listener on the loop thread."""
        self._server.close()
        await self._server.wait_closed()

    def __enter__(self) -> "ServiceServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- request handling ----------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        """Serve one client connection: a frame loop until EOF.

        Each request is dispatched to its op handler; protocol
        violations and handler failures are reported back as typed
        error replies (the connection survives handler errors and
        drops on protocol errors).
        """
        try:
            while True:
                try:
                    frame = await read_frame_async(reader)
                except RpcProtocolError as exc:
                    await self._reply_error(writer, None, exc)
                    return
                if frame is None:
                    return
                header, blob = frame
                op = header.get("op")
                try:
                    if op not in SERVICE_OPS:
                        raise RpcProtocolError(
                            f"unknown service op {op!r}; "
                            f"expected one of {list(SERVICE_OPS)}"
                        )
                    reply_header, reply_blob = await self._dispatch(
                        op, header, blob
                    )
                except asyncio.CancelledError:
                    raise
                except BaseException as exc:  # noqa: BLE001 - typed reply
                    self._counters["errors"] += 1
                    await self._reply_error(writer, header.get("id"), exc)
                    continue
                reply_header["ok"] = True
                reply_header["id"] = header.get("id")
                writer.write(encode_frame(reply_header, reply_blob))
                await writer.drain()
        except (ConnectionError, OSError):
            return
        except asyncio.CancelledError:
            # Shutdown path: absorb the cancellation so the task ends
            # clean — the 3.11 streams connection_made done-callback
            # calls task.exception() on cancelled handler tasks and
            # would log a spurious CancelledError traceback otherwise.
            return
        finally:
            with contextlib.suppress(Exception):
                writer.close()

    async def _reply_error(self, writer, request_id, exc) -> None:
        """Send one typed error reply (best effort)."""
        with contextlib.suppress(ConnectionError, OSError):
            writer.write(
                encode_frame(
                    {
                        "ok": False,
                        "id": request_id,
                        "error": type(exc).__name__,
                        "message": str(exc),
                    }
                )
            )
            await writer.drain()

    async def _dispatch(self, op, header, blob) -> "tuple[dict, bytes]":
        """Route one request to its handler; returns (header, blob)."""
        if op == "ping":
            return {"pong": True}, b""
        if op == "stats":
            return {"stats": self.stats()}, b""
        if op == "put_graph":
            return self._op_put_graph(header, blob)
        # Everything below queries a registered graph by digest.
        digest = header.get("digest")
        if digest not in self._graphs:
            raise ValueError(
                f"unknown graph digest {digest!r}; call put_graph first"
            )
        labels = await self._labels_for(digest)
        self._counters["queries"] += 1
        if op == "components":
            meta, out_blob, _ = pack_arrays({"labels": labels})
            return {"arrays": meta}, out_blob
        if op == "component_count":
            count = int(labels.max()) + 1 if labels.size else 0
            return {"count": count}, b""
        # op == "connected": batched same-component pair queries.
        pairs = unpack_arrays(header["arrays"], blob, {}).get("pairs")
        if pairs is None or pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError("connected queries need a (k, 2) 'pairs' array")
        n = self._graphs[digest][0]
        pairs = pairs.astype(np.int64, copy=False)
        if pairs.size and (pairs.min() < 0 or pairs.max() >= n):
            raise ValueError(f"pair endpoint out of range [0, {n})")
        same = labels[pairs[:, 0]] == labels[pairs[:, 1]]
        meta, out_blob, _ = pack_arrays({"connected": same})
        return {"arrays": meta}, out_blob

    def _op_put_graph(self, header, blob) -> "tuple[dict, bytes]":
        """Register a graph; returns its content digest (idempotent)."""
        n = int(header["n"])
        edges = unpack_arrays(header["arrays"], blob, {}).get("edges")
        if edges is None:
            raise ValueError("put_graph needs an 'edges' array")
        edges = np.ascontiguousarray(edges, dtype=np.int64).reshape(-1, 2)
        # Validate eagerly so a bad graph fails at registration, not at
        # first query time deep inside the pipeline.
        Graph(n, edges)
        digest = graph_digest(n, edges)
        self._graphs.setdefault(digest, (n, edges))
        return {"digest": digest}, b""

    # -- computation + cache -------------------------------------------------

    async def _labels_for(self, digest: str) -> np.ndarray:
        """The cached labels for a digest, computing once on first demand.

        Concurrent callers for the same digest all await the same
        future, so one computation serves every in-flight duplicate; a
        failed computation is evicted so a later query can retry.
        """
        fut = self._labels.get(digest)
        if fut is not None:
            self._counters["cache_hits"] += 1
            return await asyncio.shield(fut)
        self._counters["cache_misses"] += 1
        loop = asyncio.get_running_loop()
        fut = loop.create_future()
        self._labels[digest] = fut
        try:
            labels = await loop.run_in_executor(
                self._executor, self._compute, digest
            )
        except BaseException as exc:
            self._labels.pop(digest, None)
            if not fut.done():
                fut.set_exception(exc)
                # The shield above means nobody may ever await it.
                fut.exception()
            raise
        fut.set_result(labels)
        return labels

    def _compute(self, digest: str) -> np.ndarray:
        """Run the connectivity pipeline for one stored graph (worker
        thread; serialised by the single-slot executor because neither
        the MPC engine nor the backend is reentrant).
        """
        from repro.core.pipeline import mpc_connected_components

        n, edges = self._graphs[digest]
        result = mpc_connected_components(
            Graph(n, edges),
            self.spectral_gap_bound,
            config=self.config,
            rng=self.seed,
            engine=self.engine,
            backend=self._backend,
        )
        self._counters["computes"] += 1
        labels = result.labels
        labels.flags.writeable = False
        return labels

    # -- reporting -----------------------------------------------------------

    def stats(self) -> dict:
        """Server counters: graphs held, queries, cache hits/misses,
        computations run, handler errors, and the hit rate.
        """
        queries = self._counters["cache_hits"] + self._counters["cache_misses"]
        return {
            "graphs": len(self._graphs),
            "engine": self.engine,
            "backend": self._backend.name,
            "hit_rate": (
                self._counters["cache_hits"] / queries if queries else 0.0
            ),
            **self._counters,
        }
