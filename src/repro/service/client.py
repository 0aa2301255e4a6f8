"""Clients for the set-query service.

:class:`ServiceClient` is the asyncio client: one TCP connection, fully
**pipelined** — each request gets a fresh id and a future, a background
reader task resolves futures as response frames arrive, so any number of
requests may be in flight concurrently.  That concurrency is exactly
what feeds the server's micro-batching coalescer: N awaiting callers on
one or many connections coalesce into one vectorised batch server-side.

:class:`SyncServiceClient` wraps the async client for scripts and REPLs:
it runs a private event loop on a daemon thread and exposes blocking
methods with the same signatures.

Server-side failures surface as the *server's own exception types*:
error responses carry ``(type name, message)`` and
:func:`repro.errors.remote_error` maps known
:class:`~repro.errors.ReproError` subclasses back to themselves, so
``except ServiceOverloadedError`` works across the wire with the
original message intact.
"""

from __future__ import annotations

import asyncio
import json
import threading
import warnings
from concurrent import futures
from typing import List, Optional, Sequence

import numpy as np

from repro._util import ElementLike
from repro.core.association_types import AssociationAnswer
from repro.errors import DeadlineExceededError, ProtocolError, remote_error
from repro.service import protocol

__all__ = [
    "DEFAULT_CONNECT_TIMEOUT",
    "DEFAULT_OP_TIMEOUT",
    "ServiceClient",
    "SyncServiceClient",
]

#: Default bound on a TCP connect.  Generous for loopback and LAN; the
#: point is that "forever" is never the default.
DEFAULT_CONNECT_TIMEOUT = 5.0
#: Default bound on one request/response round trip.  Wide enough for a
#: multi-MiB SNAPSHOT on a loaded box, finite so a stalled server frees
#: the caller (and the ``_pending`` slot) eventually.
DEFAULT_OP_TIMEOUT = 30.0

#: Sentinel distinguishing "use the connection default" from an explicit
#: ``None`` ("no deadline") in per-call ``timeout`` arguments.
_UNSET = object()


class ServiceClient:
    """Pipelined asyncio client for one service connection.

    Build with :meth:`connect`; every public method is a coroutine and
    may be awaited concurrently from many tasks.

    Every operation runs under a deadline: ``op_timeout`` set at connect
    time applies to each request unless overridden per call with
    ``timeout=`` (``None`` disables the deadline for that call).  A
    request that misses its deadline fails with
    :class:`~repro.errors.DeadlineExceededError` and its future is
    removed from the in-flight table immediately — a stalled server
    cannot pin client memory, and a late response for a timed-out id is
    dropped by the reader.

    Example::

        client = await ServiceClient.connect(port=4000)
        await client.add([b"a", b"b"])
        verdicts = await client.query([b"a", b"nope"])
        await client.close()
    """

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter,
                 op_timeout: Optional[float] = DEFAULT_OP_TIMEOUT):
        self._reader = reader
        self._writer = writer
        self._op_timeout = op_timeout
        self._next_id = 0
        self._pending: dict = {}
        self._closed = False
        self._reader_task = asyncio.ensure_future(self._read_loop())

    @classmethod
    async def connect(
        cls, host: str = "127.0.0.1", port: int = 4000,
        connect_timeout: Optional[float] = DEFAULT_CONNECT_TIMEOUT,
        op_timeout: Optional[float] = DEFAULT_OP_TIMEOUT,
    ) -> "ServiceClient":
        """Open a connection and start the response reader.

        *connect_timeout* bounds the TCP handshake (``None`` = wait
        forever); *op_timeout* becomes the per-request default deadline.
        """
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(host, port), connect_timeout)
        except asyncio.TimeoutError:
            raise DeadlineExceededError(
                "connect to %s:%d timed out after %.3gs"
                % (host, port, connect_timeout)) from None
        return cls(reader, writer, op_timeout=op_timeout)

    async def _read_loop(self) -> None:
        """Resolve in-flight futures as response frames arrive."""
        error: Optional[BaseException] = None
        try:
            while True:
                frame = await protocol.read_frame(self._reader)
                if frame is None:
                    break
                request_id, status, payload, _trace_id = frame
                future = self._pending.pop(request_id, None)
                if future is None or future.done():
                    continue  # cancelled caller; drop the late response
                if status == protocol.STATUS_OK:
                    future.set_result(payload)
                else:
                    name, message = protocol.ERROR.decode(payload)
                    future.set_exception(remote_error(name, message))
        except Exception as exc:  # noqa: BLE001 - fan out to callers
            error = exc
        finally:
            if error is None:
                error = ProtocolError("connection closed by server")
            for future in self._pending.values():
                if not future.done():
                    future.set_exception(error)
            self._pending.clear()

    def _expire(self, request_id: int, op: int, deadline: float) -> None:
        """Deadline timer callback: fail and forget one request."""
        future = self._pending.pop(request_id, None)
        if future is not None and not future.done():
            future.set_exception(DeadlineExceededError(
                "op %d request %d exceeded its %.3gs deadline"
                % (op, request_id, deadline)))

    async def _request(self, op: int, payload: bytes = b"",
                       timeout=_UNSET,
                       trace_id: Optional[int] = None) -> bytes:
        if self._closed:
            raise ProtocolError("client is closed")
        if self._reader_task.done():
            # The server hung up: no reply can arrive for a new request.
            raise ConnectionResetError("connection closed by server")
        deadline = self._op_timeout if timeout is _UNSET else timeout
        request_id = self._next_id
        self._next_id = (self._next_id + 1) & 0xFFFFFFFF
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        self._pending[request_id] = future
        # One call_later per request (not wait_for): no wrapper task, so
        # the happy path stays at benchmark speed.  The timer pops the
        # future from _pending itself, so a timed-out slot never leaks;
        # the read loop drops the late response by its absent id.
        timer = None
        if deadline is not None:
            timer = loop.call_later(
                deadline, self._expire, request_id, op, deadline)
        try:
            self._writer.write(
                protocol.encode_frame(request_id, op, payload, trace_id))
            await self._writer.drain()
            return await future
        finally:
            if timer is not None:
                timer.cancel()
            self._pending.pop(request_id, None)

    async def _op(self, op: int, value=b"", timeout=_UNSET,
                  trace_id: Optional[int] = None):
        """One request typed by its row of :data:`protocol.OPS`: *value*
        is packed with the row's request entry and the answer decoded
        with its response entry; free-form payloads pass as bytes."""
        row = protocol.OPS[op]
        payload = await self._request(
            op, value if row.request is None else row.request.pack(value),
            timeout=timeout, trace_id=trace_id)
        return (payload if row.response is None
                else row.response.decode(payload))

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    async def ping(self, timeout=_UNSET) -> str:
        """Round-trip liveness probe; returns the server banner."""
        return (await self._op(protocol.OP_PING, timeout=timeout)).decode(
            "utf-8")

    async def add(self, elements: Sequence[ElementLike],
                  counts: Optional[Sequence[int]] = None,
                  timeout=_UNSET,
                  trace_id: Optional[int] = None) -> int:
        """Insert a batch (with optional multiplicities); returns count."""
        return await self._op(
            protocol.OP_ADD, (elements, counts), timeout, trace_id)

    async def add_idem(self, client_id: int, write_id: int,
                       elements: Sequence[ElementLike],
                       counts: Optional[Sequence[int]] = None,
                       timeout=_UNSET,
                       trace_id: Optional[int] = None) -> int:
        """Idempotent insert: a retry with the same key applies once.

        ``(client_id, write_id)`` must be reused verbatim on retry; the
        server's dedup window answers the duplicate with the original
        insert count instead of inserting again.
        """
        return await self._op(
            protocol.OP_ADD_IDEM, (client_id, write_id, (elements, counts)),
            timeout, trace_id)

    async def query(self, elements: Sequence[ElementLike],
                    timeout=_UNSET,
                    trace_id: Optional[int] = None) -> np.ndarray:
        """Batch verdicts: bool array (membership) or int64 (counts)."""
        return await self._op(
            protocol.OP_QUERY, (elements, None), timeout, trace_id)

    async def query_multi(
        self, elements: Sequence[ElementLike], timeout=_UNSET,
        trace_id: Optional[int] = None,
    ) -> List[AssociationAnswer]:
        """ShBF_A association answers, one per element."""
        return await self._op(
            protocol.OP_QUERY_MULTI, (elements, None), timeout, trace_id)

    async def snapshot(self, timeout=_UNSET) -> bytes:
        """The hosted structure as a persistence blob."""
        return await self._op(protocol.OP_SNAPSHOT, timeout=timeout)

    async def restore(self, blob: bytes, timeout=_UNSET) -> int:
        """Replace the hosted structure; returns its item count."""
        return await self._op(protocol.OP_RESTORE, blob, timeout)

    async def stats(self, timeout=_UNSET) -> dict:
        """Server-side queue, coalescer and access accounting."""
        return json.loads(await self._op(protocol.OP_STATS, timeout=timeout))

    async def metrics(self, format: str = "text", timeout=_UNSET):
        """Scrape the server's metrics registry (METRICS op).

        ``format="text"`` returns the Prometheus exposition as a
        string; ``format="json"`` returns the registry snapshot dict —
        the form :meth:`repro.obs.MetricsRegistry.merge_dict` folds
        into a cross-process aggregate.
        """
        if format == "text":
            payload = await self._op(protocol.OP_METRICS, timeout=timeout)
            return payload.decode("utf-8")
        if format == "json":
            return json.loads(
                await self._op(protocol.OP_METRICS, b"json", timeout))
        raise ValueError(
            "metrics format must be 'text' or 'json', got %r" % (format,))

    # --- replication ops (primary-side replicator / operator tools) ---
    async def subscribe(self, epoch: int, blob: bytes) -> int:
        """Attach the peer as a standby: full snapshot + stream epoch.

        The receiving server restores *blob*, enters the read-only
        ``standby`` role and records *epoch* as its replication
        position; returns its item count after the restore.
        """
        return await self._op(protocol.OP_SUBSCRIBE, (epoch, blob))

    async def delta(
        self,
        epoch: int,
        entries: Optional[List[tuple]] = None,
        full_blob: Optional[bytes] = None,
    ) -> int:
        """Ship one replication delta (shard entries or a full blob).

        Returns the standby's item count after application.  See
        :data:`repro.service.protocol.DELTA` for the two kinds.
        """
        return await self._op(
            protocol.OP_DELTA, (epoch, full_blob, entries))

    async def promote(self, timeout=_UNSET) -> str:
        """Flip a standby back to the writable primary role."""
        return (await self._op(protocol.OP_PROMOTE, timeout=timeout)).decode(
            "utf-8")

    # --- cluster ops (shard-map publication / live migration) ---------
    async def shard_map(self, blob: bytes = b"", timeout=_UNSET) -> bytes:
        """Fetch (empty *blob*) or install the node's shard map.

        Returns the node's installed map as JSON bytes
        (:meth:`repro.cluster.ShardMap.from_bytes` decodes it).  An
        install of an older epoch fails typed with
        :class:`~repro.errors.StaleShardMapError`.
        """
        return await self._op(protocol.OP_SHARD_MAP, blob, timeout)

    async def migrate(self, action: int, shard_id: int,
                      body: bytes = b"", timeout=_UNSET) -> bytes:
        """One step of the MIGRATE protocol against this node.

        *action* is a ``protocol.MIGRATE_*`` constant; the response
        payload is action-dependent (shard blob, journalled batches,
        key table, or a u32 count) — see
        :mod:`repro.service.protocol`.  Driven by
        :func:`repro.cluster.coordinator.migrate_shard`.
        """
        return await self._op(
            protocol.OP_MIGRATE, (action, shard_id, body), timeout)

    async def close(self) -> None:
        """Close the connection and stop the reader task."""
        if self._closed:
            return
        self._closed = True
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover
            pass
        await asyncio.gather(self._reader_task, return_exceptions=True)

    async def __aenter__(self) -> "ServiceClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()


class SyncServiceClient:
    """Blocking wrapper over :class:`ServiceClient` for scripts.

    Runs a private event loop on a daemon thread; every method submits
    the matching coroutine and blocks on its result.  Usable as a
    context manager::

        with SyncServiceClient(port=4000) as client:
            client.add(["a", "b"])
            client.query(["a", "nope"])   # -> array([ True, False])
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 4000,
                 timeout: float = 30.0,
                 connect_timeout: Optional[float] = None):
        self._timeout = timeout
        self._client: Optional[ServiceClient] = None
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever,
            name="repro-service-client", daemon=True)
        self._thread.start()
        try:
            # `timeout` bounds the whole op *inside* the loop too (it is
            # the connection's op_timeout), not just future.result():
            # a stalled server fails the coroutine itself, freeing its
            # _pending slot instead of abandoning a live coroutine.
            self._client = self._call(ServiceClient.connect(
                host, port,
                connect_timeout=(connect_timeout if connect_timeout
                                 is not None else min(timeout, 5.0)),
                op_timeout=timeout))
        except BaseException:
            # Failed connect: reclaim the loop thread so __exit__/close
            # after a constructor failure is safe and leak-free.
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(self._timeout)
            if not self._thread.is_alive():
                self._loop.close()
            raise

    def _call(self, coroutine):
        future = asyncio.run_coroutine_threadsafe(coroutine, self._loop)
        # The in-loop op_timeout fires first in normal operation; the
        # small grace here only guards against a wedged event loop.
        try:
            return future.result(self._timeout + 1.0
                                 if self._timeout is not None else None)
        except (TimeoutError, futures.TimeoutError):
            if future.done():
                raise  # the coroutine's own timeout error; keep it
            future.cancel()
            raise DeadlineExceededError(
                "operation exceeded the %.3gs client timeout and the "
                "event loop did not answer" % self._timeout) from None

    def ping(self) -> str:
        return self._call(self._client.ping())

    def add(self, elements: Sequence[ElementLike],
            counts: Optional[Sequence[int]] = None) -> int:
        return self._call(self._client.add(elements, counts))

    def add_idem(self, client_id: int, write_id: int,
                 elements: Sequence[ElementLike],
                 counts: Optional[Sequence[int]] = None) -> int:
        return self._call(
            self._client.add_idem(client_id, write_id, elements, counts))

    def query(self, elements: Sequence[ElementLike]) -> np.ndarray:
        return self._call(self._client.query(elements))

    def query_multi(
        self, elements: Sequence[ElementLike],
    ) -> List[AssociationAnswer]:
        return self._call(self._client.query_multi(elements))

    def snapshot(self) -> bytes:
        return self._call(self._client.snapshot())

    def restore(self, blob: bytes) -> int:
        return self._call(self._client.restore(blob))

    def stats(self) -> dict:
        return self._call(self._client.stats())

    def metrics(self, format: str = "text"):
        return self._call(self._client.metrics(format))

    def promote(self) -> str:
        return self._call(self._client.promote())

    def close(self) -> None:
        """Close the connection and stop the private loop thread.

        If the worker thread fails to stop within the client timeout a
        :class:`ResourceWarning` is emitted and the (still running)
        loop is left unclosed — closing a live loop raises from the
        wrong thread and would mask the real problem, a wedged op.
        Safe to call repeatedly and after a failed constructor.
        """
        if self._loop.is_closed():
            return
        try:
            if self._client is not None:
                self._call(self._client.close())
                self._client = None
        finally:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(self._timeout)
            if self._thread.is_alive():
                warnings.warn(
                    "SyncServiceClient worker thread did not stop within "
                    "%.3gs; leaking the daemon thread and leaving its "
                    "event loop open" % self._timeout,
                    ResourceWarning, stacklevel=2)
            else:
                self._loop.close()

    def __enter__(self) -> "SyncServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
