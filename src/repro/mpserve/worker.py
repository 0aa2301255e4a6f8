"""The read worker: a full FilterService over an attached generation.

Each worker is an ordinary :class:`~repro.service.FilterService` — same
coalescer, same backpressure, same METRICS — whose hosted target is a
zero-copy read-only attach of the latest published generation.  It
answers each op by its class in the op table
(:data:`repro.service.protocol.OPS`; see :func:`route`):

* **Reads, refreshed**: before serving an element read (QUERY,
  QUERY_MULTI) the worker peeks the seqlock header (one 8-byte read);
  when the writer has published a newer generation it attaches it,
  swaps ``_target`` (the same atomic swap RESTORE uses) and releases
  the old segment.  Queries already parked in the coalescer flush
  against the *new* target — verdicts are monotonic, never
  stale-then-fresh interleaved within one batch.  Observability ops
  (PING, STATS, METRICS) are served locally too.
* **Writes, forwarded**: element writes (ADD/ADD_IDEM) and the state
  read SNAPSHOT, which must reflect the authoritative mutable store,
  are relayed verbatim to the writer process over one pipelined
  :class:`~repro.service.ServiceClient` connection.  The writer's
  answer — including a typed error — is the worker's answer.  Transport
  failures surface as :class:`~repro.errors.WriterUnavailableError`;
  only ADD_IDEM relays are retried automatically (they are idempotent
  by construction; a retried plain ADD could double-apply).
* **The rest, refused**: RESTORE and the replication and cluster ops
  would mutate or re-role a process that owns no state; they are
  refused with :class:`~repro.errors.UnsupportedOperationError`.

``worker_main`` is the spawn entry point: it binds the shared serve
port with SO_REUSEPORT (or adopts a listening socket fd passed by the
supervisor where SO_REUSEPORT is unavailable), binds a private
ephemeral admin port for per-worker scrapes, and reports readiness over
the supervisor pipe.
"""

from __future__ import annotations

import asyncio
import socket
from typing import Optional

from repro import errors
from repro.errors import (
    ReproError,
    UnsupportedOperationError,
    WriterUnavailableError,
)
from repro.obs import MetricsRegistry
from repro.obs import names as metric_names
from repro.mpserve.segments import AttachedGeneration, GenerationReader
from repro.service import protocol
from repro.service.client import ServiceClient
from repro.service.server import CoalescerConfig, FilterService

__all__ = ["ReadWorkerService", "route", "worker_main"]


def route(row: protocol.Op) -> str:
    """How a read worker answers an op, by its class: ``"local"``,
    ``"forward"`` (to the writer) or ``"refuse"``.

    A state op goes to the writer if a standby would serve it (it reads
    the authoritative store) and is refused if a standby would refuse
    it (it replaces the store).
    """
    if row.kind in ("read", "observability"):
        return "local"
    if row.kind == "write" or (row.kind == "state"
                               and row.standby == "serve"):
        return "forward"
    return "refuse"


class ReadWorkerService(FilterService):
    """A FilterService serving reads from shared generations.

    Args:
        attached: the initial generation attach.
        reader: the connected :class:`GenerationReader` to poll and
            re-attach from.
        writer_host / writer_port: where write traffic is relayed.
        worker_id: stable index within the fleet (banner + stats).
    """

    def __init__(self, attached: AttachedGeneration,
                 reader: GenerationReader,
                 writer_host: str, writer_port: int,
                 config: Optional[CoalescerConfig] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 worker_id: int = 0):
        super().__init__(
            attached.target, config,
            banner="repro.mpserve worker %d (%s)"
                   % (worker_id, type(attached.target).__name__),
            metrics=metrics)
        self.worker_id = worker_id
        self._attached = attached
        self._reader = reader
        self._writer_host = writer_host
        self._writer_port = writer_port
        self._forward_client: Optional[ServiceClient] = None
        registry = self.metrics
        registry.gauge(metric_names.MPSERVE_GENERATION).set_fn(
            lambda: self._attached.generation)
        self._m_forwarded = {
            op: registry.counter(
                metric_names.MPSERVE_WRITES_FORWARDED, op=row.name)
            for op, row in protocol.OPS.items() if route(row) == "forward"}

    @property
    def generation(self) -> int:
        """The generation currently being served."""
        return self._attached.generation

    # ------------------------------------------------------------------
    # Generation refresh
    # ------------------------------------------------------------------
    def refresh_generation(self) -> bool:
        """Swap to the latest generation if a newer one is announced.

        Synchronous on purpose: it runs between requests on the event
        loop, so a swap can never interleave with a coalescer flush.
        Returns whether a swap happened.
        """
        if self._reader.peek_generation() == self._attached.generation:
            return False
        fresh = self._reader.attach()
        stale = self._attached
        self._attached = fresh
        self._target = fresh.target
        stale.close()
        return True

    # ------------------------------------------------------------------
    # Write forwarding
    # ------------------------------------------------------------------
    async def _forward_connection(self) -> ServiceClient:
        if self._forward_client is None:
            try:
                self._forward_client = await ServiceClient.connect(
                    self._writer_host, self._writer_port,
                    connect_timeout=5.0, op_timeout=30.0)
            except (ConnectionError, OSError, ReproError) as exc:
                raise WriterUnavailableError(
                    "cannot reach the writer at %s:%d: %s"
                    % (self._writer_host, self._writer_port, exc)
                ) from None
        return self._forward_client

    async def _drop_forward_connection(self) -> None:
        client, self._forward_client = self._forward_client, None
        if client is not None:
            try:
                await client.close()
            except Exception:  # noqa: BLE001 - already broken
                pass

    async def _forward(self, op: int, payload: bytes,
                       trace_id: Optional[int]) -> bytes:
        """Relay one request to the writer; relay its answer back."""
        self._m_forwarded[op].inc()
        attempts = 2 if op == protocol.OP_ADD_IDEM else 1
        last: Exception = WriterUnavailableError("no attempt made")
        for _attempt in range(attempts):
            try:
                client = await self._forward_connection()
                return await client._request(
                    op, payload, trace_id=trace_id)
            except ReproError as exc:
                if getattr(exc, "remote", False):
                    raise  # the writer answered; relay its refusal
                await self._drop_forward_connection()
                last = exc
            except (ConnectionError, OSError) as exc:
                await self._drop_forward_connection()
                last = exc
        raise WriterUnavailableError(
            "write relay to %s:%d failed (%s: %s); the write was not "
            "acknowledged" % (self._writer_host, self._writer_port,
                              type(last).__name__, last))

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    async def _dispatch(self, op: int, payload: bytes,
                        trace_id: Optional[int] = None) -> bytes:
        row = protocol.OPS.get(op)
        action = "local" if row is None else route(row)
        if action == "forward":
            return await self._forward(op, payload, trace_id)
        if action == "refuse":
            raise UnsupportedOperationError(
                "%s is not served by an mpserve read worker: workers "
                "hold read-only generation attaches (state changes go "
                "through the writer/supervisor)" % row.name)
        if row is not None and row.kind == "read":
            self.refresh_generation()
        return await super()._dispatch(op, payload, trace_id)

    def _dynamic_stats(self) -> dict:
        out = super()._dynamic_stats()
        out["mpserve"] = {
            "role": "worker",
            "worker_id": self.worker_id,
            "generation": self._attached.generation,
            "writer": "%s:%d" % (self._writer_host, self._writer_port),
        }
        return out

    async def close(self) -> None:
        await self._drop_forward_connection()
        # The served target views the segment too; drop it so the
        # segment unmaps here.
        self._target = None
        self._attached.close()
        self._reader.close()


def _bind_reuseport(host: str, port: int) -> socket.socket:
    """A listening socket sharing *port* with sibling workers."""
    if not hasattr(socket, "SO_REUSEPORT"):  # pragma: no cover
        raise errors.ConfigurationError(
            "SO_REUSEPORT is unavailable on this platform; start the "
            "supervisor with fd_passing=True")
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
    sock.bind((host, port))
    sock.listen(128)
    return sock


async def _worker_async(worker_id: int, base_name: str, config,
                        port: int, writer_port: int, conn) -> None:
    registry = MetricsRegistry()
    reader = GenerationReader(base_name, metrics=registry)
    reader.connect(timeout_s=30.0)
    attached = reader.attach()
    service = ReadWorkerService(
        attached, reader, config.host, writer_port,
        config=config.coalescer, metrics=registry,
        worker_id=worker_id)
    if config.fd_passing:
        from multiprocessing.reduction import recv_handle

        listen_sock = socket.socket(fileno=recv_handle(conn))
        listen_sock.setblocking(False)
        server = await asyncio.start_server(
            service.handle_connection, sock=listen_sock)
    else:
        sock = _bind_reuseport(config.host, port)
        sock.setblocking(False)
        server = await asyncio.start_server(
            service.handle_connection, sock=sock)
    admin_server = await asyncio.start_server(
        service.handle_connection, host=config.host, port=0)
    admin_port = admin_server.sockets[0].getsockname()[1]
    conn.send(("ready", worker_id, admin_port))
    async with server, admin_server:
        await server.serve_forever()


def worker_main(worker_id: int, base_name: str, config, port: int,
                writer_port: int, conn) -> None:
    """Spawn entry point for one read worker (blocks until killed):
    serve *port* under the fleet's
    :class:`~repro.mpserve.SupervisorConfig`, relaying writes to the
    writer on *writer_port*."""
    try:
        asyncio.run(_worker_async(
            worker_id, base_name, config, port, writer_port, conn))
    except KeyboardInterrupt:  # pragma: no cover - operator stop
        pass
