"""MultiWorkerSupervisor: spawn, monitor, restart, aggregate.

The supervisor is the fleet's front door for *operators* (clients talk
to the workers' shared port directly).  It

* resolves the fleet's ports once — the shared SO_REUSEPORT serve port
  and a stable writer port, so restarted processes rebind the same
  addresses the rest of the fleet already holds;
* spawns the writer first (workers block until its first publish), then
  N read workers, each reporting readiness and its private admin port
  over a pipe;
* monitors liveness and restarts crashed processes — a worker restart
  re-attaches the current generation and re-joins the accept queue; a
  writer restart warms up from the last published generation (see
  :mod:`repro.mpserve.writer`) and rebinds its stable port;
* serves PING/STATS/METRICS on a control port, where METRICS is the
  **fleet aggregate**: its own registry plus a live scrape of the
  writer and every worker admin port, folded with
  ``MetricsRegistry.merge_dict`` (counters and histograms add, gauges
  last-write-wins) into one snapshot.

Everything runs under ``multiprocessing``'s *spawn* context: forked
event loops are a liability, and spawn is what every platform supports.
Workers normally bind the shared port themselves with SO_REUSEPORT;
``fd_passing=True`` switches to the fallback where the supervisor binds
one listening socket and passes its fd to every worker over the pipe
(``multiprocessing.reduction``) — same accept semantics, one shared
kernel accept queue.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import secrets
import socket
from dataclasses import dataclass
from typing import List, Optional

from repro.errors import (
    ConfigurationError,
    ProtocolError,
    UnsupportedOperationError,
)
from repro.obs import MetricsRegistry
from repro.obs import names as metric_names
from repro.mpserve.segments import GenerationReader, purge_segments
from repro.mpserve.worker import worker_main
from repro.mpserve.writer import writer_main
from repro.service import protocol
from repro.service.client import ServiceClient
from repro.service.server import CoalescerConfig
from repro.store.spec import StoreSpec

__all__ = ["SupervisorConfig", "MultiWorkerSupervisor"]


def _free_port(host: str) -> int:
    """Reserve-and-release a port (tiny race, standard trade-off)."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind((host, 0))
        return sock.getsockname()[1]


@dataclass
class SupervisorConfig:
    """Fleet shape and serving parameters.

    ``port``/``writer_port``/``control_port`` of 0 mean "pick a free
    one" — read the resolved values back from the supervisor after
    :meth:`MultiWorkerSupervisor.start`.  The writer builds its store
    from ``store``; the writer and every worker serve with the whole
    ``coalescer`` config.
    """

    workers: int = 2
    host: str = "127.0.0.1"
    port: int = 0
    control_port: int = 0
    writer_port: int = 0
    store: StoreSpec = StoreSpec()
    coalescer: CoalescerConfig = CoalescerConfig()
    publish_interval_ms: float = 25.0
    preload: int = 0
    seed: int = 0
    fd_passing: bool = False
    restart_backoff_s: float = 0.25
    base_name: str = ""

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ProtocolError(
                "a fleet needs at least one read worker, got %d"
                % self.workers)
        if (self.store.generations > 0
                or self.store.structure != "membership"):
            # Published generations hold ShBF_M bits in shared memory;
            # a TTL ring or ShBF_A shards have no such image.
            raise ConfigurationError(
                "mpserve hosts ShBF_M shards without generations, got %r"
                % (self.store,))


class _Child:
    """One supervised process and its pipe."""

    def __init__(self, role: str, worker_id: int):
        self.role = role
        self.worker_id = worker_id
        self.process = None
        self.conn = None
        self.port = 0  # admin port (workers) / bound port (writer)
        self.restarts = 0

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()


class MultiWorkerSupervisor:
    """Run an mpserve fleet; see the module docstring for the shape."""

    def __init__(self, config: Optional[SupervisorConfig] = None):
        self.config = config if config is not None else SupervisorConfig()
        self.base_name = self.config.base_name or (
            "repro-mps-%s" % secrets.token_hex(4))
        self.metrics = MetricsRegistry()
        self._ctx = multiprocessing.get_context("spawn")
        self._writer = _Child("writer", -1)
        self._workers: List[_Child] = [
            _Child("worker", i) for i in range(self.config.workers)]
        self._listen_sock: Optional[socket.socket] = None
        self._control_server = None
        self._monitor_task = None
        self._reader = GenerationReader(self.base_name)
        self._stopped = False
        self.serve_port = 0
        self.control_port = 0
        self.writer_port = 0
        self._m_restarts = {
            role: self.metrics.counter(
                metric_names.MPSERVE_WORKER_RESTARTS, role=role)
            for role in ("worker", "writer")}
        self.metrics.gauge(metric_names.MPSERVE_WORKERS_ALIVE).set_fn(
            lambda: sum(1 for child in self._workers if child.alive))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bring up writer, workers, monitor and control server."""
        config = self.config
        self.serve_port = config.port or _free_port(config.host)
        self.writer_port = config.writer_port or _free_port(config.host)
        if config.fd_passing:
            self._listen_sock = socket.socket(
                socket.AF_INET, socket.SOCK_STREAM)
            self._listen_sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self._listen_sock.bind((config.host, self.serve_port))
            self._listen_sock.listen(128)
            self.serve_port = self._listen_sock.getsockname()[1]
        await self._spawn_writer()
        for child in self._workers:
            await self._spawn_worker(child)
        self._control_server = await asyncio.start_server(
            self._handle_control, host=config.host,
            port=config.control_port)
        self.control_port = (
            self._control_server.sockets[0].getsockname()[1])
        self._reader.connect(timeout_s=10.0)
        self._monitor_task = asyncio.ensure_future(self._monitor())

    async def _wait_ready(self, child: _Child,
                          timeout_s: float = 30.0) -> None:
        deadline = asyncio.get_running_loop().time() + timeout_s
        while True:
            if child.conn.poll():
                message = child.conn.recv()
                if message[0] == "ready":
                    child.port = message[2]
                    return
                raise ProtocolError(
                    "unexpected startup message from %s %d: %r"
                    % (child.role, child.worker_id, message))
            if not child.alive:
                raise ProtocolError(
                    "%s %d died during startup (exit code %r)"
                    % (child.role, child.worker_id,
                       child.process.exitcode))
            if asyncio.get_running_loop().time() > deadline:
                raise ProtocolError(
                    "%s %d not ready after %.1fs"
                    % (child.role, child.worker_id, timeout_s))
            await asyncio.sleep(0.02)

    async def _spawn_writer(self) -> None:
        config = self.config
        parent_conn, child_conn = self._ctx.Pipe()
        self._writer.conn = parent_conn
        self._writer.process = self._ctx.Process(
            target=writer_main,
            args=(self.base_name, self.writer_port, config, child_conn),
            daemon=True)
        self._writer.process.start()
        child_conn.close()
        await self._wait_ready(self._writer)
        self.writer_port = self._writer.port

    async def _spawn_worker(self, child: _Child) -> None:
        config = self.config
        child.port = 0  # STATS reports 0 until the worker is ready
        parent_conn, child_conn = self._ctx.Pipe()
        child.conn = parent_conn
        child.process = self._ctx.Process(
            target=worker_main,
            args=(child.worker_id, self.base_name, config,
                  self.serve_port, self.writer_port, child_conn),
            daemon=True)
        child.process.start()
        child_conn.close()
        if config.fd_passing:
            from multiprocessing.reduction import send_handle

            send_handle(parent_conn, self._listen_sock.fileno(),
                        child.process.pid)
        await self._wait_ready(child)

    async def _monitor(self) -> None:
        """Restart crashed children until :meth:`stop`."""
        config = self.config
        while not self._stopped:
            await asyncio.sleep(0.2)
            for child in [self._writer] + self._workers:
                if child.alive or self._stopped:
                    continue
                child.restarts += 1
                self._m_restarts[child.role].inc()
                await asyncio.sleep(config.restart_backoff_s)
                try:
                    if child.role == "writer":
                        # The stable port makes the relayed-write path
                        # self-heal: workers reconnect to the same
                        # address once the replacement binds it.
                        await self._spawn_writer()
                    else:
                        await self._spawn_worker(child)
                except ProtocolError:  # pragma: no cover - retry next
                    continue

    async def stop(self) -> None:
        """Tear the fleet down and unlink every shared segment."""
        self._stopped = True
        if self._monitor_task is not None:
            self._monitor_task.cancel()
        if self._control_server is not None:
            self._control_server.close()
            await self._control_server.wait_closed()
        self._reader.close()
        for child in [self._writer] + self._workers:
            if child.process is None:
                continue
            child.process.terminate()
            child.process.join(timeout=5)
            if child.process.is_alive():  # pragma: no cover - stuck
                child.process.kill()
                child.process.join(timeout=5)
        if self._listen_sock is not None:
            self._listen_sock.close()
        purge_segments(self.base_name)

    # ------------------------------------------------------------------
    # Introspection + aggregation
    # ------------------------------------------------------------------
    def generation(self) -> int:
        """The latest announced generation (0 if none yet)."""
        try:
            return self._reader.peek_generation()
        except ProtocolError:
            return 0

    def stats(self) -> dict:
        """The supervisor STATS payload (fleet process map)."""
        return {
            "role": "supervisor",
            "base_name": self.base_name,
            "serve_port": self.serve_port,
            "control_port": self.control_port,
            "generation": self.generation(),
            "accept_mode": ("fd_passing" if self.config.fd_passing
                            else "reuse_port"),
            "workers_alive": sum(
                1 for child in self._workers if child.alive),
            "writer": {
                "port": self.writer_port,
                "pid": (self._writer.process.pid
                        if self._writer.process else None),
                "alive": self._writer.alive,
                "restarts": self._writer.restarts,
            },
            "workers": [
                {
                    "worker_id": child.worker_id,
                    "pid": (child.process.pid
                            if child.process else None),
                    "alive": child.alive,
                    "admin_port": child.port,
                    "restarts": child.restarts,
                }
                for child in self._workers
            ],
        }

    async def aggregate_metrics(self) -> MetricsRegistry:
        """Fleet-wide metrics: supervisor + writer + every worker.

        Scrapes each live process's METRICS (JSON form) over its own
        port and folds the snapshots into a *fresh* registry — merging
        into the supervisor's own registry would double-count counters
        on every scrape.  Dead or mid-restart processes are skipped;
        the aggregate is whatever the reachable fleet reports.
        """
        merged = MetricsRegistry()
        merged.merge_dict(self.metrics.to_dict())
        endpoints = [(self.config.host, self.writer_port)]
        endpoints.extend(
            (self.config.host, child.port)
            for child in self._workers if child.alive and child.port)
        for host, port in endpoints:
            try:
                client = await ServiceClient.connect(
                    host, port, connect_timeout=2.0, op_timeout=5.0)
                try:
                    snapshot = await client.metrics(format="json")
                finally:
                    await client.close()
            except Exception:  # noqa: BLE001 - skip unreachable
                continue
            merged.merge_dict(snapshot)
        return merged

    # ------------------------------------------------------------------
    # Control protocol (PING / STATS / METRICS only)
    # ------------------------------------------------------------------
    async def _control_dispatch(self, op: int, payload: bytes) -> bytes:
        if op == protocol.OP_PING:
            return ("repro.mpserve supervisor: %d/%d workers, "
                    "generation %d, serve port %d"
                    % (sum(1 for c in self._workers if c.alive),
                       len(self._workers), self.generation(),
                       self.serve_port)).encode("utf-8")
        if op == protocol.OP_STATS:
            return json.dumps(self.stats(), sort_keys=True).encode()
        if op == protocol.OP_METRICS:
            merged = await self.aggregate_metrics()
            if payload == b"json":
                return json.dumps(
                    merged.to_dict(), sort_keys=True).encode("utf-8")
            if payload not in (b"", b"text"):
                raise ProtocolError(
                    "METRICS accepts an empty payload (text "
                    "exposition) or b'json', got %d unexpected bytes"
                    % len(payload))
            return merged.render_prometheus().encode("utf-8")
        raise UnsupportedOperationError(
            "the supervisor control port serves PING/STATS/METRICS "
            "only; data ops go to the fleet serve port %d"
            % self.serve_port)

    async def _handle_control(self, reader: asyncio.StreamReader,
                              writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                frame = await protocol.read_frame(reader)
                if frame is None:
                    break
                request_id, op, payload, trace_id = frame
                try:
                    body = await self._control_dispatch(op, payload)
                    response = protocol.encode_frame(
                        request_id, protocol.STATUS_OK, body, trace_id)
                except Exception as exc:  # noqa: BLE001 - typed reply
                    response = protocol.encode_frame(
                        request_id, protocol.STATUS_ERR,
                        protocol.ERROR.pack((type(exc).__name__, str(exc))),
                        trace_id)
                writer.write(response)
                await writer.drain()
        except (ConnectionError, OSError, ProtocolError):
            pass
        finally:
            writer.close()
