"""The writer: sole owner of mutable state, publisher of generations.

One process holds the only writable copy of the hosted structure and
serves the full wire protocol on a private port — read workers relay
ADD/ADD_IDEM/SNAPSHOT here, and operators can hit it directly for
authoritative STATS.  After every write burst it publishes a fresh
generation into shared memory (:class:`~repro.mpserve.segments.
GenerationPublisher`), coalesced by ``publish_interval_ms`` so a write
storm costs one buffer copy per interval, not per write.

Crash recovery: on start the writer first tries
:func:`~repro.mpserve.segments.recover_target` — if a previous writer
of this fleet left a published generation behind, the new writer warms
up from that byte image and resumes the generation counter, losing at
most one publish interval of writes.  The supervisor relies on this to
restart a killed writer without emptying the fleet.
"""

from __future__ import annotations

import asyncio
from typing import Optional

from repro.obs import MetricsRegistry
from repro.obs import names as metric_names
from repro.mpserve.segments import GenerationPublisher, recover_target
from repro.service.server import CoalescerConfig, FilterService
from repro.workloads.service import preloaded

__all__ = ["WriterService", "writer_main"]


class WriterService(FilterService):
    """FilterService plus generation publishing on the write path."""

    def __init__(self, target, publisher: GenerationPublisher,
                 publish_interval_ms: float,
                 config: Optional[CoalescerConfig] = None,
                 metrics: Optional[MetricsRegistry] = None):
        super().__init__(
            target, config,
            banner="repro.mpserve writer (%s)" % type(target).__name__,
            metrics=metrics)
        self.publisher = publisher
        self._publish_interval_s = publish_interval_ms / 1e3
        self._pending_writes = 0
        self._dirty = asyncio.Event()
        self.on_write = self._note_write
        self.metrics.gauge(metric_names.MPSERVE_PENDING_WRITES).set_fn(
            lambda: self._pending_writes)

    def _note_write(self, elements, counts) -> None:
        self._pending_writes += len(elements)
        self._dirty.set()

    @property
    def pending_writes(self) -> int:
        """Writes applied since the last publish."""
        return self._pending_writes

    def publish_now(self) -> int:
        """Flush parked writes and publish one generation.

        Runs synchronously on the event loop: no await separates the
        coalescer flush, the buffer copy and the pending-counter reset,
        so "pending_writes == 0" in STATS really means "every
        acknowledged write is in the published generation".
        """
        self._dirty.clear()
        self.flush_pending()
        generation = self.publisher.publish(self._target)
        self._pending_writes = 0
        return generation

    async def publish_loop(self) -> None:
        """Publish after each write burst, at most once per interval."""
        while True:
            await self._dirty.wait()
            await asyncio.sleep(self._publish_interval_s)
            self.publish_now()

    def _dynamic_stats(self) -> dict:
        out = super()._dynamic_stats()
        out["mpserve"] = {
            "role": "writer",
            "generation": self.publisher.generation,
            "pending_writes": self._pending_writes,
            "publish_interval_ms": self._publish_interval_s * 1e3,
        }
        return out


async def _writer_async(base_name: str, port: int, config, conn) -> None:
    registry = MetricsRegistry()
    recovered = recover_target(base_name)
    if recovered is not None:
        start_generation, target = recovered
    else:
        start_generation = 0
        target = preloaded(config.store, config.preload, config.seed)
    publisher = GenerationPublisher(
        base_name, metrics=registry, start_generation=start_generation)
    service = WriterService(
        target, publisher, config.publish_interval_ms,
        config=config.coalescer, metrics=registry)
    # Generation start+1 exists before any worker is told to serve —
    # workers block in GenerationReader.connect/attach until it does.
    service.publish_now()
    server = await service.start(config.host, port)
    bound_port = server.sockets[0].getsockname()[1]
    publish_task = asyncio.ensure_future(service.publish_loop())
    conn.send(("ready", -1, bound_port))
    try:
        async with server:
            await server.serve_forever()
    finally:  # pragma: no cover - cancelled at shutdown
        publish_task.cancel()
        publisher.close(unlink=False)


def writer_main(base_name: str, port: int, config, conn) -> None:
    """Spawn entry point for the writer (blocks until killed): serve
    the fleet's :class:`~repro.mpserve.SupervisorConfig` on *port*."""
    try:
        asyncio.run(_writer_async(base_name, port, config, conn))
    except KeyboardInterrupt:  # pragma: no cover - operator stop
        pass
