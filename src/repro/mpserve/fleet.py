"""Client-side helpers for driving a live mpserve fleet: a publish
barrier, reads that ride over a worker's death, and a direct query of
a killed worker's replacement.  The kill-a-worker recovery tool and
the fleet equivalence tests share them."""

from __future__ import annotations

import asyncio
from typing import Sequence, Tuple

from repro.errors import ProtocolError
from repro.service.client import ServiceClient

__all__ = ["fleet_stats", "query_replacement", "query_riding",
           "wait_published"]

async def fleet_stats(host: str, port: int) -> dict:
    """STATS off *port*: the fleet map on the supervisor's control
    port, the writer's own counters on the writer port."""
    client = await ServiceClient.connect(
        host, port, connect_timeout=2.0, op_timeout=5.0)
    try:
        return await client.stats()
    finally:
        await client.close()


async def wait_published(host: str, writer_port: int) -> None:
    """Barrier: every acknowledged write is in a published generation.

    ``WriterService.publish_now`` clears ``pending_writes`` in the same
    synchronous step that publishes, so "pending_writes == 0" read off
    the writer's own STATS is an exact statement, not a heuristic.

    Raises:
        TimeoutError: the writes did not drain within 10 s.
    """
    loop = asyncio.get_running_loop()
    deadline = loop.time() + 10.0
    while True:
        try:
            stats = await fleet_stats(host, writer_port)
            if stats["mpserve"]["pending_writes"] == 0:
                return
        except (ConnectionError, OSError):
            pass  # writer mid-restart; retry until the deadline
        if loop.time() > deadline:
            raise TimeoutError("writes never drained into a publish")
        await asyncio.sleep(0.02)


async def query_riding(host: str, port: int,
                       batch: Sequence[bytes]) -> list:
    """Query *port* on a fresh connection (so calls through the shared
    serve port spread over the workers), reconnecting if the worker
    just died.

    Raises:
        ConnectionError: no worker answered within 30 connections.
    """
    for _attempt in range(30):
        try:
            client = await ServiceClient.connect(
                host, port, connect_timeout=2.0, op_timeout=5.0)
        except (ConnectionError, OSError):
            await asyncio.sleep(0.1)
            continue
        try:
            return list(await client.query(batch))
        except (ConnectionError, OSError, ProtocolError):
            await asyncio.sleep(0.1)
        finally:
            await client.close()
    raise ConnectionError(
        "no worker answered within 30 reconnects")


async def query_replacement(
    host: str, control_port: int, victim: dict, batch: Sequence[bytes],
) -> Tuple[dict, list]:
    """Wait for the supervisor to restart the killed worker *victim*
    (its STATS ``workers`` entry), then query the replacement itself
    on its admin port.  Returns its STATS entry and its verdicts.

    Raises:
        TimeoutError: the worker did not come back within 30 s.
    """
    loop = asyncio.get_running_loop()
    deadline = loop.time() + 30.0
    while True:
        fleet = await fleet_stats(host, control_port)
        replacement = fleet["workers"][victim["worker_id"]]
        # The admin port reads 0 until the replacement reports ready.
        if replacement["pid"] != victim["pid"] and (
                replacement["admin_port"]):
            return replacement, await query_riding(
                host, replacement["admin_port"], batch)
        if loop.time() > deadline:
            raise TimeoutError(
                "worker %d never came back (workers_alive=%d)"
                % (victim["worker_id"], fleet["workers_alive"]))
        await asyncio.sleep(0.1)
