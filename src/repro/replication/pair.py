"""An in-process primary/standby pair and the failover script it runs.

The replication sibling of :func:`repro.cluster.drill.
start_local_cluster`.  The ``serve-pair`` and ``drill`` CLIs, the chaos
drill, the replication benchmark and the tests all boot through
:func:`start_pair`, so they share one kill sequence and one teardown;
the ``probe``/``verify``/``drill`` CLIs, the benchmark and the tests
all derive their writes and reads from :func:`failover_script`.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.errors import ConfigurationError, ReproError
from repro.replication.replicator import (
    ReplicatedFilterService,
    ReplicationConfig,
    StandbyLink,
)
from repro.retry import BackoffPolicy, call_with_retries
from repro.service.server import CoalescerConfig, FilterService
from repro.workloads.service import ServiceWorkload, chop_requests

__all__ = ["LocalPair", "attach_with_retries", "failover_script",
           "start_pair"]


def failover_script(
    workload: ServiceWorkload, failover_at: int, per_batch: int,
) -> Tuple[int, List[List[bytes]], List[List[bytes]], List[bytes]]:
    """The kill-primary drill over *workload*: ``(at, pre, post, mix)``.

    The primary dies at write ``at`` (*failover_at*, or 3/4 of the
    stream when negative).  ``pre``/``post`` are the writes before and
    after it in *per_batch* batches, none straddling the kill; ``mix``
    interleaves the ``at`` acknowledged members with absent elements.
    """
    n = len(workload.members)
    if failover_at > n:
        raise ConfigurationError(
            "failover_at %d beyond the %d-element write stream"
            % (failover_at, n))
    at = (3 * n) // 4 if failover_at < 0 else failover_at
    return (at, chop_requests(workload.members[:at], per_batch),
            chop_requests(workload.members[at:], per_batch),
            workload.mixed_stream()[: 2 * at])


@dataclass
class LocalPair:
    """A live attached pair: the primary's replicator, the standby
    service, both listeners and their bound ports."""

    repl: ReplicatedFilterService
    standby_service: FilterService
    primary_server: asyncio.AbstractServer
    standby_server: asyncio.AbstractServer
    primary_port: int
    standby_port: int

    @property
    def primary_service(self) -> FilterService:
        return self.repl.service

    async def kill_primary(self) -> None:
        """The primary's process death as seen from any client: the
        ship loop and standby links stop, the listener closes, and
        open connections are aborted.  The standby keeps serving."""
        await self.repl.close()
        await self.primary_service.kill(self.primary_server)

    async def close(self) -> None:
        """Release both nodes; idempotent, killed primary or not."""
        await self.kill_primary()
        await self.standby_service.kill(self.standby_server)


async def start_pair(
    primary_target,
    standby_target,
    *,
    host: str = "127.0.0.1",
    primary_port: int = 0,
    standby_port: int = 0,
    config: Optional[ReplicationConfig] = None,
    coalescer: Optional[CoalescerConfig] = None,
) -> LocalPair:
    """Boot a standby, then a replicating primary, and attach them.

    Port ``0`` binds an ephemeral port; read the bound ones off the
    returned pair.  If the primary cannot bind or the attach fails
    (e.g. a counting target cannot snapshot), everything already
    started is released before the error propagates.
    """
    standby_service = FilterService(standby_target, coalescer)
    standby_server = await standby_service.start(host, standby_port)
    repl = ReplicatedFilterService(
        FilterService(primary_target, coalescer), config)
    try:
        primary_server = await repl.start(host, primary_port)
    except BaseException:
        await standby_service.kill(standby_server)
        raise
    pair = LocalPair(
        repl, standby_service, primary_server, standby_server,
        primary_server.sockets[0].getsockname()[1],
        standby_server.sockets[0].getsockname()[1])
    try:
        await repl.attach_standby(host, pair.standby_port)
    except BaseException:
        await pair.close()
        raise
    return pair



async def attach_with_retries(repl: ReplicatedFilterService, host: str,
                              port: int, retries: int,
                              delay: float) -> StandbyLink:
    """Attach a standby that may still be starting: up to *retries*
    attempts, *delay* seconds apart; the last error propagates."""
    return await call_with_retries(
        lambda: repl.attach_standby(host, port),
        policy=BackoffPolicy(base=delay, cap=delay, multiplier=1.0,
                             jitter="none", max_attempts=retries - 1),
        retry_on=(ConnectionError, OSError, ReproError))
