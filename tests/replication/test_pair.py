"""The in-process pair every drill boots: failover and teardown."""

from __future__ import annotations

import asyncio
import socket

import pytest

from repro.replication.failover import FailoverClient
from repro.replication.pair import start_pair
from repro.service.client import ServiceClient
from repro.workloads.service import build_service_workload


async def _refuses(port: int) -> bool:
    try:
        await (await ServiceClient.connect(port=port)).close()
    except OSError:
        return True
    return False


def test_failover_client_lands_on_standby_after_kill(store_factory):
    workload = build_service_workload(300, seed=4)
    mix = workload.mixed_stream()

    async def scenario():
        pair = await start_pair(store_factory(), store_factory())
        client = FailoverClient([("127.0.0.1", pair.primary_port),
                                 ("127.0.0.1", pair.standby_port)],
                                op_timeout=5.0)
        try:
            await client.add(list(workload.members))
            await pair.repl.ship()
            on_primary = await client.query(mix)
            await pair.kill_primary()
            assert await _refuses(pair.primary_port)
            on_standby = await client.query(mix)
            assert client.failovers == 1
            assert (on_standby == on_primary).all()
            assert on_standby[0::2].all()
        finally:
            await client.close()
            await pair.close()

    asyncio.run(scenario())


@pytest.mark.parametrize("kill_first", [False, True])
def test_close_is_idempotent_and_releases_both_listeners(
        store_factory, kill_first):
    async def scenario():
        pair = await start_pair(store_factory(), store_factory())
        standby = await ServiceClient.connect(port=pair.standby_port)
        await standby.ping()
        if kill_first:
            await pair.kill_primary()
        await pair.close()
        await pair.close()
        assert await _refuses(pair.primary_port)
        assert await _refuses(pair.standby_port)
        assert pair.repl.standbys == ()
        with pytest.raises(ConnectionError):  # aborted, not left open
            await standby.ping()
        await standby.close()

    asyncio.run(scenario())


def test_primary_bind_failure_releases_the_standby(store_factory):
    async def scenario():
        blocker = await asyncio.start_server(
            lambda r, w: None, "127.0.0.1", 0)
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            free = sock.getsockname()[1]
        with pytest.raises(OSError):
            await start_pair(
                store_factory(), store_factory(), standby_port=free,
                primary_port=blocker.sockets[0].getsockname()[1])
        blocker.close()
        assert await _refuses(free)

    asyncio.run(scenario())
