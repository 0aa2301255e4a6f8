"""Shared plumbing for the replication tests.

Same single-``asyncio.run`` style as ``tests/service``: the
:func:`pair_run` fixture boots a live attached pair with
:func:`~repro.replication.pair.start_pair` on ephemeral loopback
ports, hands a context object to the test's async scenario, and tears
everything down inside the same event loop.

The default :class:`~repro.replication.ReplicationConfig` uses a very
long interval so the background loop never ships on its own: tests
drive ``ctx.repl.ship()`` explicitly and assert exact epochs.  Tests
of the cadence/staleness machinery pass their own config.
"""

from __future__ import annotations

import asyncio
from types import SimpleNamespace

import pytest

from repro.replication.pair import start_pair
from repro.replication.replicator import ReplicationConfig
from repro.service.client import ServiceClient
from repro.service.server import CoalescerConfig
from repro.store.spec import StoreSpec

N_SHARDS = 4
M_PER_SHARD = 16384
K = 8

#: Effectively "never ship on the timer" — tests ship explicitly.
MANUAL = ReplicationConfig(interval_ms=3_600_000)


def make_store(n_shards: int = N_SHARDS, m: int = M_PER_SHARD):
    return StoreSpec(shards=n_shards, m=m, k=K, family="blake2b").build()


@pytest.fixture
def store_factory():
    """The pair's store builder, for tests that need donors/clones.

    ``store_factory(n_shards=..., m=...)`` mirrors the geometry the
    :func:`pair_run` services host by default (test dirs are not
    packages, so helpers travel as fixtures rather than imports).
    """
    return make_store


@pytest.fixture
def pair_run():
    """Run ``scenario(ctx)`` against a live attached primary→standby
    pair; returns the scenario's result."""

    def runner(scenario, *, repl_config: ReplicationConfig = None,
               primary_target=None, standby_target=None,
               coalescer: CoalescerConfig = None):
        async def main():
            pair = await start_pair(
                primary_target if primary_target is not None
                else make_store(),
                standby_target if standby_target is not None
                else make_store(),
                config=repl_config if repl_config is not None else MANUAL,
                coalescer=coalescer)
            ctx = SimpleNamespace(
                **vars(pair), primary_service=pair.primary_service,
                kill_primary=pair.kill_primary,
                connect_primary=lambda: ServiceClient.connect(
                    port=pair.primary_port),
                connect_standby=lambda: ServiceClient.connect(
                    port=pair.standby_port))
            try:
                return await scenario(ctx)
            finally:
                await pair.close()

        return asyncio.run(main())

    return runner
