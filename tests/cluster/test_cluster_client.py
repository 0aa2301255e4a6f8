"""The shard-map-aware cluster client against live in-process nodes.

Covers split/fan-out/reassembly equivalence with a single reference
store (bit-for-bit, false positives included), the association
QUERY_MULTI path across owners, and the staleness contract: a client
holding a predecessor map is refused and recovers by refreshing —
never silently served from the wrong node.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.cluster.client import ClusterClient
from repro.cluster.coordinator import fetch_live_map, migrate_shard
from repro.cluster.drill import (
    ClusterDrillConfig,
    _pick_migration,
    start_local_cluster,
)
from repro.cluster.node import ClusterState
from repro.cluster.shardmap import bootstrap_map
from repro.core import ShiftingAssociationFilter
from repro.errors import WrongOwnerError
from repro.hashing.family import make_family
from repro.service.server import FilterService
from repro.store.sharded import ShardedFilterStore
from repro.store.spec import StoreSpec
from repro.workloads.service import build_service_workload
from repro.workloads.sharded import partition_by_shard

CONFIG = ClusterDrillConfig(n_nodes=3, n_shards=6, m=8192, k=4,
                            n_members=400)


def run(scenario):
    """One event loop per test: boot a cluster, run, tear down."""

    async def main():
        cluster = await start_local_cluster(CONFIG)
        client = ClusterClient(cluster.shard_map)
        try:
            return await scenario(cluster, client)
        finally:
            await client.close()
            await cluster.close()

    return asyncio.run(main())


class TestEquivalence:
    def test_add_then_query_matches_reference_bit_for_bit(self):
        async def scenario(cluster, client):
            reference = StoreSpec(
                shards=CONFIG.n_shards, m=CONFIG.m, k=CONFIG.k,
                family=CONFIG.family,
            ).build(router=cluster.shard_map.make_router())
            workload = build_service_workload(CONFIG.n_members, seed=1)
            members = list(workload.members)
            await client.add(members)
            reference.add_batch(members)
            universe = members + list(workload.absent)
            got = await client.query(universe)
            expected = reference.query_batch(universe)
            np.testing.assert_array_equal(got, expected)
            # Fan-out really split the batch across every node.
            assert client.counters["sub_requests"] >= 2 * len(
                cluster.shard_map.nodes())

        run(scenario)

    def test_query_multi_association_across_owners(self):
        async def scenario(cluster, client):
            workload = build_service_workload(200, seed=2)
            s1 = list(workload.members)
            s2 = s1[::2]
            router = cluster.shard_map.make_router()
            family = make_family(CONFIG.family, seed=0)

            def build(store, owned):
                parts1 = partition_by_shard(s1, router)
                parts2 = partition_by_shard(s2, router)
                for shard_id in owned:
                    store.shards[shard_id].build_batch(
                        parts1[shard_id], parts2[shard_id])

            # Swap every node's membership store for an association one.
            for service, state in zip(cluster.services, cluster.states):
                store = ShardedFilterStore(
                    lambda s: ShiftingAssociationFilter(
                        m=CONFIG.m, k=CONFIG.k, family=family),
                    n_shards=cluster.shard_map.n_shards,
                    router=cluster.shard_map.make_router())
                build(store, state.owned_shards)
                service._target = store

            reference = ShardedFilterStore(
                lambda s: ShiftingAssociationFilter(
                    m=CONFIG.m, k=CONFIG.k, family=family),
                n_shards=cluster.shard_map.n_shards,
                router=cluster.shard_map.make_router())
            reference.build_batch(s1, s2)

            universe = s1 + list(workload.absent)
            got = await client.query_multi(universe)
            assert got == list(reference.query_batch(universe))

        run(scenario)

    def test_empty_batches(self):
        async def scenario(cluster, client):
            assert (await client.query([])).shape == (0,)
            assert await client.query_multi([]) == []
            assert await client.add([]) == 0

        run(scenario)


class TestStaleness:
    def test_stale_client_refreshes_after_migration(self):
        async def scenario(cluster, client):
            workload = build_service_workload(CONFIG.n_members, seed=3)
            members = list(workload.members)
            await client.add(members)
            stale_map = client.shard_map

            shard_id, target = _pick_migration(stale_map, members)
            new_map, report = await migrate_shard(
                stale_map, shard_id, target)
            assert new_map.epoch == stale_map.epoch + 1
            assert report["source"] != report["target"]

            # The client still routes with the predecessor map; a batch
            # aimed at the moved shard must be refused by the old owner
            # and transparently recovered via a map refresh.
            router = stale_map.make_router()
            routed = router.route_batch(members)
            moved = [m for m, s in zip(members, routed) if s == shard_id]
            assert moved
            got = await client.query(moved)
            assert bool(got.all())
            assert client.counters["wrong_owner_retries"] >= 1
            assert client.counters["map_refreshes"] >= 1
            assert client.shard_map.epoch == new_map.epoch

        run(scenario)

    def test_refused_never_silently_served(self):
        async def scenario(cluster, client):
            workload = build_service_workload(CONFIG.n_members, seed=4)
            members = list(workload.members)
            await client.add(members)
            stale_map = client.shard_map
            shard_id, target = _pick_migration(stale_map, members)
            await migrate_shard(stale_map, shard_id, target)

            # A client with a zero refresh budget surfaces the typed
            # refusal instead of a wrong answer.
            frozen = ClusterClient(stale_map, max_map_refreshes=0)
            try:
                router = stale_map.make_router()
                routed = router.route_batch(members)
                moved = [m for m, s in zip(members, routed)
                         if s == shard_id]
                with pytest.raises(WrongOwnerError):
                    await frozen.query(moved)
            finally:
                await frozen.close()

        run(scenario)

    def test_fetch_live_map_adopts_newest_epoch(self):
        async def scenario(cluster, client):
            workload = build_service_workload(CONFIG.n_members, seed=5)
            members = list(workload.members)
            await client.add(members)
            stale_map = client.shard_map
            shard_id, target = _pick_migration(stale_map, members)
            new_map, _ = await migrate_shard(stale_map, shard_id, target)
            live = await fetch_live_map(stale_map)
            assert live == new_map

        run(scenario)


class TestWrites:
    def test_writes_are_idempotent_per_sub_batch(self):
        async def scenario(cluster, client):
            workload = build_service_workload(100, seed=6)
            members = list(workload.members)
            applied = await client.add(members)
            assert applied == len(members)
            total = sum(service.target.n_items
                        for service in cluster.services)
            assert total == len(members)

        run(scenario)

    def test_distinct_clients_use_distinct_ids(self):
        a = ClusterClient(bootstrap_map(2, ["127.0.0.1:1"]))
        b = ClusterClient(bootstrap_map(2, ["127.0.0.1:1"]))
        assert a._client_id != b._client_id
