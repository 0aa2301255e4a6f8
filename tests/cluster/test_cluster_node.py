"""Unit tests for the node-side cluster state: ownership + MIGRATE ops.

These drive :class:`ClusterState`'s handlers directly (no sockets):
the ownership contract, the journal lifecycle of a shard move, and the
exactness of blob + catch-up install on the receiving side.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import persistence
from repro.cluster.node import ClusterState
from repro.cluster.shardmap import bootstrap_map
from repro.core import ShiftingBloomFilter
from repro.errors import ConfigurationError, WrongOwnerError
from repro.hashing.family import make_family
from repro.service import protocol
from repro.service.server import FilterService
from repro.store.sharded import ShardedFilterStore
from tests.conftest import make_elements

N_SHARDS = 6
NODE_A = "10.0.0.1:4000"
NODE_B = "10.0.0.2:4000"


def build_node(endpoint, shard_map):
    family = make_family(shard_map.router_family, seed=0)
    store = ShardedFilterStore(
        lambda s: ShiftingBloomFilter(m=4096, k=4, family=family),
        n_shards=shard_map.n_shards, router=shard_map.make_router())
    service = FilterService(store)
    state = ClusterState(shard_map, endpoint).attach(service)
    return service, state


def elements_for_shard(router, shard_id, count, prefix="mig"):
    out = []
    i = 0
    while len(out) < count:
        candidate = ("%s-%06d" % (prefix, i)).encode()
        if router.route(candidate) == shard_id:
            out.append(candidate)
        i += 1
    return out


@pytest.fixture
def pair():
    shard_map = bootstrap_map(N_SHARDS, [NODE_A, NODE_B])
    service_a, state_a = build_node(NODE_A, shard_map)
    service_b, state_b = build_node(NODE_B, shard_map)
    return shard_map, (service_a, state_a), (service_b, state_b)


class TestAttach:
    def test_requires_sharded_store(self):
        shard_map = bootstrap_map(N_SHARDS, [NODE_A])
        service = FilterService(ShiftingBloomFilter(m=1024, k=4))
        with pytest.raises(ConfigurationError):
            ClusterState(shard_map, NODE_A).attach(service)

    def test_requires_map_compatible_router(self):
        shard_map = bootstrap_map(N_SHARDS, [NODE_A])
        store = ShardedFilterStore(
            lambda s: ShiftingBloomFilter(m=1024, k=4),
            n_shards=N_SHARDS)  # default seed != the map's pinned spec?
        other_map = bootstrap_map(N_SHARDS, [NODE_A], router_seed=99)
        service = FilterService(store)
        with pytest.raises(ConfigurationError):
            ClusterState(other_map, NODE_A).attach(service)

    def test_attach_sets_cluster_and_chains_hook(self, pair):
        _, (service_a, state_a), _ = pair
        assert service_a.cluster is state_a
        assert service_a.on_write is not None


class TestOwnership:
    def test_owned_elements_pass(self, pair):
        shard_map, (service_a, state_a), _ = pair
        router = service_a.target.router
        owned = state_a.owned_shards[0]
        batch = elements_for_shard(router, owned, 5)
        state_a.check_elements(batch)  # no raise

    def test_unowned_elements_refused_with_epoch(self, pair):
        shard_map, (service_a, state_a), _ = pair
        router = service_a.target.router
        foreign = next(s for s in range(N_SHARDS)
                       if s not in state_a.owned_shards)
        batch = elements_for_shard(router, foreign, 3)
        with pytest.raises(WrongOwnerError) as excinfo:
            state_a.check_elements(batch)
        assert "epoch %d" % shard_map.epoch in str(excinfo.value)
        assert state_a.counters["wrong_owner_rejections"] == 1

    def test_empty_batch_passes(self, pair):
        _, (_, state_a), _ = pair
        state_a.check_elements([])


class TestMigrateSourceSide:
    def test_begin_requires_ownership(self, pair):
        _, (service_a, state_a), _ = pair
        foreign = next(s for s in range(N_SHARDS)
                       if s not in state_a.owned_shards)
        with pytest.raises(WrongOwnerError):
            state_a.handle_migrate(
                protocol.encode_migrate(protocol.MIGRATE_BEGIN, foreign))

    def test_double_begin_refused(self, pair):
        _, (service_a, state_a), _ = pair
        shard = state_a.owned_shards[0]
        state_a.handle_migrate(
            protocol.encode_migrate(protocol.MIGRATE_BEGIN, shard))
        with pytest.raises(ConfigurationError):
            state_a.handle_migrate(
                protocol.encode_migrate(protocol.MIGRATE_BEGIN, shard))

    def test_delta_requires_begin(self, pair):
        _, (_, state_a), _ = pair
        with pytest.raises(ConfigurationError):
            state_a.handle_migrate(protocol.encode_migrate(
                protocol.MIGRATE_DELTA, state_a.owned_shards[0]))

    def test_journal_captures_only_migrating_shard(self, pair):
        _, (service_a, state_a), _ = pair
        router = service_a.target.router
        shard = state_a.owned_shards[0]
        other = state_a.owned_shards[1]
        state_a.handle_migrate(
            protocol.encode_migrate(protocol.MIGRATE_BEGIN, shard))
        moving = elements_for_shard(router, shard, 4)
        staying = elements_for_shard(router, other, 4, prefix="stay")
        service_a.on_write(moving + staying, None)
        delta = state_a.handle_migrate(
            protocol.encode_migrate(protocol.MIGRATE_DELTA, shard))
        batches = protocol.decode_element_batches(delta)
        assert [elements for elements, _ in batches] == [moving]
        # A second drain is empty: the journal was handed over.
        again = protocol.decode_element_batches(state_a.handle_migrate(
            protocol.encode_migrate(protocol.MIGRATE_DELTA, shard)))
        assert again == []

    def test_end_retires_copy_and_returns_residual(self, pair):
        _, (service_a, state_a), _ = pair
        store = service_a.target
        router = store.router
        shard = state_a.owned_shards[0]
        seed_batch = elements_for_shard(router, shard, 8)
        store.shards[shard].add_batch(seed_batch)
        state_a.handle_migrate(
            protocol.encode_migrate(protocol.MIGRATE_BEGIN, shard))
        late = elements_for_shard(router, shard, 3, prefix="late")
        service_a.on_write(late, None)
        residual = protocol.decode_element_batches(
            state_a.handle_migrate(protocol.encode_migrate(
                protocol.MIGRATE_END, shard)))
        assert [elements for elements, _ in residual] == [late]
        assert store.shards[shard].n_items == 0  # retired via empty_like
        with pytest.raises(ConfigurationError):  # journal gone
            state_a.handle_migrate(protocol.encode_migrate(
                protocol.MIGRATE_DELTA, shard))


class TestMigrateTargetSide:
    def test_blob_plus_catchup_is_bit_identical(self, pair):
        _, (service_a, state_a), (service_b, state_b) = pair
        src, dst = service_a.target, service_b.target
        router = src.router
        shard = state_a.owned_shards[0]
        seed_batch = elements_for_shard(router, shard, 10)
        src.shards[shard].add_batch(seed_batch)

        blob = state_a.handle_migrate(
            protocol.encode_migrate(protocol.MIGRATE_BEGIN, shard))
        late = elements_for_shard(router, shard, 5, prefix="late")
        service_a.on_write(late, None)
        src.shards[shard].add_batch(late)  # what the service would do

        state_b.handle_migrate(protocol.encode_migrate(
            protocol.MIGRATE_INSTALL_REPLACE, shard, blob))
        delta = state_a.handle_migrate(
            protocol.encode_migrate(protocol.MIGRATE_DELTA, shard))
        state_b.handle_migrate(protocol.encode_migrate(
            protocol.MIGRATE_INSTALL_MERGE, shard, delta))

        assert dst.shards[shard].n_items == src.shards[shard].n_items
        probe = seed_batch + late + elements_for_shard(
            router, shard, 50, prefix="absent")
        np.testing.assert_array_equal(
            dst.shards[shard].query_batch(probe),
            src.shards[shard].query_batch(probe))

    def test_install_replace_refuses_container_blob(self, pair):
        """MIGRATE_INSTALL_REPLACE carries one shard's ``SHBF`` blob;
        a whole ``SHBS`` store must be refused, not installed as one
        shard, and the shard must stay as it was."""
        _, (service_a, state_a), (service_b, state_b) = pair
        dst = service_b.target
        shard = state_a.owned_shards[0]
        dst.shards[shard].add_batch(
            elements_for_shard(dst.router, shard, 4, prefix="kept"))
        before = dst.shards[shard]
        bits = before.bits.to_bytes()
        with pytest.raises(ConfigurationError, match="magic"):
            state_b.handle_migrate(protocol.encode_migrate(
                protocol.MIGRATE_INSTALL_REPLACE, shard,
                persistence.dumps(service_a.target)))
        assert dst.shards[shard] is before
        assert before.bits.to_bytes() == bits
        assert state_b.counters["shards_installed"] == 0

    def test_install_merge_refuses_misrouted_elements(self, pair):
        _, (service_a, state_a), (service_b, state_b) = pair
        router = service_b.target.router
        shard = state_a.owned_shards[0]
        wrong = elements_for_shard(
            router, (shard + 1) % N_SHARDS, 2, prefix="wrong")
        payload = protocol.encode_element_batches([(wrong, None)])
        with pytest.raises(ConfigurationError):
            state_b.handle_migrate(protocol.encode_migrate(
                protocol.MIGRATE_INSTALL_MERGE, shard, payload))

    def test_keys_ship_and_install(self, pair):
        _, (service_a, state_a), (service_b, state_b) = pair
        service_a.idempotency.put(7, 1, 42)
        service_a.idempotency.put(7, 2, 43)
        blob = state_a.handle_migrate(protocol.encode_migrate(
            protocol.MIGRATE_KEYS, state_a.owned_shards[0]))
        state_b.handle_migrate(protocol.encode_migrate(
            protocol.MIGRATE_INSTALL_KEYS, state_a.owned_shards[0], blob))
        assert service_b.idempotency.get(7, 1) == 42
        assert service_b.idempotency.get(7, 2) == 43

    def test_shard_id_out_of_range_refused(self, pair):
        _, (_, state_a), _ = pair
        with pytest.raises(ConfigurationError):
            state_a.handle_migrate(protocol.encode_migrate(
                protocol.MIGRATE_BEGIN, N_SHARDS))


class TestStats:
    def test_stats_dict_shape(self, pair):
        shard_map, (service_a, state_a), _ = pair
        stats = state_a.stats_dict()
        assert stats["self"] == NODE_A
        assert stats["epoch"] == shard_map.epoch
        assert stats["owned_shards"] == list(state_a.owned_shards)
        assert stats["migrating_shards"] == []
        service_stats = service_a.stats()
        assert service_stats["cluster"]["self"] == NODE_A
