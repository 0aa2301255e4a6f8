"""StoreSpec: the one recipe every serving entry point builds from.

A served store must be the structure the equivalent in-process
construction gives, down to its snapshot bytes: the spec resolves the
family once at seed 0, shares it across shards, and passes the router
through.
"""

import pickle

import pytest

from repro import persistence
from repro.core import ShiftingAssociationFilter, ShiftingBloomFilter
from repro.errors import ConfigurationError
from repro.hashing.family import SERVING_FAMILY, make_family
from repro.store import (
    GenerationalStore,
    ShardedFilterStore,
    ShardRouter,
    StoreSpec,
)
from tests.conftest import make_elements

ELEMENTS = make_elements(1500, "spec")


def filled(store):
    store.add_batch(ELEMENTS)
    return store


class TestShapes:
    def test_default_is_four_vector64_shards(self):
        store = StoreSpec().build()
        assert isinstance(store, ShardedFilterStore)
        assert store.n_shards == 4
        assert SERVING_FAMILY == "vector64"
        assert store.router.family_kind == SERVING_FAMILY
        assert all(shard.m == 262144 and shard.k == 8
                   for shard in store.shards)
        assert persistence.filter_header(
            store.shards[0])["family"] == SERVING_FAMILY

    def test_zero_shards_is_one_filter(self):
        solo = StoreSpec(shards=0, m=4096, k=6).build()
        assert isinstance(solo, ShiftingBloomFilter)
        assert (solo.m, solo.k) == (4096, 6)

    def test_generations_build_a_ring(self):
        ring = StoreSpec(m=4096, generations=3, rotate_items=10,
                         rotate_seconds=2.5).build()
        assert isinstance(ring, GenerationalStore)
        assert ring.n_generations == 3
        assert ring.rotate_after_items == 10
        assert ring.rotate_after_s == 2.5

    def test_association_structure(self):
        store = StoreSpec(shards=2, m=4096, k=4,
                          structure="association").build()
        assert all(isinstance(shard, ShiftingAssociationFilter)
                   for shard in store.shards)

    def test_router_passes_through(self):
        router = ShardRouter(6, seed=11, family_kind="blake2b")
        store = StoreSpec(shards=6, m=4096).build(router=router)
        assert store.router is router

    def test_builds_are_independent(self):
        spec = StoreSpec(shards=2, m=4096)
        a, b = spec.build(), spec.build()
        a.add_batch(ELEMENTS[:10])
        assert b.n_items == 0


class TestBytes:
    @pytest.mark.parametrize("shards,m,k,kind", [
        (4, 65536, 8, "vector64"),
        (3, 8192, 4, "blake2b"),
        (0, 4096, 6, "xxh64"),
    ])
    def test_snapshot_equals_the_hand_built_store(self, shards, m, k,
                                                  kind):
        family = make_family(kind, seed=0)
        if shards:
            by_hand = ShardedFilterStore(
                lambda shard: ShiftingBloomFilter(m=m, k=k, family=family),
                n_shards=shards)
        else:
            by_hand = ShiftingBloomFilter(m=m, k=k, family=family)
        spec = StoreSpec(shards=shards, m=m, k=k, family=kind)
        assert (persistence.dumps(filled(spec.build()))
                == persistence.dumps(filled(by_hand)))


class TestValidation:
    def test_unknown_family_fails_at_construction(self):
        with pytest.raises(ConfigurationError, match="nope"):
            StoreSpec(family="nope")

    def test_unknown_structure_fails_at_construction(self):
        with pytest.raises(ConfigurationError, match="bitmap"):
            StoreSpec(structure="bitmap")

    def test_spec_is_frozen_and_picklable(self):
        spec = StoreSpec(shards=2, m=4096, family="blake2b")
        with pytest.raises(AttributeError):
            spec.m = 1
        assert pickle.loads(pickle.dumps(spec)) == spec
