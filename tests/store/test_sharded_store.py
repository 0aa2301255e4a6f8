"""Tests for the sharded filter store: routing, batching, accounting,
rotation and merges."""

import numpy as np
import pytest

from repro.baselines import BloomFilter, OneMemoryBloomFilter
from repro.core import (
    CountingShiftingBloomFilter,
    ShiftingAssociationFilter,
    ShiftingBloomFilter,
    ShiftingMultiplicityFilter,
)
from repro.errors import ConfigurationError, UnsupportedOperationError
from repro.harness.metrics import measure_accesses_per_query
from repro.store import ShardedFilterStore, ShardRouter
from repro.workloads import partition_by_shard, shard_load_factors
from tests.conftest import make_elements

MEMBERS = make_elements(1500, "member")
ABSENT = make_elements(1500, "absent")
MIXED = [e for pair in zip(MEMBERS, ABSENT) for e in pair]


def shbf_factory(shard):
    return ShiftingBloomFilter(m=16384, k=8)


def make_store(n_shards=4, factory=shbf_factory, **kwargs):
    return ShardedFilterStore(factory, n_shards=n_shards, **kwargs)


MEMBERSHIP_FACTORIES = [
    pytest.param(lambda s: BloomFilter(m=16384, k=6), id="bf"),
    pytest.param(shbf_factory, id="shbf_m"),
    pytest.param(lambda s: CountingShiftingBloomFilter(m=16384, k=8),
                 id="cshbf_m"),
    pytest.param(lambda s: OneMemoryBloomFilter(m=16384, k=8),
                 id="one_mem_bf"),
]


class TestScalarBatchEquivalence:
    @pytest.mark.parametrize("factory", MEMBERSHIP_FACTORIES)
    def test_store_batch_equals_store_scalar(self, factory):
        batch = make_store(factory=factory)
        scalar = make_store(factory=factory)
        batch.add_batch(MEMBERS)
        for element in MEMBERS:
            scalar.add(element)
        for ours, theirs in zip(batch.shards, scalar.shards):
            assert ours.bits.to_bytes() == theirs.bits.to_bytes()
        assert batch.n_items == scalar.n_items == len(MEMBERS)
        assert batch.memory.stats == scalar.memory.stats

        verdicts = batch.query_batch(MIXED)
        assert isinstance(verdicts, np.ndarray)
        assert verdicts.tolist() == [scalar.query(q) for q in MIXED]
        assert batch.memory.stats == scalar.memory.stats

    def test_no_false_negatives_and_contains(self):
        store = make_store()
        store.add_batch(MEMBERS)
        assert store.query_batch(MEMBERS).all()
        assert MEMBERS[0] in store
        assert store.query_batch(ABSENT).mean() < 0.01

    def test_empty_batches_are_noops(self):
        store = make_store()
        store.add_batch([])
        assert store.n_items == 0
        before = store.memory.stats
        assert store.query_batch([]).shape == (0,)
        assert store.memory.stats == before

    def test_update_routes_scalars(self):
        store = make_store()
        store.update(MEMBERS[:50])
        assert store.n_items == 50
        assert all(store.query(e) for e in MEMBERS[:50])


class TestConstruction:
    def test_router_shard_count_must_match(self):
        with pytest.raises(ConfigurationError):
            ShardedFilterStore(
                shbf_factory, n_shards=4, router=ShardRouter(3))

    def test_single_shard_store_degenerates_to_one_filter(self):
        store = make_store(n_shards=1)
        solo = shbf_factory(0)
        store.add_batch(MEMBERS[:200])
        solo.add_batch(MEMBERS[:200])
        assert store.shards[0].bits.to_bytes() == solo.bits.to_bytes()

    def test_size_bits_sums_shards(self):
        store = make_store(n_shards=3)
        assert store.size_bits == sum(
            shard.size_bits for shard in store.shards)


class TestAccounting:
    def test_report_aggregates_per_shard_traffic(self):
        store = make_store()
        store.add_batch(MEMBERS)
        store.query_batch(MIXED)
        report = store.report()
        assert report.n_items == len(MEMBERS)
        assert len(report.shards) == 4
        assert report.total.read_words == sum(
            s.stats.read_words for s in report.shards)
        assert report.total.write_ops == sum(
            s.stats.write_ops for s in report.shards)
        assert 1.0 <= report.imbalance < 1.5

    def test_empty_store_report(self):
        report = make_store().report()
        assert report.n_items == 0
        assert report.imbalance == 0.0
        assert report.total.total_words == 0

    def test_memory_view_reset(self):
        store = make_store()
        store.add_batch(MEMBERS[:100])
        assert store.memory.stats.write_ops > 0
        store.memory.reset()
        assert store.memory.stats.total_words == 0

    def test_measure_accesses_per_query_works_on_store(self):
        """The harness metric treats a store like any filter, and at
        equal *total* bits (4 shards of m vs one filter of 4m) the
        per-query figure matches the unsharded filter: sharding
        redistributes accesses, it does not add any."""
        store = make_store()  # 4 shards of m=16384
        solo = ShiftingBloomFilter(m=4 * 16384, k=8)
        store.add_batch(MEMBERS)
        solo.add_batch(MEMBERS)
        got = measure_accesses_per_query(store, MIXED, batch_size=512)
        want = measure_accesses_per_query(solo, MIXED, batch_size=512)
        assert got == pytest.approx(want, rel=0.05)


class TestRotation:
    def test_rotate_grows_one_shard_only(self):
        store = make_store()
        store.add_batch(MEMBERS)
        others = [s for i, s in enumerate(store.shards) if i != 1]
        parts = partition_by_shard(MEMBERS, store.router)
        retired = store.rotate_shard(
            1, parts[1],
            factory=lambda s: ShiftingBloomFilter(m=65536, k=8))
        assert retired.m == 16384
        assert store.shards[1].m == 65536
        # untouched shards are the same objects, still serving
        assert [s for i, s in enumerate(store.shards) if i != 1] == others
        assert store.query_batch(MEMBERS).all()
        assert store.n_items == len(MEMBERS)

    def test_rotate_rejects_misrouted_elements(self):
        store = make_store()
        store.add_batch(MEMBERS)
        with pytest.raises(ConfigurationError, match="route"):
            store.rotate_shard(0, MEMBERS)  # spans all shards

    def test_rotate_requires_a_factory_after_restore(self):
        store = make_store()
        store.add_batch(MEMBERS[:200])
        clone = ShardedFilterStore.restore(store.snapshot())
        with pytest.raises(ConfigurationError, match="factory"):
            clone.rotate_shard(0, [])

    def test_rotate_bad_shard_id(self):
        with pytest.raises(ConfigurationError):
            make_store().rotate_shard(9, [])

    def test_rotate_counts_length_mismatch_rejected_before_rebuild(self):
        """Regression: a rebuild stream with misaligned counts must be
        refused up front (naming the shard), not partially applied."""
        store = ShardedFilterStore(
            lambda s: ShiftingMultiplicityFilter(m=16384, k=4, c_max=16),
            n_shards=4)
        counts = [(i % 16) + 1 for i in range(len(MEMBERS))]
        store.add_batch(MEMBERS, counts)
        parts = partition_by_shard(MEMBERS, store.router)
        before = store.shards[2].bits.to_bytes()
        with pytest.raises(ConfigurationError, match="shard 2"):
            store.rotate_shard(2, parts[2], counts=[1] * (len(parts[2]) - 1))
        # the refused rotation left the serving shard untouched
        assert store.shards[2].bits.to_bytes() == before

    def test_rotate_with_aligned_counts_still_works(self):
        store = ShardedFilterStore(
            lambda s: ShiftingMultiplicityFilter(m=16384, k=4, c_max=16),
            n_shards=4)
        counts = [(i % 16) + 1 for i in range(len(MEMBERS))]
        store.add_batch(MEMBERS, counts)
        parts = partition_by_shard(MEMBERS, store.router)
        by_element = dict(zip(MEMBERS, counts))
        store.rotate_shard(
            2, parts[2], counts=[by_element[e] for e in parts[2]])
        got = store.query_batch(MEMBERS)
        assert all(g >= c for g, c in zip(got.tolist(), counts))


class TestMerge:
    def test_union_merge_serves_both_catalogs(self):
        left, right = make_store(), make_store()
        left.add_batch(MEMBERS)
        right.add_batch(ABSENT)
        merged = left.merge(right)
        assert merged.query_batch(MEMBERS + ABSENT).all()
        assert merged.n_items == len(MEMBERS) + len(ABSENT)

    def test_merge_equals_direct_build(self):
        """Shard-wise union == a store built from the combined catalog."""
        left, right, direct = make_store(), make_store(), make_store()
        left.add_batch(MEMBERS)
        right.add_batch(ABSENT)
        direct.add_batch(MEMBERS + ABSENT)
        merged = left.merge(right)
        for ours, theirs in zip(merged.shards, direct.shards):
            assert ours.bits.to_bytes() == theirs.bits.to_bytes()

    def test_incompatible_router_rejected(self):
        left = make_store()
        right = ShardedFilterStore(
            shbf_factory, n_shards=4, router=ShardRouter(4, seed=99))
        with pytest.raises(ConfigurationError, match="route"):
            left.merge(right)

    def test_unsupported_shard_union_rejected(self):
        left = make_store(factory=lambda s: OneMemoryBloomFilter(
            m=16384, k=8))
        right = make_store(factory=lambda s: OneMemoryBloomFilter(
            m=16384, k=8))
        with pytest.raises(UnsupportedOperationError):
            left.merge(right)


class TestTypedShards:
    def test_multiplicity_store_routes_counts(self):
        store = ShardedFilterStore(
            lambda s: ShiftingMultiplicityFilter(m=16384, k=4, c_max=16),
            n_shards=3)
        counts = [(i % 16) + 1 for i in range(len(MEMBERS))]
        store.add_batch(MEMBERS, counts)
        scalar = ShardedFilterStore(
            lambda s: ShiftingMultiplicityFilter(m=16384, k=4, c_max=16),
            n_shards=3)
        for element, count in zip(MEMBERS, counts):
            scalar.add(element, count)
        for ours, theirs in zip(store.shards, scalar.shards):
            assert ours.bits.to_bytes() == theirs.bits.to_bytes()
        got = store.query_batch(MEMBERS)
        assert got.dtype == np.int64
        # reported counts are never below the truth (§5.2 guarantee)
        assert all(g >= c for g, c in zip(got.tolist(), counts))

    def test_add_batch_counts_length_mismatch(self):
        store = ShardedFilterStore(
            lambda s: ShiftingMultiplicityFilter(m=4096, k=4, c_max=8),
            n_shards=2)
        with pytest.raises(ConfigurationError):
            store.add_batch(MEMBERS[:3], [1, 2])

    def test_association_store_build_and_query(self):
        from repro.core import Association

        store = ShardedFilterStore(
            lambda s: ShiftingAssociationFilter(m=16384, k=8), n_shards=3)
        s1, s2 = MEMBERS[:800], MEMBERS[400:1200]
        store.build_batch(s1, s2)
        answers = store.query_batch(MEMBERS[:1200])
        assert isinstance(answers, list)
        # the true region always survives, sharded or not (§4.2)
        for i, answer in enumerate(answers):
            if i < 400:
                assert Association.S1_ONLY in answer.candidates
            elif i < 800:
                assert Association.BOTH in answer.candidates
            else:
                assert Association.S2_ONLY in answer.candidates


class TestWorkloadHelpers:
    def test_partition_by_shard_matches_router(self):
        router = ShardRouter(4)
        parts = partition_by_shard(MEMBERS, router)
        assert sum(len(p) for p in parts) == len(MEMBERS)
        for shard_id, part in enumerate(parts):
            assert all(router.route(e) == shard_id for e in part[:20])

    def test_shard_load_factors(self):
        router = ShardRouter(4)
        loads = shard_load_factors(MEMBERS, router, capacity_per_shard=500)
        assert loads.shape == (4,)
        assert loads.sum() == pytest.approx(len(MEMBERS) / 500)


class TestShardPrimitives:
    """replace_shard / merge_shard: the replication layer's apply verbs."""

    def test_replace_shard_swaps_and_returns_retired(self):
        store = make_store()
        store.add_batch(MEMBERS)
        fresh = ShiftingBloomFilter(m=16384, k=8)
        retired = store.replace_shard(1, fresh)
        assert store.shards[1] is fresh
        assert retired.n_items > 0
        with pytest.raises(ConfigurationError, match="out of range"):
            store.replace_shard(9, fresh)

    def test_merge_shard_unions_in_place(self):
        store, donor = make_store(), make_store()
        store.add_batch(MEMBERS)
        donor.add_batch(ABSENT)
        for shard_id in range(store.n_shards):
            store.merge_shard(shard_id, donor.shards[shard_id])
        assert store.query_batch(MEMBERS + ABSENT).all()
        direct = make_store()
        direct.add_batch(MEMBERS)
        direct.add_batch(ABSENT)
        for ours, theirs in zip(store.shards, direct.shards):
            assert ours.bits.to_bytes() == theirs.bits.to_bytes()

    def test_merge_shard_geometry_mismatch_surfaces(self):
        store = make_store()
        bigger = ShiftingBloomFilter(m=32768, k=8)
        with pytest.raises(ConfigurationError, match="incompatible"):
            store.merge_shard(0, bigger)

    def test_merge_shard_without_union_rejected(self):
        store = make_store(factory=lambda s: ShiftingMultiplicityFilter(
            m=16384, k=8, c_max=8))
        with pytest.raises(UnsupportedOperationError, match="union"):
            store.merge_shard(0, ShiftingMultiplicityFilter(
                m=16384, k=8, c_max=8))
        with pytest.raises(ConfigurationError, match="out of range"):
            store.merge_shard(-1, None)
