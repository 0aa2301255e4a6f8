"""Export → shared segment → attach: the zero-copy snapshot contract.

These tests pin the three guarantees the multi-process serving mode
stands on:

* **bit identity** — an attached generation answers ``query_batch``
  exactly like the exporter did at publish time, false positives
  included, across every snapshot-capable filter type and the sharded
  store;
* **immutability** — every write path into an attached target fails
  (including the numpy ``ufunc.at`` kernels, which ignore the
  ``writeable`` flag and need an explicit guard); and
* **materialize** — a writable deep copy round-trips out of a
  generation, which is what a warm-restarting writer does.
"""

from __future__ import annotations

import pytest

from repro.baselines.bloom import BloomFilter
from repro.baselines.one_mem_bloom import OneMemoryBloomFilter
from repro.core.membership import ShiftingBloomFilter
from repro.errors import ConfigurationError, UnsupportedSnapshotError
from repro.hashing.family import make_family
from repro.store import ShardedFilterStore
from repro.store import shm as store_shm

from tests.conftest import make_elements

MEMBERS = make_elements(400, "member")
ABSENT = make_elements(4000, "absent")


def snapshot_roundtrip(target):
    """Export *target* into a bytearray and attach it back."""
    payload = bytearray(store_shm.snapshot_nbytes(target))
    meta = store_shm.export_into(target, payload)
    return store_shm.attach_target(meta, payload)


def build_targets():
    family = make_family("vector64", seed=7)
    single = ShiftingBloomFilter(m=8192, k=4, family=family)
    store = ShardedFilterStore(
        lambda shard: ShiftingBloomFilter(m=4096, k=4, family=family),
        n_shards=3)
    one_mem = OneMemoryBloomFilter(m=8192, k=4, family=family)
    plain = BloomFilter(m=8192, k=4, family=family)
    return [single, store, one_mem, plain]


class TestBitIdentity:
    @pytest.mark.parametrize("target", build_targets(),
                             ids=lambda t: type(t).__name__)
    def test_attached_verdicts_are_bit_identical(self, target):
        """Same verdicts on members AND absents — FPs must match too."""
        target.add_batch(MEMBERS)
        attached = snapshot_roundtrip(target)
        probe = MEMBERS + ABSENT
        assert list(attached.query_batch(probe)) == \
            list(target.query_batch(probe))
        assert attached.n_items == target.n_items

    def test_snapshot_is_point_in_time(self):
        """Writes after export do not leak into the attached image."""
        target = ShiftingBloomFilter(m=8192, k=4)
        target.add_batch(MEMBERS[:100])
        attached = snapshot_roundtrip(target)
        late = b"added-after-export"
        target.add(late)
        assert target.query(late)
        assert not attached.query(late)

    def test_store_attach_routes_like_the_original(self):
        """Shard routing survives: per-shard n_items line up exactly."""
        store = ShardedFilterStore(
            lambda shard: ShiftingBloomFilter(m=4096, k=4), n_shards=4)
        store.add_batch(MEMBERS)
        attached = snapshot_roundtrip(store)
        assert [s.n_items for s in attached.shards] == \
            [s.n_items for s in store.shards]


class TestImmutability:
    def _attached_filter(self):
        target = ShiftingBloomFilter(m=8192, k=4)
        target.add_batch(MEMBERS[:50])
        return snapshot_roundtrip(target)

    def test_batch_write_kernels_are_guarded(self):
        """The ufunc.at kernels must refuse read-only buffers.

        numpy's ``ufunc.at`` writes through views that scalar writes
        reject, so the guard is explicit in ``set_bits_batch`` /
        ``set_offsets_batch`` — and the bytes must be untouched after
        the refusal.
        """
        attached = self._attached_filter()
        before = attached.bits.to_bytes()
        with pytest.raises(TypeError, match="read-only"):
            attached.add_batch([b"sneaky-write"])
        assert attached.bits.to_bytes() == before

    def test_attached_store_rejects_writes_on_every_shard(self):
        store = ShardedFilterStore(
            lambda shard: ShiftingBloomFilter(m=4096, k=4), n_shards=3)
        store.add_batch(MEMBERS[:50])
        attached = snapshot_roundtrip(store)
        with pytest.raises(TypeError, match="read-only"):
            attached.add_batch(make_elements(64, "late"))

    def test_export_needs_a_writable_buffer(self):
        target = ShiftingBloomFilter(m=1024, k=4)
        frozen = memoryview(
            bytearray(store_shm.snapshot_nbytes(target))).toreadonly()
        with pytest.raises(ConfigurationError):
            store_shm.export_into(target, frozen)

    def test_export_rejects_short_buffers(self):
        target = ShiftingBloomFilter(m=8192, k=4)
        with pytest.raises(ConfigurationError):
            store_shm.export_into(
                target, bytearray(store_shm.snapshot_nbytes(target) - 1))

    def test_counting_filters_cannot_export(self):
        from repro.baselines.counting_bloom import CountingBloomFilter

        with pytest.raises(UnsupportedSnapshotError):
            store_shm.snapshot_meta(CountingBloomFilter(m=1024, k=4))


class TestMaterialize:
    def test_materialized_copy_is_writable_and_independent(self):
        """The warm-restart path: attach → materialize → keep writing."""
        target = ShiftingBloomFilter(m=8192, k=4)
        target.add_batch(MEMBERS[:100])
        attached = snapshot_roundtrip(target)
        writable = store_shm.materialize(attached)
        assert list(writable.query_batch(MEMBERS[:100])) == [True] * 100
        writable.add(b"post-recovery-write")
        assert writable.query(b"post-recovery-write")
        assert not attached.query(b"post-recovery-write")
        assert writable.n_items == target.n_items + 1

    def test_materialized_store_round_trips(self):
        store = ShardedFilterStore(
            lambda shard: ShiftingBloomFilter(m=4096, k=4), n_shards=3)
        store.add_batch(MEMBERS)
        writable = store_shm.materialize(snapshot_roundtrip(store))
        probe = MEMBERS + ABSENT[:500]
        assert list(writable.query_batch(probe)) == \
            list(store.query_batch(probe))
        writable.add_batch(make_elements(10, "fresh"))
        assert writable.n_items == store.n_items + 10


class TestMetaValidation:
    def test_geometry_mismatch_is_refused(self):
        target = ShiftingBloomFilter(m=8192, k=4)
        payload = bytearray(store_shm.snapshot_nbytes(target))
        meta = store_shm.export_into(target, payload)
        meta["shards"][0]["m"] = 4096  # lies about the geometry
        with pytest.raises(ConfigurationError):
            store_shm.attach_target(meta, payload)

    def test_unknown_family_is_refused(self):
        target = ShiftingBloomFilter(m=1024, k=4)
        payload = bytearray(store_shm.snapshot_nbytes(target))
        meta = store_shm.export_into(target, payload)
        meta["shards"][0]["family"] = "no-such-family"
        with pytest.raises(ConfigurationError):
            store_shm.attach_target(meta, payload)

    def test_unknown_kind_and_type_are_refused(self):
        target = ShiftingBloomFilter(m=1024, k=4)
        payload = bytearray(store_shm.snapshot_nbytes(target))
        meta = store_shm.export_into(target, payload)
        bad_kind = dict(meta, kind="exotic")
        with pytest.raises(ConfigurationError):
            store_shm.attach_target(bad_kind, payload)
        meta["shards"][0]["type"] = "exotic"
        with pytest.raises(ConfigurationError):
            store_shm.attach_target(meta, payload)

    def test_unknown_router_family_is_refused_like_load_target(self):
        """A store meta rebuilds through persistence's one container
        rebuilder, so an unknown router family is refused exactly as a
        snapshot blob declaring it would be."""
        store = ShardedFilterStore(
            lambda shard: ShiftingBloomFilter(m=1024, k=4), n_shards=2)
        payload = bytearray(store_shm.snapshot_nbytes(store))
        meta = store_shm.export_into(store, payload)
        meta["store"]["router_family"] = "no-such-family"
        with pytest.raises(ConfigurationError,
                           match="router family 'no-such-family' which "
                                 "cannot be reconstructed"):
            store_shm.attach_target(meta, payload)
