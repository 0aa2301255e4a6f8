"""Round-trip and rejection tests for the store container format."""

import json
import struct

import pytest

from repro import persistence
from repro.baselines import BloomFilter, OneMemoryBloomFilter
from repro.core import CountingShiftingBloomFilter, ShiftingBloomFilter
from repro.errors import ConfigurationError, UnsupportedSnapshotError
from repro.hashing import Blake2Family, VectorizedFamily, family_spec
from repro.store import ShardedFilterStore, ShardRouter
from tests.conftest import make_elements

MEMBERS = make_elements(800, "member")
PROBES = MEMBERS + make_elements(800, "absent")


def build_store(factory=lambda s: ShiftingBloomFilter(m=8192, k=8),
                n_shards=4, **kwargs):
    store = ShardedFilterStore(factory, n_shards=n_shards, **kwargs)
    store.add_batch(MEMBERS)
    return store


def reforge(blob: bytes, mutate_header) -> bytes:
    """Rewrite a snapshot's JSON header and re-sign the digest.

    ``mutate_header(dict)`` edits the decoded header in place; the
    payload is untouched, so the result is a *validly signed* blob with
    forged metadata — the shape of attack the header fields themselves
    (not the digest) must defend against.
    """
    import hashlib

    _, header_len = struct.unpack("<HI", blob[4:10])
    header = json.loads(blob[10 : 10 + header_len])
    mutate_header(header)
    new_header = json.dumps(header, sort_keys=True).encode()
    payload = blob[10 + header_len + 16 :]
    digest = hashlib.blake2b(new_header + payload, digest_size=16).digest()
    return (blob[:4] + struct.pack("<HI", 1, len(new_header))
            + new_header + digest + payload)


class TestRoundTrip:
    @pytest.mark.parametrize("factory", [
        pytest.param(lambda s: BloomFilter(m=8192, k=6), id="bf"),
        pytest.param(lambda s: ShiftingBloomFilter(m=8192, k=8),
                     id="shbf_m"),
        pytest.param(lambda s: OneMemoryBloomFilter(m=8192, k=8),
                     id="one_mem_bf"),
    ])
    def test_restore_is_bit_identical_across_all_shards(self, factory):
        original = build_store(factory=factory)
        clone = ShardedFilterStore.restore(original.snapshot())
        assert clone.n_shards == original.n_shards
        assert clone.router.is_compatible(original.router)
        for ours, theirs in zip(clone.shards, original.shards):
            assert type(ours) is type(theirs)
            assert ours.bits.to_bytes() == theirs.bits.to_bytes()
            assert ours.n_items == theirs.n_items
        # the acceptance bar: restored verdicts are bit-identical
        assert clone.query_batch(PROBES).tolist() \
            == original.query_batch(PROBES).tolist()

    def test_router_seed_round_trips(self):
        original = build_store(router=ShardRouter(4, seed=123))
        clone = ShardedFilterStore.restore(original.snapshot())
        assert clone.router.seed == 123

    def test_module_level_functions_match_methods(self):
        store = build_store()
        assert persistence.load_target(
            persistence.dumps(store)).query_batch(PROBES).tolist() \
            == store.query_batch(PROBES).tolist()


class TestFamilyRoundTrip:
    """Snapshots carry the hash-family kind + seed: a restore hashes —
    and therefore answers — identically whatever family the filters
    (and the router) were wired with."""

    @pytest.mark.parametrize("family_maker,kind", [
        pytest.param(lambda: VectorizedFamily(seed=5), "vector64",
                     id="vector64"),
        pytest.param(lambda: Blake2Family(seed=5, batch_lanes=False),
                     "blake2b-per-index", id="blake2b-per-index"),
    ])
    def test_single_filter_family_round_trips(self, family_maker, kind):
        original = ShiftingBloomFilter(m=8192, k=8, family=family_maker())
        original.add_batch(MEMBERS)
        clone = persistence.loads(persistence.dumps(original))
        assert family_spec(clone.family) == (kind, 5)
        assert clone.bits.to_bytes() == original.bits.to_bytes()
        assert clone.query_batch(PROBES).tolist() \
            == original.query_batch(PROBES).tolist()

    def test_store_of_vectorized_shards_round_trips(self):
        original = build_store(
            factory=lambda s: ShiftingBloomFilter(
                m=8192, k=8, family=VectorizedFamily(seed=9)),
            router=ShardRouter(4, seed=77, family_kind="vector64"))
        clone = ShardedFilterStore.restore(original.snapshot())
        assert clone.router.family_kind == "vector64"
        assert clone.router.seed == 77
        assert clone.router.is_compatible(original.router)
        for shard in clone.shards:
            assert family_spec(shard.family) == ("vector64", 9)
        assert clone.query_batch(PROBES).tolist() \
            == original.query_batch(PROBES).tolist()
        # byte-identical re-snapshot: the format is deterministic in
        # the family fields too
        assert clone.snapshot() == original.snapshot()

    def test_mixed_family_shards_round_trip(self):
        """Each shard blob carries its own family spec."""
        families = [Blake2Family(seed=1), VectorizedFamily(seed=2),
                    Blake2Family(seed=3), VectorizedFamily(seed=4)]
        original = build_store(
            factory=lambda s: ShiftingBloomFilter(
                m=8192, k=8, family=families[s]))
        clone = ShardedFilterStore.restore(original.snapshot())
        assert [family_spec(s.family) for s in clone.shards] == [
            ("blake2b", 1), ("vector64", 2), ("blake2b", 3),
            ("vector64", 4)]
        assert clone.query_batch(PROBES).tolist() \
            == original.query_batch(PROBES).tolist()

    def test_unknown_family_rejected_with_clear_error(self):
        """A blob declaring a family this build can't reconstruct must
        refuse loudly — restoring under a different family would not
        error, it would just answer wrongly."""
        blob = persistence.dumps(ShiftingBloomFilter(
            m=512, k=4, family=VectorizedFamily(seed=0)))
        forged = reforge(
            blob, lambda h: h.__setitem__("family", "quantum128"))
        with pytest.raises(ConfigurationError,
                           match="family 'quantum128'.*mis-hash"):
            persistence.loads(forged)

    def test_unknown_router_family_rejected(self):
        forged = reforge(
            build_store().snapshot(),
            lambda h: h.__setitem__("router_family", "quantum128"))
        with pytest.raises(ConfigurationError,
                           match="router family 'quantum128'"):
            persistence.load_target(forged)

    def test_legacy_header_without_family_is_blake2b(self):
        """Pre-registry blobs carry only a seed; they were always
        BLAKE2b lanes and must keep restoring that way."""
        original = BloomFilter(m=4096, k=6, family=Blake2Family(seed=13))
        original.add_batch(MEMBERS[:100])
        legacy = reforge(
            persistence.dumps(original),
            lambda h: h.__delitem__("family"))
        clone = persistence.loads(legacy)
        assert family_spec(clone.family) == ("blake2b", 13)
        assert clone.query_batch(MEMBERS[:100]).all()


class TestRejection:
    def test_bad_magic_rejected(self):
        with pytest.raises(ConfigurationError, match="magic"):
            persistence.load_target(b"NOPE" + b"\x00" * 64)

    def test_single_filter_blob_is_not_a_container(self):
        blob = persistence.dumps(ShiftingBloomFilter(m=512, k=4))
        with pytest.raises(ConfigurationError, match="magic"):
            ShardedFilterStore.restore(blob)

    def test_unsupported_version_rejected(self):
        blob = bytearray(build_store().snapshot())
        blob[4:6] = struct.pack("<H", 99)
        with pytest.raises(ConfigurationError, match="version"):
            persistence.load_target(bytes(blob))

    def test_corrupted_digest_rejected(self):
        blob = bytearray(build_store().snapshot())
        _, header_len = struct.unpack("<HI", blob[4:10])
        blob[10 + header_len] ^= 0xFF  # first digest byte
        with pytest.raises(ConfigurationError, match="integrity"):
            persistence.load_target(bytes(blob))

    def test_corrupted_payload_rejected(self):
        blob = bytearray(build_store().snapshot())
        blob[-1] ^= 0xFF
        with pytest.raises(ConfigurationError, match="integrity"):
            persistence.load_target(bytes(blob))

    def test_truncated_blob_rejected(self):
        blob = build_store().snapshot()
        # cuts inside the payload, the header, and the fixed 10-byte
        # prefix (the last would reach struct.unpack unguarded)
        for cut in (len(blob) - 1, len(blob) // 2, 30, 8, 5):
            with pytest.raises(ConfigurationError):
                persistence.load_target(blob[:cut])

    def test_truncated_single_filter_blob_rejected(self):
        blob = persistence.dumps(ShiftingBloomFilter(m=512, k=4))
        for cut in (len(blob) - 1, 20, 8, 5):
            with pytest.raises(ConfigurationError):
                persistence.loads(blob[:cut])

    def test_tampered_header_rejected(self):
        """Rewriting the header (e.g. lying about blob sizes) breaks the
        digest even when the payload is untouched."""
        blob = build_store().snapshot()
        _, header_len = struct.unpack("<HI", blob[4:10])
        header = json.loads(blob[10 : 10 + header_len])
        header["blob_bytes"][0] -= 1
        new_header = json.dumps(header, sort_keys=True).encode()
        forged = (blob[:4] + struct.pack("<HI", 1, len(new_header))
                  + new_header + blob[10 + header_len :])
        with pytest.raises(ConfigurationError):
            persistence.load_target(forged)


class TestCountingVariantsTypedError:
    """Satellite fix: counting variants now fail with a dedicated error
    type and an actionable message instead of the generic catch-all."""

    def test_counting_filter_raises_typed_error(self):
        filt = CountingShiftingBloomFilter(m=1024, k=8)
        with pytest.raises(UnsupportedSnapshotError,
                           match="counter array is DRAM-tier"):
            persistence.dumps(filt)

    def test_counting_baseline_raises_typed_error(self):
        from repro.baselines import CountingBloomFilter

        with pytest.raises(UnsupportedSnapshotError):
            persistence.dumps(CountingBloomFilter(m=1024, k=4))

    def test_typed_error_is_still_a_configuration_error(self):
        """Existing ``except ConfigurationError`` callers keep working."""
        assert issubclass(UnsupportedSnapshotError, ConfigurationError)

    def test_store_of_counting_shards_raises_typed_error(self):
        store = ShardedFilterStore(
            lambda s: CountingShiftingBloomFilter(m=1024, k=8), n_shards=2)
        with pytest.raises(UnsupportedSnapshotError):
            store.snapshot()

    def test_unknown_type_keeps_generic_error(self):
        with pytest.raises(ConfigurationError) as excinfo:
            persistence.dumps(object())
        assert not isinstance(excinfo.value, UnsupportedSnapshotError)
