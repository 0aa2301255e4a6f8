"""The snapshot codec: pinned bytes, kind dispatch and total decoding.

* **Golden bytes** — the sha256 of :func:`repro.persistence.dumps` for
  five fixed, seeded targets (one per filter type and one per container
  kind).  The digests pin the on-disk/wire format: any change to the
  framing, the header fields or their encoding shows up here first.
* **Dispatch** — :func:`~repro.persistence.load_target` rebuilds
  whatever ``dumps`` wrote; the strict loaders refuse the wrong kind.
* **Totality** — every byte string, including digest-valid containers
  with hostile headers, decodes to a value or raises
  :class:`~repro.errors.ConfigurationError`; nothing else escapes.
"""

from __future__ import annotations

import hashlib
import json
import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import persistence
from repro.baselines import BloomFilter, OneMemoryBloomFilter
from repro.bitarray import BitArray
from repro.core import ShiftingBloomFilter
from repro.errors import ConfigurationError, NotASnapshotError
from repro.hashing import Blake2Family, VectorizedFamily
from repro.store import GenerationalStore, ShardedFilterStore, ShardRouter
from tests.conftest import make_elements

MEMBERS = make_elements(600, "golden")
PROBES = MEMBERS + make_elements(600, "absent")


def golden_shbf_m():
    filt = ShiftingBloomFilter(m=4096, k=8, family=VectorizedFamily(seed=11))
    filt.add_batch(MEMBERS[:300])
    return filt


def golden_bf():
    filt = BloomFilter(m=4096, k=6, family=Blake2Family(seed=5))
    filt.add_batch(MEMBERS[:300])
    return filt


def golden_one_mem_bf():
    filt = OneMemoryBloomFilter(m=4096, k=8, family=Blake2Family(seed=7))
    filt.add_batch(MEMBERS[:300])
    return filt


def golden_store():
    store = ShardedFilterStore(
        lambda shard: ShiftingBloomFilter(
            m=2048, k=8, family=VectorizedFamily(seed=shard)),
        n_shards=3, router=ShardRouter(3, seed=21))
    store.add_batch(MEMBERS)
    return store


def golden_ring():
    ring = GenerationalStore(
        lambda seq: BloomFilter(m=2048, k=6, family=Blake2Family(seed=seq)),
        generations=3, rotate_after_items=100, clock=lambda: 0.0)
    for start in range(0, 250, 50):
        ring.add_batch(MEMBERS[start:start + 50])
    assert ring.rotations == 2
    return ring


GOLDEN = [
    pytest.param(golden_shbf_m, "39d29b5f4baee38ce4314b90ef0b50e7"
                 "e892ffe5c8e51c56d035ff38d5b2cd8e", id="shbf_m-vector64"),
    pytest.param(golden_bf, "7483cc554996e2869fe397710362cc8f"
                 "10176f87a6e0d06e95c22325fa8d63e5", id="bf-blake2b"),
    pytest.param(golden_one_mem_bf, "fccb778ed5bc893a846f081e706e9f11"
                 "090e6e6436df8bf849d9a1ae35332e0a", id="one_mem_bf"),
    pytest.param(golden_store, "ab7a8eb4dca05243d83b28e6276d7585"
                 "064861094de53bfdcf5314cfcd573e36", id="store-3-shards"),
    pytest.param(golden_ring, "1f30f26caedbdd48ba1d6ee1b50049e8"
                 "6539957e1dfe25e5cd7922b01e7b26f7", id="ring-3-generations"),
]


def frame(magic: bytes, header_bytes: bytes, payload: bytes) -> bytes:
    """A correctly framed, digest-valid blob around arbitrary parts."""
    digest = hashlib.blake2b(header_bytes + payload, digest_size=16).digest()
    return (magic + struct.pack("<HI", 1, len(header_bytes))
            + header_bytes + digest + payload)


def unframe(blob: bytes):
    _, header_len = struct.unpack("<HI", blob[4:10])
    return (blob[:4], json.loads(blob[10:10 + header_len]),
            blob[10 + header_len + 16:])


class TestGoldenBytes:
    @pytest.mark.parametrize("build,sha256", GOLDEN)
    def test_dumps_is_pinned(self, build, sha256):
        assert hashlib.sha256(persistence.dumps(build())).hexdigest() \
            == sha256

    @pytest.mark.parametrize("build,sha256", GOLDEN)
    def test_pinned_blob_loads_and_answers_identically(self, build, sha256):
        original = build()
        blob = persistence.dumps(original)
        clone = persistence.load_target(blob)
        assert type(clone) is type(original)
        assert persistence.dumps(clone) == blob
        assert clone.query_batch(PROBES).tolist() \
            == original.query_batch(PROBES).tolist()


class TestDispatch:
    def test_loads_refuses_containers(self):
        for blob in (golden_store().snapshot(), golden_ring().snapshot()):
            with pytest.raises(ConfigurationError, match="magic"):
                persistence.loads(blob)

    def test_store_restore_refuses_other_kinds(self):
        for blob in (persistence.dumps(golden_bf()),
                     golden_ring().snapshot()):
            with pytest.raises(ConfigurationError, match="magic"):
                ShardedFilterStore.restore(blob)

    def test_ring_restore_refuses_other_kinds(self):
        for blob in (persistence.dumps(golden_bf()),
                     golden_store().snapshot()):
            with pytest.raises(ConfigurationError, match="magic"):
                GenerationalStore.restore(blob)

    def test_ring_factory_and_clock_pass_through(self):
        ring = persistence.load_target(
            golden_ring().snapshot(),
            factory=lambda seq: BloomFilter(m=2048, k=6),
            clock=lambda: 5.0)
        assert ring.generation_stats()[0].age_s == 0.0
        ring.rotate()
        assert ring.rotations == 1

    def test_unknown_magic_is_typed(self):
        with pytest.raises(NotASnapshotError, match="bad magic"):
            persistence.load_target(b"NOPE" + bytes(64))
        assert issubclass(NotASnapshotError, ConfigurationError)

    def test_one_mem_bf_keeps_words_per_element(self):
        """A multi-word 1Mem-BF used to restore with one word per
        element and answer 499 of its 500 members absent."""
        filt = OneMemoryBloomFilter(m=8192, k=8, words_per_element=2,
                                    family=Blake2Family(seed=7))
        filt.add_batch(MEMBERS[:500])
        blob = persistence.dumps(filt)
        assert unframe(blob)[1]["words_per_element"] == 2
        clone = persistence.load_target(blob)
        assert clone.words_per_element == 2
        assert clone.query_batch(MEMBERS[:500]).all()
        assert clone.query_batch(PROBES).tolist() \
            == filt.query_batch(PROBES).tolist()
        assert persistence.dumps(clone) == blob
        # one word per element stays the default, so it is never written
        assert "words_per_element" not in unframe(
            persistence.dumps(golden_one_mem_bf()))[1]

    def test_filter_header_round_trips_zero_copy(self):
        original = golden_shbf_m()
        buffer = bytearray(original.bits.to_bytes())
        attached = persistence.filter_from_header(
            persistence.filter_header(original), memoryview(buffer),
            BitArray.attach_readonly)
        assert attached.bits.readonly
        assert attached.query_batch(PROBES).tolist() \
            == original.query_batch(PROBES).tolist()


def reforged(blob: bytes, mutate) -> bytes:
    magic, header, payload = unframe(blob)
    header = mutate(header)
    return frame(magic, json.dumps(header).encode(), payload)


class TestMalformedHeaders:
    """Digest-valid blobs whose headers lie: each used to leak a
    non-configuration exception out of the loader."""

    def test_missing_type(self):
        blob = reforged(persistence.dumps(golden_bf()),
                        lambda h: {k: v for k, v in h.items()
                                   if k != "type"})
        with pytest.raises(ConfigurationError, match="type"):
            persistence.loads(blob)

    def test_header_is_a_list(self):
        blob = reforged(persistence.dumps(golden_bf()), lambda h: [])
        with pytest.raises(ConfigurationError, match="not a JSON object"):
            persistence.loads(blob)

    def test_header_is_not_json(self):
        _, _, payload = unframe(persistence.dumps(golden_bf()))
        with pytest.raises(ConfigurationError, match="JSON"):
            persistence.loads(frame(b"SHBF", b"\xff{not json", payload))

    def test_blob_bytes_is_not_a_list(self):
        blob = reforged(golden_store().snapshot(),
                        lambda h: dict(h, blob_bytes=5))
        with pytest.raises(ConfigurationError, match="blob_bytes"):
            persistence.load_target(blob)

    def test_oversized_geometry_is_refused_before_allocating(self):
        """A forged ``m`` must not make the loader allocate more than
        the payload could ever fill (2**40 bits would be 128 GiB)."""
        for kind in ("m", "w_bar"):
            blob = reforged(persistence.dumps(golden_shbf_m()),
                            lambda h: dict(h, **{kind: 2 ** 40}))
            with pytest.raises(ConfigurationError, match="-byte payload"):
                persistence.loads(blob)
        blob = reforged(persistence.dumps(golden_one_mem_bf()),
                        lambda h: dict(h, word_bits=2 ** 40))
        with pytest.raises(ConfigurationError, match="-byte payload"):
            persistence.loads(blob)
        # each field fits the payload, but their word group does not
        blob = reforged(persistence.dumps(golden_one_mem_bf()),
                        lambda h: dict(h, word_bits=4096,
                                       words_per_element=4096))
        with pytest.raises(ConfigurationError, match="-byte payload"):
            persistence.loads(blob)

    def test_ring_triggers_are_validated(self):
        blob = reforged(golden_ring().snapshot(),
                        lambda h: dict(h, rotate_after_items=-1))
        with pytest.raises(ConfigurationError, match="rotate_after_items"):
            persistence.load_target(blob)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False) | st.text(max_size=12),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=12), children, max_size=4),
    max_leaves=8)

#: Small valid targets whose headers the fuzzer starts from.
SEEDS = {
    "filter": persistence.dumps(golden_shbf_m()),
    "one_mem_bf": persistence.dumps(golden_one_mem_bf()),
    "store": persistence.dumps(golden_store()),
    "ring": persistence.dumps(golden_ring()),
}


def decode_or_refuse(blob: bytes) -> None:
    """Every loader must return a value or raise ConfigurationError."""
    for load in (persistence.loads, persistence.load_target,
                 ShardedFilterStore.restore, GenerationalStore.restore):
        try:
            load(blob)
        except ConfigurationError:
            pass


@st.composite
def forged_blobs(draw):
    magic, header, payload = unframe(SEEDS[draw(st.sampled_from(
        sorted(SEEDS)))])
    if draw(st.booleans()):
        for key in draw(st.lists(st.sampled_from(sorted(header)),
                                 max_size=3, unique=True)):
            if draw(st.booleans()):
                del header[key]
            else:
                header[key] = draw(JSON_VALUES)
    else:
        header = draw(JSON_VALUES)
    header_bytes = json.dumps(header).encode()
    if draw(st.booleans()):
        header_bytes = draw(st.binary(max_size=32))
    payload = draw(st.sampled_from([
        payload, payload[:-1], payload + b"\x00", b""]))
    if draw(st.booleans()):
        payload = draw(st.binary(max_size=64))
    return frame(draw(st.sampled_from([magic, b"SHBF", b"SHBS", b"SHBG"])),
                 header_bytes, payload)


class TestTotalDecoding:
    @settings(max_examples=300, deadline=None)
    @given(blob=st.binary(max_size=128))
    def test_arbitrary_bytes(self, blob):
        decode_or_refuse(blob)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(blob=forged_blobs())
    def test_digest_valid_forged_headers(self, blob):
        decode_or_refuse(blob)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_filter_from_header_over_shared_buffers(self, data):
        """The shared-memory attach path decodes through the same
        function, so it inherits the same totality."""
        header = persistence.filter_header(golden_shbf_m())
        for key in data.draw(st.lists(st.sampled_from(sorted(header)),
                                      max_size=3, unique=True)):
            header[key] = data.draw(JSON_VALUES)
        payload = memoryview(bytes(data.draw(st.integers(0, 600))))
        try:
            persistence.filter_from_header(
                header, payload, BitArray.attach_readonly)
        except ConfigurationError:
            pass
