"""Tests for filter snapshots, unions and cardinality estimation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import persistence
from repro.baselines import BloomFilter, OneMemoryBloomFilter
from repro.bitarray import AccessStats, MemoryModel
from repro.core import ShiftingBloomFilter
from repro.errors import ConfigurationError
from repro.hashing import Blake2Family, FNV1aFamily
from tests.conftest import make_elements


class TestSnapshots:
    @pytest.mark.parametrize("factory", [
        lambda: BloomFilter(m=2048, k=5),
        lambda: ShiftingBloomFilter(m=2048, k=6),
        lambda: OneMemoryBloomFilter(m=2048, k=6),
    ])
    def test_roundtrip_preserves_answers(self, factory, elements):
        original = factory()
        original.update(elements)
        clone = persistence.loads(persistence.dumps(original))
        assert type(clone) is type(original)
        assert clone.n_items == original.n_items
        probes = elements + make_elements(500, "probe")
        for element in probes:
            assert clone.query(element) == original.query(element)

    def test_shbf_w_bar_preserved(self):
        original = ShiftingBloomFilter(m=512, k=4, w_bar=20)
        clone = persistence.loads(persistence.dumps(original))
        assert clone.w_bar == 20

    def test_family_seed_preserved(self):
        original = BloomFilter(m=512, k=4, family=Blake2Family(seed=77))
        original.add(b"x")
        clone = persistence.loads(persistence.dumps(original))
        assert b"x" in clone
        assert clone.family.seed == 77

    def test_bad_magic_rejected(self):
        with pytest.raises(ConfigurationError):
            persistence.loads(b"NOPE" + b"\x00" * 32)

    def test_corruption_detected(self):
        blob = bytearray(persistence.dumps(BloomFilter(m=512, k=4)))
        blob[-1] ^= 0xFF
        with pytest.raises(ConfigurationError):
            persistence.loads(bytes(blob))

    def test_registry_family_round_trips(self):
        """Any registry family snapshots now, not just BLAKE2b."""
        filt = BloomFilter(m=512, k=4, family=FNV1aFamily(seed=3))
        filt.add(b"x")
        clone = persistence.loads(persistence.dumps(filt))
        assert type(clone.family) is FNV1aFamily
        assert clone.family.seed == 3
        assert b"x" in clone

    def test_non_seed_family_rejected(self):
        from repro.hashing import Blake2Family, DoubleHashingFamily

        # A composite over a custom base has no (kind, seed) spec.
        family = DoubleHashingFamily(base=Blake2Family(seed=1,
                                                       batch_lanes=False))
        filt = BloomFilter(m=512, k=4, family=family)
        with pytest.raises(ConfigurationError):
            persistence.dumps(filt)

    def test_unsupported_type_rejected(self):
        with pytest.raises(ConfigurationError):
            persistence.dumps(object())


class TestUnion:
    @pytest.mark.parametrize("cls", [BloomFilter, ShiftingBloomFilter])
    def test_union_contains_both_sides(self, cls):
        a = cls(m=4096, k=6)
        b = cls(m=4096, k=6)
        left = make_elements(100, "left")
        right = make_elements(100, "right")
        a.update(left)
        b.update(right)
        merged = a.union(b)
        assert all(e in merged for e in left + right)

    @pytest.mark.parametrize("cls", [BloomFilter, ShiftingBloomFilter])
    def test_union_equals_direct_build(self, cls):
        """OR of the arrays == filter built from the union directly."""
        family = Blake2Family(seed=5)
        a = cls(m=4096, k=6, family=family)
        b = cls(m=4096, k=6, family=family)
        direct = cls(m=4096, k=6, family=family)
        left = make_elements(80, "left")
        right = make_elements(80, "right")
        a.update(left)
        b.update(right)
        direct.update(left + right)
        assert a.union(b).bits.to_bytes() == direct.bits.to_bytes()

    @pytest.mark.parametrize("make", [
        pytest.param(lambda fam: ShiftingBloomFilter(
            m=4096, k=8, word_bits=32, family=fam), id="shbf_m_w32"),
        pytest.param(lambda fam: ShiftingBloomFilter(
            m=4096, k=8, family=fam,
            memory=MemoryModel(word_bits=16, tier="dram")),
            id="shbf_m_mem16_dram"),
        pytest.param(lambda fam: BloomFilter(
            m=4096, k=6, family=fam,
            memory=MemoryModel(word_bits=32, tier="dram")),
            id="bf_mem32_dram"),
    ])
    def test_union_keeps_the_memory_model(self, make):
        """The union bills in the sources' word size and tier, exactly
        like a filter built from both sets directly."""
        family = Blake2Family(seed=5)
        a, b, direct = make(family), make(family), make(family)
        left = make_elements(80, "left")
        right = make_elements(80, "right")
        a.add_batch(left)
        b.add_batch(right)
        direct.add_batch(left + right)
        merged = a.union(b)
        assert merged.memory.word_bits == a.memory.word_bits
        assert merged.memory.tier == a.memory.tier
        assert merged.memory.stats == AccessStats()
        assert merged.bits.to_bytes() == direct.bits.to_bytes()
        assert merged.n_items == direct.n_items
        probes = left + make_elements(200, "probe")
        direct.memory.reset()
        assert merged.query_batch(probes).tolist() \
            == direct.query_batch(probes).tolist()
        assert merged.memory.stats == direct.memory.stats

    def test_incompatible_geometry_rejected(self):
        with pytest.raises(ConfigurationError):
            BloomFilter(m=512, k=4).union(BloomFilter(m=512, k=5))
        with pytest.raises(ConfigurationError):
            BloomFilter(m=512, k=4).union(BloomFilter(m=1024, k=4))

    def test_incompatible_family_rejected(self):
        a = BloomFilter(m=512, k=4, family=Blake2Family(seed=1))
        b = BloomFilter(m=512, k=4, family=Blake2Family(seed=2))
        with pytest.raises(ConfigurationError):
            a.union(b)

    def test_shbf_incompatible_w_bar_rejected(self):
        a = ShiftingBloomFilter(m=512, k=4, w_bar=20)
        b = ShiftingBloomFilter(m=512, k=4, w_bar=57)
        with pytest.raises(ConfigurationError):
            a.union(b)


class TestCardinality:
    @pytest.mark.parametrize("cls", [BloomFilter, ShiftingBloomFilter])
    def test_estimate_tracks_truth(self, cls):
        filt = cls(m=16384, k=6)
        filt.update(make_elements(1000))
        assert filt.approximate_cardinality() == pytest.approx(
            1000, rel=0.1)

    def test_empty_filter_estimates_zero(self):
        assert BloomFilter(m=512, k=4).approximate_cardinality() == 0.0

    def test_saturated_filter_estimates_inf(self):
        import math

        filt = BloomFilter(m=8, k=1)
        filt.update(make_elements(200))
        assert filt.approximate_cardinality() == math.inf

    def test_intersection_estimate(self):
        family = Blake2Family(seed=3)
        a = BloomFilter(m=32768, k=6, family=family)
        b = BloomFilter(m=32768, k=6, family=family)
        shared = make_elements(500, "shared")
        a.update(shared + make_elements(500, "only-a"))
        b.update(shared + make_elements(500, "only-b"))
        assert a.intersection_cardinality(b) == pytest.approx(
            500, rel=0.25)

    def test_disjoint_intersection_near_zero(self):
        family = Blake2Family(seed=4)
        a = BloomFilter(m=32768, k=6, family=family)
        b = BloomFilter(m=32768, k=6, family=family)
        a.update(make_elements(400, "only-a"))
        b.update(make_elements(400, "only-b"))
        assert a.intersection_cardinality(b) < 60


@settings(max_examples=15, deadline=None)
@given(
    left=st.sets(st.binary(min_size=1, max_size=8), max_size=30),
    right=st.sets(st.binary(min_size=1, max_size=8), max_size=30),
)
def test_property_union_no_false_negatives(left, right):
    a = ShiftingBloomFilter(m=2048, k=4)
    b = ShiftingBloomFilter(m=2048, k=4)
    for element in left:
        a.add(element)
    for element in right:
        b.add(element)
    merged = a.union(b)
    assert all(merged.query(e) for e in left | right)


@settings(max_examples=15, deadline=None)
@given(members=st.sets(st.binary(min_size=1, max_size=12), max_size=40))
def test_property_snapshot_roundtrip(members):
    filt = ShiftingBloomFilter(m=1024, k=4)
    for element in members:
        filt.add(element)
    clone = persistence.loads(persistence.dumps(filt))
    assert all(clone.query(e) for e in members)
    assert clone.bits.to_bytes() == filt.bits.to_bytes()