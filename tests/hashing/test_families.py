"""Tests for the hash families, the family registry and basic vetting."""

import pytest

from repro.errors import ConfigurationError
from repro.hashing import (
    FAMILY_KINDS,
    Blake2Family,
    DoubleHashingFamily,
    VectorizedFamily,
    bit_balance_report,
    default_family,
    family_spec,
    make_family,
    vet_family,
)


class TestBlake2Family:
    def test_deterministic(self):
        a, b = Blake2Family(seed=1), Blake2Family(seed=1)
        assert a.hash(5, "flow") == b.hash(5, "flow")

    def test_indices_decorrelated(self):
        fam = Blake2Family()
        values = [fam.hash(i, b"x") for i in range(32)]
        assert len(set(values)) == 32

    def test_seeds_decorrelated(self):
        assert Blake2Family(seed=0).hash(0, b"x") != Blake2Family(
            seed=1).hash(0, b"x")

    def test_values_batch_matches_single(self):
        fam = Blake2Family(seed=9)
        # spans two digest groups (lanes 5..12)
        batch = fam.values(b"element", 8, start=5)
        singles = [fam.hash_bytes(i, b"element") for i in range(5, 13)]
        assert batch == singles

    def test_values_empty(self):
        assert Blake2Family().values(b"e", 0) == []

    def test_int_elements_supported(self):
        fam = Blake2Family()
        assert fam.hash(0, 12345) == fam.hash(0, 12345)
        assert fam.hash(0, 12345) != fam.hash(0, 12346)

    def test_bool_distinct_from_int(self):
        fam = Blake2Family()
        assert fam.hash(0, True) != fam.hash(0, 1)

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            Blake2Family().hash(0, 1.5)

    def test_negative_index_rejected(self):
        with pytest.raises(ConfigurationError):
            Blake2Family().hash(-1, b"x")

    def test_default_family_is_blake2(self):
        assert isinstance(default_family(), Blake2Family)

    def test_positions_in_range(self):
        fam = Blake2Family()
        for m in (7, 97, 22008):
            for pos in fam.positions(b"abc", 8, m):
                assert 0 <= pos < m


class TestDoubleHashingFamily:
    def test_arithmetic_progression(self):
        fam = DoubleHashingFamily()
        h0 = fam.hash(0, b"x")
        h1 = fam.hash(1, b"x")
        h2 = fam.hash(2, b"x")
        mask = (1 << 64) - 1
        step = (h1 - h0) & mask
        assert (h1 + step) & mask == h2

    def test_step_is_odd(self):
        fam = DoubleHashingFamily()
        h0, h1 = fam.values(b"y", 2)
        assert ((h1 - h0) & ((1 << 64) - 1)) % 2 == 1

    def test_values_matches_hash(self):
        fam = DoubleHashingFamily(seed=4)
        assert fam.values(b"z", 6, start=1) == [
            fam.hash(i, b"z") for i in range(1, 7)
        ]

    def test_custom_base(self):
        base = Blake2Family(seed=11)
        fam = DoubleHashingFamily(base=base)
        assert fam.base is base
        assert "blake2b" in fam.name


class TestVectorizedFamily:
    def test_deterministic(self):
        a, b = VectorizedFamily(seed=1), VectorizedFamily(seed=1)
        assert a.hash(5, "flow") == b.hash(5, "flow")

    def test_indices_decorrelated(self):
        fam = VectorizedFamily()
        values = [fam.hash(i, b"x") for i in range(32)]
        assert len(set(values)) == 32

    def test_seeds_decorrelated(self):
        assert VectorizedFamily(seed=0).hash(0, b"x") != VectorizedFamily(
            seed=1).hash(0, b"x")

    def test_short_long_boundary(self):
        """32 bytes folds inline, 33 takes the digest fallback — both
        must be stable and distinct from each other."""
        fam = VectorizedFamily(seed=2)
        at = fam.hash(0, b"q" * 32)
        over = fam.hash(0, b"q" * 33)
        assert at == fam.hash(0, b"q" * 32)
        assert over == fam.hash(0, b"q" * 33)
        assert at != over

    def test_trailing_zero_bytes_distinct(self):
        """Zero padding must not alias ``b"a"`` with ``b"a\\x00"``."""
        fam = VectorizedFamily()
        assert fam.hash(0, b"a") != fam.hash(0, b"a\x00")
        assert fam.hash(0, b"") != fam.hash(0, b"\x00")

    def test_mixed_element_types(self):
        fam = VectorizedFamily()
        assert fam.hash(0, "abc") == fam.hash(0, b"abc")
        assert fam.hash(0, 12345) != fam.hash(0, 12346)
        assert fam.hash(0, True) != fam.hash(0, 1)

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            VectorizedFamily().hash(0, 1.5)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigurationError):
            VectorizedFamily(seed=-1)


class TestFamilyRegistry:
    @pytest.mark.parametrize("kind", FAMILY_KINDS)
    def test_make_then_spec_round_trips(self, kind):
        family = make_family(kind, seed=9)
        assert family_spec(family) == (kind, 9)
        rebuilt = make_family(*family_spec(family))
        assert rebuilt.hash(3, b"probe") == family.hash(3, b"probe")

    def test_kinds_tuple_matches_builder_table(self):
        """FAMILY_KINDS, the builder table and family_spec must stay in
        lockstep; the round-trip test above catches a missing spec
        branch, this catches a missing/extra builder entry."""
        from repro.hashing.family import _builders

        assert set(FAMILY_KINDS) == set(_builders())

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown hash family"):
            make_family("sha0", seed=0)

    def test_unregistered_instance_rejected(self):
        class Anonymous(Blake2Family):
            pass

        with pytest.raises(ConfigurationError):
            family_spec(Anonymous())

    def test_composite_over_custom_base_rejected(self):
        family = DoubleHashingFamily(
            base=Blake2Family(seed=1, batch_lanes=False))
        with pytest.raises(ConfigurationError, match="not seed-"):
            family_spec(family)

    def test_blake_modes_are_distinct_kinds(self):
        """Lane and per-index modes hash differently, so the registry
        must keep them apart or a snapshot restore would mis-hash."""
        assert family_spec(Blake2Family(seed=4)) == ("blake2b", 4)
        assert family_spec(Blake2Family(seed=4, batch_lanes=False)) \
            == ("blake2b-per-index", 4)

    def test_default_family_kind_argument(self):
        """The default is fixed on seeded BLAKE2b lanes; another kind is
        chosen with ``make_family``, not through ``default_family``."""
        assert family_spec(default_family(seed=3)) == ("blake2b", 3)
        with pytest.raises(TypeError):
            default_family(kind="vector64")


class TestRandomnessVetting:
    @pytest.fixture(scope="class")
    def sample(self):
        return [b"flow-%06d" % i for i in range(4000)]

    def test_blake2_passes(self, sample):
        report = bit_balance_report(Blake2Family(), sample, index=0)
        assert report.passed
        assert report.samples == 4000
        assert len(report.frequencies) == 64

    def test_frequencies_near_half(self, sample):
        report = bit_balance_report(Blake2Family(), sample, index=3)
        assert all(0.4 < f < 0.6 for f in report.frequencies)

    def test_biased_family_fails(self, sample):
        class BiasedFamily(Blake2Family):
            """Forces the low output bit to 1 — must fail the vetting."""

            @property
            def name(self):
                return "biased"

            def hash_bytes(self, index, data):
                return super().hash_bytes(index, data) | 1

        report = bit_balance_report(BiasedFamily(), sample, index=0)
        assert not report.passed
        assert report.worst_bit == 0
        assert report.max_deviation == pytest.approx(0.5)

    def test_vet_family_reports_all_indices(self, sample):
        reports = vet_family(Blake2Family(), sample, indices=range(4))
        assert len(reports) == 4
        assert all(r.passed for r in reports)

    def test_empty_sample_rejected(self):
        with pytest.raises(ConfigurationError):
            bit_balance_report(Blake2Family(), [])
