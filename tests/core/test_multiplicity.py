"""Tests for ShBF_x and CShBF_x — multiplicity shifting filters."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    CountingShiftingMultiplicityFilter,
    ShiftingMultiplicityFilter,
)
from repro.errors import CapacityError, ConfigurationError
from tests.conftest import make_elements


class TestStaticFilter:
    def test_exact_on_sparse_filter(self):
        filt = ShiftingMultiplicityFilter(m=8192, k=4, c_max=16)
        counts = {(b"f%d" % i): (i % 16) + 1 for i in range(100)}
        filt.build(counts)
        correct = sum(
            1 for e, c in counts.items() if filt.estimate(e) == c
        )
        assert correct / len(counts) > 0.95

    def test_true_count_always_candidate(self):
        """No false negatives: c(e) is always among the candidates."""
        filt = ShiftingMultiplicityFilter(m=2048, k=4, c_max=8)
        counts = {(b"f%d" % i): (i % 8) + 1 for i in range(150)}
        filt.build(counts)
        for e, c in counts.items():
            assert c in filt.query(e).candidates

    def test_largest_policy_upper_bounds(self):
        filt = ShiftingMultiplicityFilter(
            m=1024, k=4, c_max=8, report="largest")
        counts = {(b"f%d" % i): (i % 8) + 1 for i in range(200)}
        filt.build(counts)
        for e, c in counts.items():
            assert filt.estimate(e) >= c

    def test_smallest_policy_lower_bounds(self):
        filt = ShiftingMultiplicityFilter(
            m=1024, k=4, c_max=8, report="smallest")
        counts = {(b"f%d" % i): (i % 8) + 1 for i in range(200)}
        filt.build(counts)
        for e, c in counts.items():
            assert 1 <= filt.estimate(e) <= c

    def test_absent_mostly_zero(self, negatives):
        filt = ShiftingMultiplicityFilter(m=8192, k=4, c_max=8)
        filt.build({e: 3 for e in make_elements(100)})
        zero = sum(1 for e in negatives if filt.estimate(e) == 0)
        assert zero / len(negatives) > 0.9

    def test_count_above_c_max_rejected(self):
        filt = ShiftingMultiplicityFilter(m=1024, k=4, c_max=4)
        with pytest.raises(ConfigurationError):
            filt.add(b"x", count=5)

    def test_reencoding_rejected(self):
        filt = ShiftingMultiplicityFilter(m=1024, k=4, c_max=4)
        filt.add(b"x", count=2)
        with pytest.raises(ConfigurationError):
            filt.add(b"x", count=3)

    def test_true_count_bookkeeping(self):
        filt = ShiftingMultiplicityFilter(m=1024, k=4, c_max=4)
        filt.add(b"x", count=2)
        assert filt.true_count(b"x") == 2
        assert filt.true_count(b"y") == 0

    def test_invalid_report_policy(self):
        with pytest.raises(ConfigurationError):
            ShiftingMultiplicityFilter(m=64, k=2, c_max=4, report="median")

    def test_slack_sizing(self):
        filt = ShiftingMultiplicityFilter(m=1024, k=4, c_max=57)
        assert filt.size_bits == 1024 + 56


class TestQueryCost:
    def test_access_cost_is_k_windows(self):
        """§5.2: k * ceil(c/w) accesses; c=57 fits one word per probe."""
        filt = ShiftingMultiplicityFilter(m=8192, k=6, c_max=57)
        filt.add(b"x", count=9)
        filt.memory.reset()
        filt.query(b"x")
        assert filt.memory.stats.read_ops == 6
        assert filt.memory.stats.read_words <= 12  # byte alignment may split

    def test_wide_c_needs_multiple_words(self):
        filt = ShiftingMultiplicityFilter(m=8192, k=2, c_max=200)
        filt.add(b"x", count=1)
        filt.memory.reset()
        filt.query(b"x")
        assert filt.memory.stats.read_words >= 2 * 3  # ceil(200/64) per probe

    def test_absent_query_early_exits(self, negatives):
        filt = ShiftingMultiplicityFilter(m=32768, k=8, c_max=57)
        filt.build({e: 2 for e in make_elements(50)})
        filt.memory.reset()
        for e in negatives[:200]:
            filt.query(e)
        # sparse filter: the candidate mask dies after ~1 window
        assert filt.memory.stats.read_ops / 200 < 2.5


class TestCountingHashTable:
    """§5.3.2: hash-table-backed updates, no false negatives."""

    def test_incremental_counting(self):
        filt = CountingShiftingMultiplicityFilter(m=2048, k=4, c_max=8)
        for _ in range(5):
            filt.add(b"x")
        assert filt.true_count(b"x") == 5
        assert filt.estimate(b"x") == 5

    def test_remove_decrements(self):
        filt = CountingShiftingMultiplicityFilter(m=2048, k=4, c_max=8)
        filt.update([b"x"] * 4)
        filt.remove(b"x")
        assert filt.estimate(b"x") == 3

    def test_remove_last_occurrence(self):
        filt = CountingShiftingMultiplicityFilter(m=2048, k=4, c_max=8)
        filt.add(b"x")
        filt.remove(b"x")
        assert filt.estimate(b"x") == 0
        assert filt.true_count(b"x") == 0

    def test_remove_absent_raises(self):
        filt = CountingShiftingMultiplicityFilter(m=2048, k=4, c_max=8)
        with pytest.raises(KeyError):
            filt.remove(b"never")

    def test_capacity_error_beyond_c_max(self):
        filt = CountingShiftingMultiplicityFilter(m=2048, k=4, c_max=3)
        filt.update([b"x"] * 3)
        with pytest.raises(CapacityError):
            filt.add(b"x")

    def test_single_encoding_invariant(self):
        """One element occupies k bits regardless of its multiplicity."""
        filt = CountingShiftingMultiplicityFilter(m=4096, k=4, c_max=20)
        for _ in range(17):
            filt.add(b"x")
        assert filt.bits.count() == 4

    def test_no_false_negatives_under_churn(self):
        filt = CountingShiftingMultiplicityFilter(m=8192, k=4, c_max=16)
        members = make_elements(100, "flow")
        for rounds in range(3):
            for e in members:
                filt.add(e)
        for e in members[:50]:
            filt.remove(e)
        for i, e in enumerate(members):
            expected = 2 if i < 50 else 3
            assert expected in filt.query(e).candidates
        assert filt.check_synchronised()

    @settings(max_examples=15, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(st.booleans(), st.integers(0, 7)), max_size=40
        )
    )
    def test_property_tracks_reference_counter(self, ops):
        filt = CountingShiftingMultiplicityFilter(m=2048, k=4, c_max=40)
        reference: dict[int, int] = {}
        for insert, key in ops:
            element = b"key-%d" % key
            if insert:
                filt.add(element)
                reference[key] = reference.get(key, 0) + 1
            elif reference.get(key, 0) > 0:
                filt.remove(element)
                reference[key] -= 1
        for key, count in reference.items():
            answer = filt.query(b"key-%d" % key)
            if count > 0:
                assert count in answer.candidates
            assert filt.true_count(b"key-%d" % key) == count


class TestCountingSelfQuery:
    """§5.3.1: self-query updates — cheaper, but can false-negate."""

    def test_counts_correctly_when_sparse(self):
        filt = CountingShiftingMultiplicityFilter(
            m=8192, k=4, c_max=16, source="self_query")
        for _ in range(6):
            filt.add(b"x")
        assert filt.estimate(b"x") == 6

    def test_no_crash_under_heavy_collisions(self):
        """Dense filter: self-query updates corrupt gracefully (no raise)."""
        filt = CountingShiftingMultiplicityFilter(
            m=256, k=4, c_max=8, source="self_query")
        for e in make_elements(120, "crowd"):
            try:
                filt.add(e)
            except CapacityError:
                pass  # a false positive pushed the estimate to c_max
        # structure remains queryable
        filt.query(b"anything")
        # corrupted counts still keep B[i] set iff C[i] > 0
        assert filt.check_synchronised()

    def test_invalid_source_rejected(self):
        with pytest.raises(ConfigurationError):
            CountingShiftingMultiplicityFilter(
                m=64, k=2, c_max=4, source="oracle")
