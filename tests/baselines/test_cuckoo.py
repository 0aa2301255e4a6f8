"""Tests for the cuckoo filter baseline."""

import pytest

from repro.baselines import CuckooFilter
from repro.errors import CapacityError
from repro.hashing.family import make_family
from tests.conftest import make_elements


class TestBasics:
    def test_no_false_negatives(self, elements):
        cf = CuckooFilter(capacity=400)
        cf.update(elements)
        assert all(e in cf for e in elements)

    def test_empty_rejects(self, negatives):
        cf = CuckooFilter(capacity=400)
        assert not any(e in cf for e in negatives)

    def test_delete(self):
        cf = CuckooFilter(capacity=100)
        cf.add(b"x")
        assert cf.remove(b"x")
        assert b"x" not in cf

    def test_delete_absent_returns_false(self):
        cf = CuckooFilter(capacity=100)
        assert not cf.remove(b"never")

    def test_delete_preserves_others(self, elements):
        cf = CuckooFilter(capacity=400)
        cf.update(elements)
        for e in elements[:50]:
            cf.remove(e)
        assert all(e in cf for e in elements[50:])

    def test_low_fpr_at_12_bit_fingerprints(self):
        members = make_elements(900, "m")
        probes = make_elements(50000, "p")
        cf = CuckooFilter(capacity=1000, fingerprint_bits=12)
        cf.update(members)
        fpr = sum(1 for e in probes if e in cf) / len(probes)
        # theory ~ 2 * 4 / 2^12 ~ 0.002
        assert fpr < 0.01

    def test_load_factor(self):
        cf = CuckooFilter(capacity=100)
        for e in make_elements(50):
            cf.add(e)
        assert cf.load_factor == pytest.approx(
            50 / (cf.n_buckets * 4))

    def test_buckets_power_of_two(self):
        cf = CuckooFilter(capacity=1000)
        assert cf.n_buckets & (cf.n_buckets - 1) == 0


class TestCapacityFailure:
    def test_overfill_raises_capacity_error(self):
        """The paper's noted cuckoo weakness: inserts can fail."""
        cf = CuckooFilter(capacity=16, max_kicks=50, seed=1)
        with pytest.raises(CapacityError):
            # 10x the capacity must eventually fail
            for e in make_elements(200, "overflow"):
                cf.add(e)
        assert cf.load_factor > 0.9  # it failed *because* it was full

    def test_previous_elements_survive_failed_insert(self):
        cf = CuckooFilter(capacity=16, max_kicks=50, seed=1)
        inserted = []
        try:
            for e in make_elements(200, "overflow"):
                cf.add(e)
                inserted.append(e)
        except CapacityError:
            pass
        missing = sum(1 for e in inserted if e not in cf)
        assert missing == 0

    def test_failed_insert_leaves_the_table_unchanged(self):
        """An exhausted kick chain is undone: the homeless fingerprint
        would otherwise be an earlier member's, a false negative."""
        cf = CuckooFilter(capacity=48, fingerprint_bits=8,
                          family=make_family("blake2b", 0), seed=3)
        members = ["member-%04d" % i for i in range(64)]
        cf.update(members)
        table = cf._table.to_list()
        with pytest.raises(CapacityError):
            cf.add("member-0064")
        assert [e for e in members if e not in cf] == []
        assert cf._table.to_list() == table
        assert cf.n_items == 64


class TestDeterminism:
    def test_same_seed_same_behaviour(self):
        a = CuckooFilter(capacity=64, seed=7)
        b = CuckooFilter(capacity=64, seed=7)
        for e in make_elements(60):
            a.add(e)
            b.add(e)
        for e in make_elements(60):
            assert (e in a) == (e in b)
