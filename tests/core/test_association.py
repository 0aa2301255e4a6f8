"""Tests for ShBF_A and CShBF_A — association shifting filters."""

import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Association,
    CountingShiftingAssociationFilter,
    ShiftingAssociationFilter,
)
from tests.conftest import make_elements


@pytest.fixture
def three_regions():
    return (
        make_elements(300, "s1only"),
        make_elements(300, "both"),
        make_elements(300, "s2only"),
    )


@pytest.fixture
def built(three_regions):
    s1_only, both, s2_only = three_regions
    return ShiftingAssociationFilter.for_sets(
        s1_only + both, s2_only + both, k=10)


class TestConstruction:
    def test_optimal_sizing_counts_distinct_once(self):
        """Table 2: m = (n1 + n2 - n3) k / ln 2."""
        m = ShiftingAssociationFilter.optimal_m(1000, 1000, 250, 8)
        assert m == pytest.approx(1750 * 8 / 0.6931, rel=0.01)

    def test_each_distinct_element_encoded_once(self, three_regions):
        import math

        s1_only, both, s2_only = three_regions
        filt = ShiftingAssociationFilter(m=40000, k=8)
        filt.build(s1_only + both, s2_only + both)
        # k bits per distinct element; occupancy follows the balls-in-bins
        # expectation m * (1 - e^{-kn/m}) because positions collide.
        hashes = 8 * (len(s1_only) + len(both) + len(s2_only))
        expected = 40000 * (1 - math.exp(-hashes / 40000))
        assert filt.bits.count() == pytest.approx(expected, rel=0.05)
        assert filt.bits.count() <= hashes

    def test_region_of_ground_truth(self, built, three_regions):
        s1_only, both, s2_only = three_regions
        assert built.region_of(s1_only[0]) is Association.S1_ONLY
        assert built.region_of(both[0]) is Association.BOTH
        assert built.region_of(s2_only[0]) is Association.S2_ONLY
        assert built.region_of(b"foreign") is None

    def test_sets_need_not_be_disjoint(self):
        """The §2.2 differentiator: overlapping sets are fine."""
        filt = ShiftingAssociationFilter.for_sets(
            [b"x", b"y"], [b"y", b"z"], k=8)
        assert filt.query(b"y").candidates == {Association.BOTH}


class TestAnswers:
    def test_never_wrong(self, built, three_regions):
        """§4.2: no outcome ever excludes the true region."""
        s1_only, both, s2_only = three_regions
        for elements, truth in (
            (s1_only, Association.S1_ONLY),
            (both, Association.BOTH),
            (s2_only, Association.S2_ONLY),
        ):
            for e in elements:
                assert built.query(e).consistent_with(truth)

    def test_clear_answers_are_correct(self, built, three_regions):
        """A clear (single-candidate) answer names the true region."""
        s1_only, both, s2_only = three_regions
        truth_by_prefix = {
            b"s1only": Association.S1_ONLY,
            b"both": Association.BOTH,
            b"s2only": Association.S2_ONLY,
        }
        for e in s1_only + both + s2_only:
            answer = built.query(e)
            if answer.clear:
                (candidate,) = answer.candidates
                prefix = e.split(b"-")[0]
                assert candidate is truth_by_prefix[prefix]

    def test_clear_probability_matches_table2(self, built, three_regions):
        """P(clear) ~ (1 - 0.5^k)^2 ~ 0.998 at k = 10."""
        s1_only, both, s2_only = three_regions
        queries = s1_only + both + s2_only
        clear = sum(1 for e in queries if built.query(e).clear)
        assert clear / len(queries) > 0.98

    def test_query_costs_k_accesses(self, built):
        built.memory.reset()
        built.query(b"s1only-00000000")
        assert built.memory.stats.read_ops == 10  # k reads, one per hash
        assert built.memory.stats.read_words == 10

    def test_triple_read_is_one_word(self, built):
        """Structural invariant: bits {0, o1, o2} share one fetch."""
        for e in make_elements(50, "probe"):
            bases, o1, o2 = built._bases_and_offsets(e)
            assert 0 < o1 < o2 <= built.w_bar - 1
            for base in bases:
                assert built.memory.read_cost(base, o2 + 1) == 1

    def test_outcome_numbers(self, built, three_regions):
        s1_only, both, s2_only = three_regions
        outcomes = {built.query(e).outcome for e in s1_only[:50]}
        assert 1 in outcomes or 4 in outcomes or 6 in outcomes


class TestCountingUpdates:
    def test_add_then_query(self):
        filt = CountingShiftingAssociationFilter(m=4096, k=8)
        filt.add_to_s1(b"a")
        filt.add_to_s2(b"b")
        assert filt.query(b"a").candidates == {Association.S1_ONLY}
        assert filt.query(b"b").candidates == {Association.S2_ONLY}

    def test_region_transition_on_second_insert(self):
        """S2-only element inserted into S1 becomes intersection."""
        filt = CountingShiftingAssociationFilter(m=4096, k=8)
        filt.add_to_s2(b"x")
        filt.add_to_s1(b"x")
        assert filt.query(b"x").candidates == {Association.BOTH}
        assert filt.region_of(b"x") is Association.BOTH

    def test_region_transition_on_partial_delete(self):
        filt = CountingShiftingAssociationFilter(m=4096, k=8)
        filt.add_to_s1(b"x")
        filt.add_to_s2(b"x")
        filt.remove_from_s1(b"x")
        assert filt.query(b"x").candidates == {Association.S2_ONLY}

    def test_full_delete_clears(self):
        filt = CountingShiftingAssociationFilter(m=4096, k=8)
        filt.add_to_s1(b"x")
        filt.remove_from_s1(b"x")
        assert filt.query(b"x").outcome == 0
        assert filt.bits.count() == 0

    def test_insert_idempotent(self):
        filt = CountingShiftingAssociationFilter(m=4096, k=8)
        filt.add_to_s1(b"x")
        filt.add_to_s1(b"x")
        filt.remove_from_s1(b"x")
        assert filt.query(b"x").outcome == 0

    def test_delete_absent_raises(self):
        filt = CountingShiftingAssociationFilter(m=4096, k=8)
        with pytest.raises(KeyError):
            filt.remove_from_s1(b"never")
        filt.add_to_s2(b"y")
        with pytest.raises(KeyError):
            filt.remove_from_s1(b"y")

    def test_matches_static_filter_after_build(self, three_regions):
        """Dynamic build reaches the same answers as the static one."""
        s1_only, both, s2_only = three_regions
        counting = CountingShiftingAssociationFilter(m=40000, k=8)
        counting.build(s1_only + both, s2_only + both)
        static = ShiftingAssociationFilter(
            m=40000, k=8, family=counting.family, w_bar=counting.w_bar)
        static.build(s1_only + both, s2_only + both)
        for e in s1_only[:50] + both[:50] + s2_only[:50]:
            assert counting.query(e).candidates == static.query(
                e).candidates

    def test_synchronised(self, three_regions):
        s1_only, both, s2_only = three_regions
        filt = CountingShiftingAssociationFilter(m=8192, k=6)
        filt.build(s1_only[:80] + both[:80], s2_only[:80] + both[:80])
        for e in both[:40]:
            filt.remove_from_s1(e)
        assert filt.check_synchronised()

    @settings(max_examples=15, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(st.sampled_from(["a1", "a2", "r1", "r2"]),
                      st.integers(0, 7)),
            max_size=40,
        )
    )
    def test_property_tracks_reference_sets(self, ops):
        """Property: answers always include the true region."""
        filt = CountingShiftingAssociationFilter(m=2048, k=6)
        s1: set[bytes] = set()
        s2: set[bytes] = set()
        for op, key in ops:
            element = b"key-%d" % key
            if op == "a1":
                filt.add_to_s1(element)
                s1.add(element)
            elif op == "a2":
                filt.add_to_s2(element)
                s2.add(element)
            elif op == "r1" and element in s1:
                filt.remove_from_s1(element)
                s1.discard(element)
            elif op == "r2" and element in s2:
                filt.remove_from_s2(element)
                s2.discard(element)
        for element in s1 | s2:
            if element in s1 and element in s2:
                truth = Association.BOTH
            elif element in s1:
                truth = Association.S1_ONLY
            else:
                truth = Association.S2_ONLY
            assert filt.query(element).consistent_with(truth)


_BUILD_UNDER_HASH_SEED = """
import hashlib, json
from repro.core import ShiftingAssociationFilter
from tests.conftest import make_elements

s1 = make_elements(600, "s1only") + make_elements(300, "both")
s2 = make_elements(300, "both") + make_elements(600, "s2only")
filt = ShiftingAssociationFilter(m=12000, k=8)
filt.build_batch(s1, s2)
stats = filt.memory.stats
print(json.dumps({
    "bits": hashlib.sha256(filt.bits.to_bytes()).hexdigest(),
    "writes": [stats.write_ops, stats.write_words],
    "order": hashlib.sha256(b"".join(set(s1) - set(s2))).hexdigest(),
}))
"""


def test_build_batch_bits_do_not_depend_on_hash_order():
    """``build_batch`` encodes in set-iteration order, which follows the
    process's string-hash seed; the filter and its write bill must not."""
    repo = pathlib.Path(__file__).resolve().parents[2]
    runs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(
                       [str(repo / "src"), str(repo)]))
        out = subprocess.run(
            [sys.executable, "-c", _BUILD_UNDER_HASH_SEED], env=env,
            cwd=repo, capture_output=True, text=True, check=True).stdout
        runs.append(json.loads(out))
    assert runs[0]["order"] != runs[1]["order"]  # the orders do differ
    assert runs[0]["bits"] == runs[1]["bits"]
    assert runs[0]["writes"] == runs[1]["writes"]
