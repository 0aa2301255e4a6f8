"""Batch/scalar equivalence across every filter with a batch fast path.

The batch pipeline's contract, asserted structure by structure:

1. **state** — ``add_batch`` leaves a bit-identical array (and counter
   array, for counting variants) to an element-at-a-time ``add`` loop;
2. **verdicts** — ``query_batch`` answers equal scalar ``query`` element
   for element, members and non-members alike;
3. **accounting** — both paths bill identical logical memory-access
   totals (ops and words, on every tier), *including* the scalar query
   loops' early-exit behaviour;
4. **edges** — empty batches are no-ops and single-element batches
   behave like one scalar call.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import BloomFilter, OneMemoryBloomFilter
from repro.bitarray import MemoryModel
from repro.core import (
    Association,
    CountingShiftingAssociationFilter,
    CountingShiftingBloomFilter,
    CountingShiftingMultiplicityFilter,
    GeneralizedShiftingBloomFilter,
    ShiftingAssociationFilter,
    ShiftingBloomFilter,
    ShiftingMultiplicityFilter,
)
from repro.core import association
from repro.errors import ConfigurationError
from tests.conftest import make_elements

MEMBERS = make_elements(400, "member")
ABSENT = make_elements(400, "absent")
MIXED = [e for pair in zip(MEMBERS, ABSENT) for e in pair]


def assert_same_stats(batch, scalar):
    assert batch.memory.stats == scalar.memory.stats
    if hasattr(batch, "counters"):
        assert batch.counters.memory.stats == scalar.counters.memory.stats


MEMBERSHIP_FACTORIES = [
    pytest.param(lambda: BloomFilter(m=8192, k=7), id="bf"),
    pytest.param(lambda: ShiftingBloomFilter(m=8192, k=8), id="shbf_m"),
    pytest.param(lambda: ShiftingBloomFilter(m=8192, k=8, word_bits=32),
                 id="shbf_m_w32"),
    pytest.param(lambda: CountingShiftingBloomFilter(m=8192, k=8),
                 id="cshbf_m"),
    pytest.param(lambda: OneMemoryBloomFilter(m=8192, k=8),
                 id="one_mem_bf"),
    pytest.param(lambda: OneMemoryBloomFilter(m=8192, k=8,
                                              words_per_element=2),
                 id="one_mem_bf_2w"),
    pytest.param(lambda: GeneralizedShiftingBloomFilter(m=8192, k=12, t=2),
                 id="generalized_t2"),
    pytest.param(lambda: GeneralizedShiftingBloomFilter(m=8192, k=8, t=3),
                 id="generalized_t3"),
]


@pytest.mark.parametrize("make", MEMBERSHIP_FACTORIES)
def test_membership_batch_equivalence(make):
    batch, scalar = make(), make()
    batch.add_batch(MEMBERS)
    for element in MEMBERS:
        scalar.add(element)
    assert batch.bits.to_bytes() == scalar.bits.to_bytes()
    assert batch.n_items == scalar.n_items
    assert_same_stats(batch, scalar)

    verdicts = batch.query_batch(MIXED)
    assert isinstance(verdicts, np.ndarray)
    assert verdicts.dtype == bool
    assert verdicts.tolist() == [scalar.query(q) for q in MIXED]
    assert_same_stats(batch, scalar)
    # every member must be found (no false negatives through the batch path)
    assert batch.query_batch(MEMBERS).all()


@pytest.mark.parametrize("make", MEMBERSHIP_FACTORIES)
def test_membership_batch_edge_cases(make):
    structure = make()
    structure.add_batch([])
    assert structure.n_items == 0
    before = structure.memory.stats.snapshot()
    empty = structure.query_batch([])
    assert empty.shape == (0,)
    assert structure.memory.stats == before

    single = make()
    single_scalar = make()
    single.add_batch([MEMBERS[0]])
    single_scalar.add(MEMBERS[0])
    assert single.bits.to_bytes() == single_scalar.bits.to_bytes()
    assert single.query_batch([MEMBERS[0]]).tolist() == [True]
    assert single_scalar.query(MEMBERS[0]) is True
    assert_same_stats(single, single_scalar)


@settings(max_examples=25, deadline=None)
@given(
    elements=st.lists(st.binary(min_size=0, max_size=24), unique=True,
                      min_size=1, max_size=60),
    k=st.sampled_from([2, 4, 8]),
    word_bits=st.sampled_from([32, 64]),
    seed=st.integers(min_value=0, max_value=5),
)
def test_shbf_m_batch_property(elements, k, word_bits, seed):
    """Property: for arbitrary byte elements and configurations, the
    batch pipeline is indistinguishable from the scalar one."""
    from repro.hashing import Blake2Family

    split = max(1, len(elements) // 2)
    members, probes = elements[:split], elements
    batch = ShiftingBloomFilter(
        m=1024, k=k, word_bits=word_bits, family=Blake2Family(seed=seed))
    scalar = ShiftingBloomFilter(
        m=1024, k=k, word_bits=word_bits, family=Blake2Family(seed=seed))
    batch.add_batch(members)
    for element in members:
        scalar.add(element)
    assert batch.bits.to_bytes() == scalar.bits.to_bytes()
    assert batch.query_batch(probes).tolist() \
        == [scalar.query(p) for p in probes]
    assert batch.memory.stats == scalar.memory.stats


# ----------------------------------------------------------------------
# Property-based geometry sweep (all membership filters)
# ----------------------------------------------------------------------
# A 16-element alphabet makes generated batches adversarially
# duplicate-heavy: the same element is inserted and queried many times
# inside one batch, exercising the batch kernels' scatter-OR (several
# probes landing on the same byte in one write pass) and the survivor
# rounds' early-exit billing under repeated probes — exactly where a
# naive vectorisation would diverge from the scalar loops.  The
# ``*_mem8`` / ``*_mem16`` kinds bill against a memory model narrower
# than the offset policy's word, so a pair read costs several words
# and the billing must count exactly the probes made.
DUP_ELEMENTS = st.integers(min_value=0, max_value=15).map(
    lambda i: ("dup-%02d" % i).encode())

GEOMETRY_KINDS = {
    "bf": lambda m, k, w, fam: BloomFilter(m=m, k=k, family=fam),
    "bf_mem8": lambda m, k, w, fam: BloomFilter(
        m=m, k=k, family=fam, memory=MemoryModel(word_bits=8)),
    "shbf_m": lambda m, k, w, fam: ShiftingBloomFilter(
        m=m, k=k, word_bits=w, family=fam),
    "shbf_m_mem8": lambda m, k, w, fam: ShiftingBloomFilter(
        m=m, k=k, word_bits=w, family=fam, memory=MemoryModel(word_bits=8)),
    "shbf_m_mem16": lambda m, k, w, fam: ShiftingBloomFilter(
        m=m, k=k, word_bits=w, family=fam,
        memory=MemoryModel(word_bits=16)),
    "cshbf_m": lambda m, k, w, fam: CountingShiftingBloomFilter(
        m=m, k=k, word_bits=w, family=fam),
    "one_mem_bf": lambda m, k, w, fam: OneMemoryBloomFilter(
        m=m, k=k, word_bits=w, family=fam),
    # t=2 shifts need k divisible by t + 1
    "generalized": lambda m, k, w, fam: GeneralizedShiftingBloomFilter(
        m=m, k=6 if k <= 6 else 12, t=2, word_bits=w, family=fam),
}


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(sorted(GEOMETRY_KINDS)),
    m=st.integers(min_value=128, max_value=4096),
    k=st.sampled_from([2, 4, 6, 8]),
    word_bits=st.sampled_from([32, 64]),
    seed=st.integers(min_value=0, max_value=7),
    members=st.lists(DUP_ELEMENTS, min_size=1, max_size=40),
    probes=st.lists(DUP_ELEMENTS, min_size=1, max_size=60),
)
def test_property_geometry_sweep_batch_equivalence(
        kind, m, k, word_bits, seed, members, probes):
    """Property: for every filter kind, generated ``(m, k, n, w)``
    geometry and duplicate-heavy batches, the batch pipeline leaves
    bit-identical state, returns scalar verdicts and bills scalar
    access totals."""
    from repro.hashing import Blake2Family

    make = GEOMETRY_KINDS[kind]
    batch = make(m, k, word_bits, Blake2Family(seed=seed))
    scalar = make(m, k, word_bits, Blake2Family(seed=seed))
    batch.add_batch(members)
    for element in members:
        scalar.add(element)
    assert batch.bits.to_bytes() == scalar.bits.to_bytes()
    assert batch.n_items == scalar.n_items
    assert_same_stats(batch, scalar)
    if hasattr(batch, "counters"):
        assert batch.counters.to_list() == scalar.counters.to_list()
    assert batch.query_batch(probes).tolist() \
        == [scalar.query(p) for p in probes]
    assert_same_stats(batch, scalar)


# Survivor-round edges: filters whose queries stop early, at pair (or
# bit) reads costing one word and several words.
EARLY_EXIT_FACTORIES = [
    pytest.param(lambda: ShiftingBloomFilter(m=4096, k=8), id="shbf_m"),
    pytest.param(lambda: ShiftingBloomFilter(
        m=4096, k=8, memory=MemoryModel(word_bits=8)), id="shbf_m_mem8"),
    pytest.param(lambda: ShiftingBloomFilter(
        m=4096, k=8, word_bits=32, memory=MemoryModel(word_bits=16)),
        id="shbf_m_w32_mem16"),
    pytest.param(lambda: CountingShiftingBloomFilter(
        m=4096, k=8, sram=MemoryModel(word_bits=8)), id="cshbf_m_mem8"),
    pytest.param(lambda: BloomFilter(
        m=4096, k=7, memory=MemoryModel(word_bits=8)), id="bf_mem8"),
]


def probes_per_query(structure):
    return structure.k if isinstance(structure, BloomFilter) \
        else structure.k // 2


@pytest.mark.parametrize("make", EARLY_EXIT_FACTORIES)
def test_early_exit_edge_batches(make):
    batch, scalar = make(), make()
    # All absent against an empty filter: every element dies in round
    # one, so the batch bills exactly one probe per element.
    assert not batch.query_batch(ABSENT).any()
    assert batch.memory.stats.read_ops == len(ABSENT)
    assert not any(scalar.query(e) for e in ABSENT)
    assert_same_stats(batch, scalar)

    # All members: every element survives every round.
    batch.add_batch(MEMBERS)
    for element in MEMBERS:
        scalar.add(element)
    before = batch.memory.snapshot()
    assert batch.query_batch(MEMBERS).all()
    spent = batch.memory.stats.diff(before)
    assert spent.read_ops == len(MEMBERS) * probes_per_query(batch)
    if batch.memory.word_bits == 8 and not isinstance(batch, BloomFilter):
        assert spent.read_words > spent.read_ops   # multi-word pair reads
    assert all(scalar.query(e) for e in MEMBERS)
    assert_same_stats(batch, scalar)

    # Empty batches, list or generator, bill nothing.
    before = batch.memory.snapshot()
    assert batch.query_batch([]).shape == (0,)
    assert batch.query_batch(e for e in ()).shape == (0,)
    assert batch.memory.stats == before

    # Generator input answers and bills like a list.
    verdicts = batch.query_batch(e for e in MIXED)
    assert verdicts.tolist() == [scalar.query(e) for e in MIXED]
    assert_same_stats(batch, scalar)


@settings(max_examples=25, deadline=None)
@given(
    m=st.integers(min_value=512, max_value=4096),
    k=st.sampled_from([2, 4]),
    c_max=st.integers(min_value=2, max_value=20),
    seed=st.integers(min_value=0, max_value=5),
    probes=st.lists(DUP_ELEMENTS, min_size=1, max_size=50),
)
def test_property_multiplicity_duplicate_query_batches(
        m, k, c_max, seed, probes):
    """ShBF_x inserts must be unique, but *query* batches may repeat the
    same element arbitrarily; batch answers and billing stay scalar."""
    from repro.hashing import Blake2Family

    members = [("dup-%02d" % i).encode() for i in range(0, 16, 2)]
    counts = [(i % c_max) + 1 for i in range(len(members))]
    batch = ShiftingMultiplicityFilter(
        m=m, k=k, c_max=c_max, family=Blake2Family(seed=seed))
    scalar = ShiftingMultiplicityFilter(
        m=m, k=k, c_max=c_max, family=Blake2Family(seed=seed))
    batch.add_batch(members, counts)
    for element, count in zip(members, counts):
        scalar.add(element, count)
    assert batch.query_batch(probes).tolist() \
        == [scalar.query(p).reported for p in probes]
    assert batch.memory.stats == scalar.memory.stats


@settings(max_examples=25, deadline=None)
@given(
    duplicates=st.lists(DUP_ELEMENTS, min_size=2, max_size=12),
    k=st.sampled_from([2, 4, 8]),
)
def test_property_duplicate_heavy_adds_match_scalar_readds(duplicates, k):
    """Re-inserting the same element within one batch is a no-op on bit
    state but still bills one write per probe pair — like scalar
    re-adds.  (ShBF_M is the representative; the geometry sweep above
    covers the rest.)"""
    batch = ShiftingBloomFilter(m=1024, k=k)
    scalar = ShiftingBloomFilter(m=1024, k=k)
    batch.add_batch(duplicates)
    for element in duplicates:
        scalar.add(element)
    assert batch.bits.to_bytes() == scalar.bits.to_bytes()
    assert batch.n_items == scalar.n_items
    assert batch.memory.stats == scalar.memory.stats


# ----------------------------------------------------------------------
# Cross-family equivalence: the batch ≡ scalar contract must hold for
# every hash-family wiring, and the vectorised family's own scalar and
# batch paths must be bit-identical for arbitrary inputs.
# ----------------------------------------------------------------------
ANY_ELEMENT = st.one_of(
    st.binary(min_size=0, max_size=80),  # crosses the 32-byte boundary
    st.text(max_size=40),
    st.integers(min_value=-(2 ** 70), max_value=2 ** 70),
    st.booleans(),
)


@settings(max_examples=60, deadline=None)
@given(
    elements=st.lists(ANY_ELEMENT, min_size=1, max_size=40),
    count=st.integers(min_value=0, max_value=12),
    start=st.integers(min_value=0, max_value=9),
    seed=st.integers(min_value=0, max_value=50),
)
def test_property_vectorized_scalar_batch_bit_identical(
        elements, count, start, seed):
    """Property: for arbitrary element mixes (bytes of any length, str,
    int, bool), VectorizedFamily's NumPy batch kernel reproduces the
    pure-Python scalar path bit for bit, for any (count, start, seed)."""
    from repro.hashing import VectorizedFamily

    fam = VectorizedFamily(seed=seed)
    batch = fam.values_batch(elements, count, start=start)
    assert batch.shape == (len(elements), count)
    for row, element in enumerate(elements):
        scalar = fam.values(element, count, start=start)
        assert [int(v) for v in batch[row]] == scalar
        assert list(fam.iter_values(element, count, start=start)) == scalar


FAMILY_WIRINGS = ["blake2b", "vector64", "km-double"]


@pytest.mark.parametrize("kind", FAMILY_WIRINGS)
@pytest.mark.parametrize("make", [
    pytest.param(lambda fam: BloomFilter(m=8192, k=7, family=fam),
                 id="bf"),
    pytest.param(lambda fam: ShiftingBloomFilter(m=8192, k=8, family=fam),
                 id="shbf_m"),
    pytest.param(
        lambda fam: CountingShiftingBloomFilter(m=8192, k=8, family=fam),
        id="cshbf_m"),
    pytest.param(lambda fam: OneMemoryBloomFilter(m=8192, k=8, family=fam),
                 id="one_mem_bf"),
    pytest.param(
        lambda fam: GeneralizedShiftingBloomFilter(
            m=8192, k=12, t=2, family=fam),
        id="generalized_t2"),
])
def test_family_agnostic_batch_equivalence(kind, make):
    """State, verdicts and AccessStats equivalence is family-agnostic:
    whatever family is wired, batch and scalar paths are twins."""
    from repro.hashing import make_family

    batch, scalar = make(make_family(kind)), make(make_family(kind))
    batch.add_batch(MEMBERS)
    for element in MEMBERS:
        scalar.add(element)
    assert batch.bits.to_bytes() == scalar.bits.to_bytes()
    assert_same_stats(batch, scalar)
    assert batch.query_batch(MIXED).tolist() \
        == [scalar.query(q) for q in MIXED]
    assert_same_stats(batch, scalar)
    assert batch.query_batch(MEMBERS).all()


@pytest.mark.parametrize("kind", FAMILY_WIRINGS)
def test_family_agnostic_sharded_store_equivalence(kind):
    """The sharded store's batch routing is family-agnostic too: same
    verdicts and identical aggregate AccessStats as scalar routing,
    whichever family backs the shards (and the router)."""
    from repro.hashing import make_family
    from repro.store import ShardedFilterStore, ShardRouter

    router_kind = "vector64" if kind == "vector64" else "blake2b"

    def build():
        return ShardedFilterStore(
            lambda shard: ShiftingBloomFilter(
                m=4096, k=8, family=make_family(kind)),
            n_shards=4,
            router=ShardRouter(4, family_kind=router_kind))

    batch, scalar = build(), build()
    batch.add_batch(MEMBERS)
    for element in MEMBERS:
        scalar.add(element)
    for ours, theirs in zip(batch.shards, scalar.shards):
        assert ours.bits.to_bytes() == theirs.bits.to_bytes()
        assert ours.n_items == theirs.n_items
    assert batch.query_batch(MIXED).tolist() \
        == [scalar.query(q) for q in MIXED]
    assert batch.memory.stats == scalar.memory.stats
    assert batch.report().total == scalar.report().total


def test_counting_membership_batch_keeps_tiers_synchronised():
    batch = CountingShiftingBloomFilter(m=4096, k=8)
    batch.add_batch(MEMBERS[:150])
    assert batch.check_synchronised()
    scalar = CountingShiftingBloomFilter(m=4096, k=8)
    for element in MEMBERS[:150]:
        scalar.add(element)
    assert batch.counters.to_list() == scalar.counters.to_list()


# ----------------------------------------------------------------------
# Association (ShBF_A)
# ----------------------------------------------------------------------
S1 = MEMBERS[:250]
S2 = MEMBERS[150:350]  # overlaps S1 — intersection is first-class in ShBF_A


def test_association_build_batch_equivalence():
    batch = ShiftingAssociationFilter(m=8192, k=8)
    scalar = ShiftingAssociationFilter(m=8192, k=8)
    batch.build_batch(S1, S2)
    scalar.build(S1, S2)
    assert batch.bits.to_bytes() == scalar.bits.to_bytes()
    assert batch.memory.stats == scalar.memory.stats
    assert (batch.n_s1, batch.n_s2) == (scalar.n_s1, scalar.n_s2)


@pytest.mark.parametrize("make", [
    pytest.param(lambda: ShiftingAssociationFilter(m=8192, k=8),
                 id="shbf_a"),
    pytest.param(lambda: CountingShiftingAssociationFilter(m=8192, k=8),
                 id="cshbf_a"),
])
def test_association_query_batch_equivalence(make):
    batch, scalar = make(), make()
    batch.build(S1, S2)
    scalar.build(S1, S2)
    queries = MEMBERS[:400] + ABSENT[:100]
    got = batch.query_batch(queries)
    want = [scalar.query(q) for q in queries]
    assert [(a.candidates, a.clear) for a in got] \
        == [(a.candidates, a.clear) for a in want]
    assert batch.memory.stats == scalar.memory.stats
    assert batch.query_batch([]) == []


def assert_association_equivalent(batch, scalar, queries):
    """Same answers as the scalar path — the very same shared frozen
    instances — and the same bill."""
    got = batch.query_batch(queries)
    want = [scalar.query(q) for q in queries]
    assert got == want
    assert all(a is b for a, b in zip(got, want))
    assert {id(a) for a in got} <= {id(a) for a in association._ANSWERS}
    assert_same_stats(batch, scalar)


@pytest.mark.parametrize("make", [
    pytest.param(lambda: ShiftingAssociationFilter(m=8192, k=8,
                                                   word_bits=32),
                 id="shbf_a_w32"),
    pytest.param(lambda: ShiftingAssociationFilter(m=8192, k=8,
                                                   word_bits=128),
                 id="shbf_a_w128_wide_fallback"),
    # m this small puts most windows in the slack tail, many in the
    # buffer's last seven bytes.
    pytest.param(lambda: ShiftingAssociationFilter(m=3, k=4),
                 id="shbf_a_tail_m3"),
    pytest.param(lambda: ShiftingAssociationFilter(m=61, k=4),
                 id="shbf_a_tail_m61"),
    pytest.param(lambda: ShiftingAssociationFilter(m=1531, k=3, w_bar=9),
                 id="shbf_a_tail_w9"),
])
def test_association_geometries_batch_equivalence(make):
    batch, scalar = make(), make()
    batch.build_batch(S1[:40], S2[:40])
    scalar.build(S1[:40], S2[:40])
    assert batch.bits.to_bytes() == scalar.bits.to_bytes()
    assert_same_stats(batch, scalar)
    assert_association_equivalent(
        batch, scalar, MEMBERS[:300] + ABSENT[:200])


def test_counting_association_after_region_transitions():
    """Re-encoded elements (S1-only -> both, both -> S2-only) answer the
    same on the batch path as on the scalar one."""
    filters = [CountingShiftingAssociationFilter(m=4096, k=6)
               for _ in range(2)]
    for filt in filters:
        filt.build(S1, S2)
        for element in S1[:60]:        # S1-only elements join S2
            filt.add_to_s2(element)
        for element in S2[:60]:        # intersection elements leave S1
            filt.remove_from_s1(element)
        assert filt.check_synchronised()
    batch, scalar = filters
    assert batch.region_of(S1[0]) is Association.BOTH
    assert batch.region_of(S2[0]) is Association.S2_ONLY
    assert_association_equivalent(
        batch, scalar, MEMBERS[:400] + ABSENT[:100])


# ----------------------------------------------------------------------
# Multiplicity (ShBF_x)
# ----------------------------------------------------------------------
COUNTS = [(i % 57) + 1 for i in range(len(MEMBERS))]


@pytest.mark.parametrize("report", ["largest", "smallest"])
def test_multiplicity_batch_equivalence(report):
    batch = ShiftingMultiplicityFilter(m=16384, k=4, c_max=57, report=report)
    scalar = ShiftingMultiplicityFilter(m=16384, k=4, c_max=57, report=report)
    batch.add_batch(MEMBERS, COUNTS)
    for element, count in zip(MEMBERS, COUNTS):
        scalar.add(element, count)
    assert batch.bits.to_bytes() == scalar.bits.to_bytes()
    assert batch.memory.stats == scalar.memory.stats

    got = batch.query_batch(MIXED)
    assert got.dtype == np.int64
    assert got.tolist() == [scalar.query(q).reported for q in MIXED]
    assert batch.memory.stats == scalar.memory.stats
    assert batch.query_batch([]).shape == (0,)


@pytest.mark.parametrize("m", [1, 7, 64])
def test_multiplicity_slack_tail_batch_equivalence(m):
    """A tiny m puts the windows in the slack tail (and the buffer's last
    seven bytes): values and bill still match the scalar reads."""
    batch = ShiftingMultiplicityFilter(m=m, k=4, c_max=57)
    scalar = ShiftingMultiplicityFilter(m=m, k=4, c_max=57)
    batch.add_batch(MEMBERS[:3], [1, 30, 57])
    for element, count in zip(MEMBERS[:3], [1, 30, 57]):
        scalar.add(element, count)
    assert batch.bits.to_bytes() == scalar.bits.to_bytes()
    queries = MEMBERS[:20] + ABSENT[:20]
    assert batch.query_batch(queries).tolist() \
        == [scalar.query(q).reported for q in queries]
    assert batch.memory.stats == scalar.memory.stats


def test_multiplicity_batch_wide_cmax_fallback():
    batch = ShiftingMultiplicityFilter(m=16384, k=4, c_max=80)
    scalar = ShiftingMultiplicityFilter(m=16384, k=4, c_max=80)
    counts = [(i % 80) + 1 for i in range(100)]
    batch.add_batch(MEMBERS[:100], counts)
    for element, count in zip(MEMBERS[:100], counts):
        scalar.add(element, count)
    queries = MEMBERS[:100] + ABSENT[:50]
    assert batch.query_batch(queries).tolist() \
        == [scalar.query(q).reported for q in queries]
    assert batch.memory.stats == scalar.memory.stats


def test_multiplicity_add_batch_validates_before_mutating():
    structure = ShiftingMultiplicityFilter(m=4096, k=4, c_max=8)
    snapshot = structure.bits.to_bytes()
    with pytest.raises(ConfigurationError):
        structure.add_batch([b"a", b"b"], [1])  # length mismatch
    with pytest.raises(ConfigurationError):
        structure.add_batch([b"a", b"b"], [1, 99])  # count over c_max
    with pytest.raises(ConfigurationError):
        structure.add_batch([b"a", b"a"], [1, 2])  # duplicate in batch
    assert structure.bits.to_bytes() == snapshot
    assert structure.n_items == 0


@pytest.mark.parametrize("counts", [
    pytest.param([2.7], id="float"),
    pytest.param([2.0], id="integral_float"),
    pytest.param([True], id="bool"),
    pytest.param([3, True], id="bool_among_ints"),
    pytest.param([np.True_], id="numpy_bool"),
    pytest.param(np.array([2.5]), id="float_array"),
    pytest.param(np.array([True]), id="bool_array"),
    pytest.param([0], id="zero"),
    pytest.param(np.array([9], dtype=np.uint8), id="over_c_max_array"),
    pytest.param([2 ** 70], id="huge_int"),
    pytest.param(["2"], id="string"),
])
def test_multiplicity_add_batch_rejects_what_add_rejects(counts):
    """``add_batch`` used to coerce counts with ``int()``: 2.7 encoded
    as 2 and True as 1, where the scalar ``add`` refuses both."""
    structure = ShiftingMultiplicityFilter(m=4096, k=4, c_max=8)
    snapshot = structure.bits.to_bytes()
    elements = [b"a", b"b"][:len(counts)]
    with pytest.raises(ConfigurationError):
        structure.add_batch(elements, counts)
    with pytest.raises(ConfigurationError):
        for element, count in zip(elements, counts):
            ShiftingMultiplicityFilter(m=64, k=2, c_max=8).add(
                element, count)
    assert structure.bits.to_bytes() == snapshot
    assert structure.n_items == 0
    assert structure.memory.stats.write_ops == 0


def test_multiplicity_add_batch_accepts_numpy_integers():
    batch = ShiftingMultiplicityFilter(m=4096, k=4, c_max=8)
    scalar = ShiftingMultiplicityFilter(m=4096, k=4, c_max=8)
    batch.add_batch(MEMBERS[:3], np.array([1, 8, 5], dtype=np.uint16))
    batch.add_batch(MEMBERS[3:5], [np.int64(2), 7])
    for element, count in zip(MEMBERS[:5], [1, 8, 5, 2, 7]):
        scalar.add(element, count)
    assert batch.bits.to_bytes() == scalar.bits.to_bytes()
    assert batch.memory.stats == scalar.memory.stats
    assert [batch.true_count(e) for e in MEMBERS[:5]] == [1, 8, 5, 2, 7]
    assert all(type(batch.true_count(e)) is int for e in MEMBERS[:5])


def test_counting_multiplicity_query_batch_equivalence():
    batch = CountingShiftingMultiplicityFilter(m=8192, k=4, c_max=15)
    scalar = CountingShiftingMultiplicityFilter(m=8192, k=4, c_max=15)
    for i, element in enumerate(MEMBERS[:120]):
        for _ in range((i % 5) + 1):
            batch.add(element)
            scalar.add(element)
    queries = MEMBERS[:120] + ABSENT[:40]
    assert batch.query_batch(queries).tolist() \
        == [scalar.query(q).reported for q in queries]
    assert batch.memory.stats == scalar.memory.stats
