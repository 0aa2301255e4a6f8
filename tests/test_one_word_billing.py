"""The batch kernels' one-word billing rule.

The paper bounds every pair, triple and count window by
``w_bar = w - 7`` bits (§3.1, §4.1, §5.1) so that each is one word
fetch from any bit offset.  When a batch's widest span is within that
bound, the kernels bill one word per access without building a
``MemoryModel.read_cost_batch`` matrix; past it they keep the exact
matrix.  Either way the bill must equal the scalar loop's, access for
access:

* under the default 64-bit model, ``read_cost_batch`` is patched to
  raise, so a passing test shows the shortcut is taken *and* exact, for
  the filters' batch queries and every recording ``BitArray`` kernel;
* under 8-, 16- and 32-bit models the same spans cost several words,
  and the bills must still match the scalar loops;
* ShBF_A's batch decode (AND the windows, decode the last column)
  matches the scalar query on all eight §4.2 outcomes, for ``uint64``
  windows and for the object windows of a 128-bit policy.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bitarray import BitArray, MemoryModel
from repro.core.association import _ANSWERS, ShiftingAssociationFilter
from repro.core.generalized import GeneralizedShiftingBloomFilter
from repro.core.multiplicity import ShiftingMultiplicityFilter
from repro.hashing.family import make_family

KEYS = [b"key-%05d" % i for i in range(600)]
ABSENT = [b"absent-%05d" % i for i in range(600)]
NARROW_WORDS = (8, 16, 32)


@pytest.fixture
def no_cost_matrix(monkeypatch):
    """Make any ``read_cost_batch`` call fail the test."""
    def refuse(self, start_bits, nbits):
        raise AssertionError("read_cost_batch called inside the bound")
    monkeypatch.setattr(MemoryModel, "read_cost_batch", refuse)


def family():
    return make_family("vector64", seed=0)


# ----------------------------------------------------------------------
# Filters: batch vs scalar, verdicts and AccessStats
# ----------------------------------------------------------------------
def association_pair(memory_words=None, word_bits=64):
    def make():
        memory = (None if memory_words is None
                  else MemoryModel(word_bits=memory_words))
        return ShiftingAssociationFilter(
            m=6000, k=6, family=family(), word_bits=word_bits,
            memory=memory)
    return make(), make()


def check_association(batch, scalar):
    s1, s2 = KEYS[:400], KEYS[250:]
    batch.build_batch(s1, s2)
    scalar.build(s1, s2)
    assert batch.bits.to_bytes() == scalar.bits.to_bytes()
    assert batch.memory.stats == scalar.memory.stats
    probes = KEYS + ABSENT
    assert batch.query_batch(probes) == [scalar.query(e) for e in probes]
    assert batch.memory.stats == scalar.memory.stats


def multiplicity_pair(memory_words=None, c_max=57):
    def make():
        memory = (None if memory_words is None
                  else MemoryModel(word_bits=memory_words))
        return ShiftingMultiplicityFilter(
            m=4000, k=6, c_max=c_max, family=family(), memory=memory)
    return make(), make()


def check_multiplicity(batch, scalar):
    counts = np.random.default_rng(3).integers(
        1, batch.c_max + 1, len(KEYS))
    batch.add_batch(KEYS, counts)
    for key, count in zip(KEYS, counts.tolist()):
        scalar.add(key, count)
    assert batch.bits.to_bytes() == scalar.bits.to_bytes()
    assert batch.memory.stats == scalar.memory.stats
    probes = KEYS + ABSENT
    assert batch.query_batch(probes).tolist() == [
        scalar.query(e).reported for e in probes]
    assert batch.memory.stats == scalar.memory.stats


def generalized_pair(memory_words=None):
    def make():
        memory = (None if memory_words is None
                  else MemoryModel(word_bits=memory_words))
        return GeneralizedShiftingBloomFilter(
            m=5000, k=9, t=2, family=family(), memory=memory)
    return make(), make()


def check_generalized(batch, scalar):
    batch.add_batch(KEYS)
    for key in KEYS:
        scalar.add(key)
    assert batch.bits.to_bytes() == scalar.bits.to_bytes()
    assert batch.memory.stats == scalar.memory.stats
    probes = KEYS + ABSENT
    assert batch.query_batch(probes).tolist() == [
        scalar.query(e) for e in probes]
    assert batch.memory.stats == scalar.memory.stats


def test_association_bills_one_word_per_probe(no_cost_matrix):
    check_association(*association_pair())


def test_multiplicity_bills_one_word_per_probe(no_cost_matrix):
    check_multiplicity(*multiplicity_pair())


def test_generalized_bills_one_word_per_probe(no_cost_matrix):
    check_generalized(*generalized_pair())


@pytest.mark.parametrize("words", NARROW_WORDS)
def test_association_multi_word_bills(words):
    batch, scalar = association_pair(memory_words=words)
    check_association(batch, scalar)
    assert batch.memory.stats.read_words > batch.memory.stats.read_ops


@pytest.mark.parametrize("words", NARROW_WORDS)
def test_multiplicity_multi_word_bills(words):
    batch, scalar = multiplicity_pair(memory_words=words)
    check_multiplicity(batch, scalar)
    assert batch.memory.stats.read_words > batch.memory.stats.read_ops


@pytest.mark.parametrize("words", NARROW_WORDS)
def test_generalized_multi_word_bills(words):
    batch, scalar = generalized_pair(memory_words=words)
    check_generalized(batch, scalar)
    stats = batch.memory.stats
    assert stats.read_words > stats.read_ops
    assert stats.write_words > stats.write_ops


def test_multiplicity_c_max_at_the_bound(no_cost_matrix):
    # c_max = w - 7 is the widest count window one word still holds.
    check_multiplicity(*multiplicity_pair(c_max=57))


def test_multiplicity_c_max_past_a_narrow_bound():
    # Under a 32-bit model c_max = 26 is one bit past the bound.
    batch, scalar = multiplicity_pair(memory_words=32, c_max=26)
    check_multiplicity(batch, scalar)
    assert batch.memory.stats.read_words > batch.memory.stats.read_ops


# ----------------------------------------------------------------------
# BitArray bit, pair, group and window kernels
# ----------------------------------------------------------------------
def bit_arrays(words=64, nbits=900):
    return (BitArray(nbits, memory=MemoryModel(word_bits=words)),
            BitArray(nbits, memory=MemoryModel(word_bits=words)))


def pair_operands(max_offset):
    rng = np.random.default_rng(max_offset)
    bases = rng.integers(0, 800, (150, 4))
    offsets = rng.integers(0, max_offset + 1, (150, 1))
    offsets[0, 0] = max_offset
    return bases, offsets


def check_bits(batch, scalar):
    rng = np.random.default_rng(5)
    positions = rng.integers(0, 900, 300)
    batch.set_bits_batch(positions)
    for p in positions.tolist():
        scalar.set(p)
    assert batch.to_bytes() == scalar.to_bytes()
    assert batch.memory.stats == scalar.memory.stats
    probes = rng.integers(0, 900, 300)
    assert batch.test_bits_batch(probes).tolist() == [
        scalar.test(p) for p in probes.tolist()]
    assert batch.memory.stats == scalar.memory.stats


def check_pairs(batch, scalar, max_offset):
    bases, offsets = pair_operands(max_offset)
    batch.set_pairs_batch(bases, offsets)
    flat = np.broadcast_arrays(bases, offsets)
    pairs = list(zip(flat[0].ravel().tolist(), flat[1].ravel().tolist()))
    for b, o in pairs:
        scalar.set_offsets(b, (0, o))
    assert batch.to_bytes() == scalar.to_bytes()
    assert batch.memory.stats == scalar.memory.stats
    probe_bases = bases[:, :2] + 3
    got = batch.test_pairs_batch(probe_bases, offsets)
    want = [scalar.test_pair(b, o) for b, o in zip(
        *(a.ravel().tolist()
          for a in np.broadcast_arrays(probe_bases, offsets)))]
    assert got.ravel().tolist() == want
    assert batch.memory.stats == scalar.memory.stats


def group_operands(max_offset):
    rng = np.random.default_rng(max_offset + 100)
    bases = rng.integers(0, 800, 150)
    offsets = rng.integers(0, max_offset + 1, (150, 3))
    offsets[:, 0] = 0
    # Row 0 holds the widest group at the last bit of a byte: past the
    # bound it costs two words.
    bases[0], offsets[0, -1] = 7, max_offset
    return bases, offsets


def check_groups(batch, scalar, max_offset):
    """``set_offsets_batch``, ``test_offsets_batch`` (per-row and shared
    groups) and ``read_windows_batch(record=True)`` against their
    scalar loops."""
    bases, offsets = group_operands(max_offset)
    batch.set_offsets_batch(bases, offsets)
    for b, row in zip(bases.tolist(), offsets.tolist()):
        scalar.set_offsets(b, row)
    assert batch.to_bytes() == scalar.to_bytes()
    assert batch.memory.stats == scalar.memory.stats
    probes = bases + 8
    for group in (offsets, offsets[0]):
        rows = np.broadcast_to(group, offsets.shape).tolist()
        got = batch.test_offsets_batch(probes, group)
        assert got.tolist() == [list(scalar.test_offsets(b, row))
                                for b, row in zip(probes.tolist(), rows)]
        assert batch.memory.stats == scalar.memory.stats
    got = batch.read_windows_batch(probes, max_offset + 1)
    assert got.tolist() == [scalar.read_window(b, max_offset + 1)
                            for b in probes.tolist()]
    assert batch.memory.stats == scalar.memory.stats


def test_bit_kernels_bill_one_word_each(no_cost_matrix):
    check_bits(*bit_arrays())


@pytest.mark.parametrize("words", NARROW_WORDS)
def test_bit_kernels_narrow_words(words):
    check_bits(*bit_arrays(words))


def test_group_kernels_bill_one_word_each(no_cost_matrix):
    check_groups(*bit_arrays(), max_offset=56)


@pytest.mark.parametrize("words", NARROW_WORDS + (64,))
def test_group_kernels_past_the_bound(words):
    batch, scalar = bit_arrays(words)
    check_groups(batch, scalar, max_offset=words - 7)
    stats = batch.memory.stats
    assert stats.read_words > stats.read_ops
    assert stats.write_words > stats.write_ops


def test_pair_kernels_bill_one_word_each(no_cost_matrix):
    # Offset w - 8 = max_single_read_offset(): the widest pair that
    # still fits one word from any bit.
    check_pairs(*bit_arrays(), max_offset=56)


@pytest.mark.parametrize("words", NARROW_WORDS + (64,))
def test_pair_kernels_past_the_bound(words):
    # The widest pair spans w - 6 bits: one past the bound.
    batch, scalar = bit_arrays(words)
    check_pairs(batch, scalar, max_offset=words - 7)
    assert batch.memory.stats.write_words > batch.memory.stats.write_ops


@pytest.mark.parametrize("bases, offsets, bad", [
    ([-3, 5], [1, 2], -3),
    ([5, 98], [1, 2], 100),
    ([99, 5], [1, 2], 100),
    ([[-3], [5]], [1, 2], -3),        # broadcast to (2, 2)
    ([[5], [98]], [1, 2], 100),
    ([[99], [5]], [0, 1], 100),
])
def test_pair_kernels_raise_the_same_index_errors(bases, offsets, bad):
    bits = BitArray(100)
    for kernel in (bits.test_pairs_batch, bits.set_pairs_batch):
        with pytest.raises(IndexError,
                           match="bit index %d out of range" % bad):
            kernel(bases, offsets)
        with pytest.raises(IndexError, match="must be non-negative"):
            kernel([5, 6], [1, -1])
    assert bits.memory.stats.total_words == 0
    assert bits.count() == 0


# ----------------------------------------------------------------------
# ShBF_A decode: all eight §4.2 outcomes
# ----------------------------------------------------------------------
def planted_association(word_bits, memory_words):
    """A filter whose bits make element ``i`` answer code ``i % 8``.

    Each element's bits are planted directly: at every hash, the
    candidates of its target code plus, at hashes before the last, a
    random extra candidate that a later hash kills — so codes die at
    different hashes and some elements exit early with code 0.
    """
    memory = MemoryModel(word_bits=memory_words)
    filt = ShiftingAssociationFilter(
        m=1 << 16, k=5, family=family(), word_bits=word_bits,
        memory=memory)
    rng = np.random.default_rng(word_bits + memory_words)
    elements = KEYS[:96]
    for i, element in enumerate(elements):
        bases, o1, o2 = filt._bases_and_offsets(element)
        target = i % 8
        for j, base in enumerate(bases):
            code = target
            if j < len(bases) - 1:
                code |= int(rng.integers(0, 8))
            for bit, offset in enumerate((0, o1, o2)):
                if code >> bit & 1:
                    filt.bits.set(base + offset, record=False)
    filt.memory.reset()
    return filt, elements


@pytest.mark.parametrize("word_bits, memory_words, dtype", [
    (64, 64, np.uint64),
    (64, 32, np.uint64),
    (128, 128, object),
    (128, 64, object),
])
def test_association_decode_covers_every_outcome(word_bits, memory_words,
                                                 dtype):
    batch, elements = planted_association(word_bits, memory_words)
    scalar, _ = planted_association(word_bits, memory_words)
    bases, _, o2 = batch._bases_and_offsets_batch(elements)
    windows = batch.bits.read_windows_batch(
        bases.ravel(), int(o2.max()) + 1, record=False)
    assert windows.dtype == dtype
    got = batch.query_batch(elements)
    want = [scalar.query(e) for e in elements]
    assert got == want
    assert batch.memory.stats == scalar.memory.stats
    assert {_ANSWERS.index(answer) for answer in got} == set(range(8))
