"""Batch kernels vs scalar operations on the storage layer.

Every NumPy kernel on :class:`BitArray` / :class:`CounterArray` must be
observationally identical to the scalar loop it replaces: same buffer
bytes afterwards, same returned values, and the same
:class:`AccessStats` tallies (ops *and* word counts).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitarray import AccessStats, BitArray, CounterArray, MemoryModel


def make_pair(nbits=700, word_bits=64):
    return (BitArray(nbits, memory=MemoryModel(word_bits=word_bits)),
            BitArray(nbits, memory=MemoryModel(word_bits=word_bits)))


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def test_set_bits_batch_matches_scalar(rng):
    batch, scalar = make_pair()
    positions = rng.integers(0, 700, 120)
    batch.set_bits_batch(positions)
    for p in positions:
        scalar.set(int(p))
    assert batch.to_bytes() == scalar.to_bytes()
    assert batch.memory.stats == scalar.memory.stats


def test_set_bits_batch_duplicates_and_empty():
    batch, scalar = make_pair()
    batch.set_bits_batch([3, 3, 3, 9])
    for p in (3, 3, 3, 9):
        scalar.set(p)
    assert batch.to_bytes() == scalar.to_bytes()
    assert batch.memory.stats == scalar.memory.stats
    before = batch.memory.snapshot()
    batch.set_bits_batch([])
    assert batch.memory.stats == before


def test_set_offsets_batch_matches_scalar(rng):
    batch, scalar = make_pair()
    bases = rng.integers(0, 600, 50)
    offsets = rng.integers(1, 50, 50)
    batch.set_offsets_batch(
        bases, np.stack([np.zeros(50, dtype=int), offsets], axis=1))
    for b, o in zip(bases, offsets):
        scalar.set_offsets(int(b), (0, int(o)))
    assert batch.to_bytes() == scalar.to_bytes()
    assert batch.memory.stats == scalar.memory.stats


# ----------------------------------------------------------------------
# The scatter-OR under both write kernels groups positions by in-byte
# bit and writes each group with one fancy-indexed ``|=``.  Positions
# drawn from a few bytes make every batch duplicate-heavy: different
# bits land in the same byte and the same bit repeats, within a group
# and across groups.
# ----------------------------------------------------------------------
FEW_BYTES = st.integers(min_value=0, max_value=3).flatmap(
    lambda lo: st.integers(min_value=lo * 8, max_value=lo * 8 + 23))


@settings(max_examples=60, deadline=None)
@given(positions=st.lists(FEW_BYTES, min_size=1, max_size=80),
       preset=st.lists(FEW_BYTES, max_size=10))
def test_property_set_bits_batch_duplicate_heavy(positions, preset):
    batch, scalar = make_pair(nbits=64)
    for p in preset:
        batch.set(p, record=False)
        scalar.set(p, record=False)
    batch.set_bits_batch(np.array(positions))
    for p in positions:
        scalar.set(p)
    assert batch.to_bytes() == scalar.to_bytes()
    assert batch.memory.stats == scalar.memory.stats


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(
    st.tuples(st.integers(min_value=0, max_value=30),
              st.integers(min_value=0, max_value=12),
              st.integers(min_value=0, max_value=12)),
    min_size=1, max_size=40))
def test_property_set_offsets_batch_duplicate_heavy(rows):
    batch, scalar = make_pair(nbits=48, word_bits=16)
    bases = np.array([r[0] for r in rows])
    offsets = np.array([r[1:] for r in rows])
    batch.set_offsets_batch(bases, offsets)
    for base, o1, o2 in rows:
        scalar.set_offsets(base, (o1, o2))
    assert batch.to_bytes() == scalar.to_bytes()
    assert batch.memory.stats == scalar.memory.stats


@pytest.mark.parametrize("positions", [
    pytest.param([21, 21, 18, 21, 16, 18], id="one_byte"),
    pytest.param([15, 8, 12, 9, 14, 11, 10, 13, 8, 15], id="all_eight_bits"),
    pytest.param([69, 64, 66, 69, 68, 65, 67, 64], id="last_byte_partial"),
    pytest.param([71, 70, 64, 71], id="last_bit"),
])
def test_set_bits_batch_byte_edges(positions):
    nbits = 70 if max(positions) < 70 else 72
    batch, scalar = make_pair(nbits=nbits)
    batch.set_bits_batch(positions)
    for p in positions:
        scalar.set(p)
    assert batch.to_bytes() == scalar.to_bytes()
    assert batch.memory.stats == scalar.memory.stats
    expected = 0
    for p in positions:
        expected |= 1 << p
    assert int.from_bytes(batch.to_bytes(), "little") == expected


def test_set_bits_batch_across_scatter_chunks(rng):
    """Batches longer than one scatter round: bytes and bits recur
    across rounds, later rounds set bits the first one never named,
    and the bill still counts every position."""
    from repro.bitarray.bitarray import _OR_CHUNK

    batch = BitArray(300, memory=MemoryModel(word_bits=8))
    positions = np.concatenate([rng.integers(0, 150, _OR_CHUNK),
                                rng.integers(100, 300, _OR_CHUNK + 5)])
    positions[-3:] = (299, 0, 299)
    batch.set_bits_batch(positions)
    expected = 0
    for p in set(positions.tolist()):
        expected |= 1 << p
    assert int.from_bytes(batch.to_bytes(), "little") == expected
    assert batch.memory.stats == AccessStats(
        write_words=len(positions), write_ops=len(positions))


def test_set_offsets_batch_fills_every_bit_of_the_last_byte():
    batch, scalar = make_pair(nbits=64)
    batch.set_offsets_batch([56, 60], [0, 1, 2, 3])
    for base in (56, 60):
        scalar.set_offsets(base, (0, 1, 2, 3))
    assert batch.to_bytes() == scalar.to_bytes() == bytes(7) + b"\xff"
    assert batch.memory.stats == scalar.memory.stats


def test_test_bits_and_pairs_batch_match_scalar(rng):
    batch, scalar = make_pair()
    filler = rng.integers(0, 700, 200)
    batch.set_bits_batch(filler, record=False)
    scalar.set_bits_batch(filler, record=False)
    positions = rng.integers(0, 700, 80)
    got = batch.test_bits_batch(positions)
    want = [scalar.test(int(p)) for p in positions]
    assert got.tolist() == want
    assert batch.memory.stats == scalar.memory.stats

    bases = rng.integers(0, 640, 60)
    offsets = rng.integers(1, 57, 60)
    got = batch.test_pairs_batch(bases, offsets)
    want = [scalar.test_pair(int(b), int(o))
            for b, o in zip(bases, offsets)]
    assert got.tolist() == want
    assert batch.memory.stats == scalar.memory.stats


def test_test_offsets_batch_matches_scalar(rng):
    batch, scalar = make_pair()
    filler = rng.integers(0, 700, 250)
    batch.set_bits_batch(filler, record=False)
    scalar.set_bits_batch(filler, record=False)
    bases = rng.integers(0, 600, 40)
    group = np.stack([np.zeros(40, dtype=int),
                      rng.integers(1, 25, 40),
                      rng.integers(25, 50, 40)], axis=1)
    got = batch.test_offsets_batch(bases, group)
    want = [scalar.test_offsets(int(b), tuple(int(o) for o in row))
            for b, row in zip(bases, group)]
    assert [tuple(r) for r in got] == want
    assert batch.memory.stats == scalar.memory.stats


@pytest.mark.parametrize("nbits", [1, 8, 13, 57])
def test_read_windows_batch_matches_scalar(rng, nbits):
    batch, scalar = make_pair()
    filler = rng.integers(0, 700, 300)
    batch.set_bits_batch(filler, record=False)
    scalar.set_bits_batch(filler, record=False)
    starts = rng.integers(0, 700 - nbits, 64)
    got = batch.read_windows_batch(starts, nbits)
    want = [scalar.read_window(int(s), nbits) for s in starts]
    assert [int(v) for v in got] == want
    assert batch.memory.stats == scalar.memory.stats


def test_read_windows_batch_aligned_64_and_wide_fallback(rng):
    batch, scalar = make_pair(nbits=1024)
    filler = rng.integers(0, 1024, 400)
    batch.set_bits_batch(filler, record=False)
    scalar.set_bits_batch(filler, record=False)
    aligned = (rng.integers(0, 120, 16) * 8).astype(np.int64)
    got = batch.read_windows_batch(aligned, 64)
    want = [scalar.read_window(int(s), 64) for s in aligned]
    assert [int(v) for v in got] == want
    assert batch.memory.stats == scalar.memory.stats
    # spans too wide for the uint64 gather fall back element-wise
    wide_starts = aligned[:4] % 800
    got = batch.read_windows_batch(wide_starts, 90)
    want = [scalar.read_window(int(s), 90) for s in wide_starts]
    assert [int(v) for v in got] == want
    assert batch.memory.stats == scalar.memory.stats


@st.composite
def filled_windows(draw):
    """A random buffer plus in-range windows of one width up to 64."""
    nbytes = draw(st.integers(1, 40))
    nbits = draw(st.integers(max(1, 8 * nbytes - 7), 8 * nbytes))
    data = draw(st.binary(min_size=nbytes, max_size=nbytes))
    width = draw(st.integers(1, min(64, nbits)))
    starts = draw(st.lists(st.integers(0, nbits - width),
                           min_size=1, max_size=24))
    return data, nbits, width, starts


@settings(max_examples=300, deadline=None)
@given(case=filled_windows())
def test_property_read_windows_batch_matches_scalar(case):
    """The one-word gather equals the scalar read for any width up to 64
    and any start: misaligned, in the last seven bytes, or in a buffer
    shorter than one word."""
    data, nbits, width, starts = case
    batch = BitArray.from_bytes(data, nbits)
    scalar = BitArray.from_bytes(data, nbits)
    got = batch.read_windows_batch(starts, width)
    assert got.dtype == np.uint64
    assert [int(v) for v in got] \
        == [scalar.read_window(s, width) for s in starts]
    assert batch.memory.stats == scalar.memory.stats


def test_read_windows_batch_in_the_last_seven_bytes(rng):
    """Windows that start in the buffer's last seven bytes have no full
    word of their own: each loads the last word and shifts further."""
    nbits = 8 * 23 - 3
    bits = BitArray.from_bytes(rng.bytes(23), nbits)
    for width in (1, 3, 9, 21):
        starts = list(range(8 * 16, nbits - width + 1))
        got = bits.read_windows_batch(starts, width, record=False)
        assert [int(v) for v in got] \
            == [bits.read_window(s, width, record=False) for s in starts]
    tail = bits.read_windows_batch([nbits - 1], 1, record=False)
    assert int(tail[0]) == bits.peek(nbits - 1)


@pytest.mark.parametrize("nbytes", [1, 3, 7, 8])
def test_read_windows_batch_buffers_up_to_one_word(rng, nbytes):
    nbits = 8 * nbytes
    bits = BitArray.from_bytes(rng.bytes(nbytes), nbits)
    for width in range(1, nbits + 1):
        starts = list(range(nbits - width + 1))
        got = bits.read_windows_batch(starts, width, record=False)
        assert [int(v) for v in got] \
            == [bits.read_window(s, width, record=False) for s in starts]


def test_read_windows_batch_over_attached_readonly_buffer(rng):
    """A read-only shared buffer gathers zero copy, like the original."""
    owner = BitArray(997)
    owner.set_bits_batch(rng.integers(0, 997, 400), record=False)
    attached = BitArray.attach_readonly(owner.export_readonly(), 997)
    assert attached.readonly
    starts = rng.integers(0, 997 - 57, 200)
    got = attached.read_windows_batch(starts, 57)
    want = owner.read_windows_batch(starts, 57)
    assert got.tolist() == want.tolist()
    assert attached.memory.stats == owner.memory.stats
    small = BitArray.attach_readonly(memoryview(b"\xa5\x0f"), 13)
    assert int(small.read_windows_batch([2], 11, record=False)[0]) \
        == small.read_window(2, 11, record=False)


def test_read_windows_batch_wide_fallback_mixed_alignment(rng):
    """A batch whose widest misalignment pushes a 60-bit window past one
    word takes the per-element path, with identical values and bill."""
    batch, scalar = make_pair(nbits=2048)
    filler = rng.integers(0, 2048, 700)
    batch.set_bits_batch(filler, record=False)
    scalar.set_bits_batch(filler, record=False)
    starts = [0, 8, 13, 2047 - 60]
    got = batch.read_windows_batch(starts, 60)
    assert got.dtype == np.uint64
    assert [int(v) for v in got] == [scalar.read_window(s, 60)
                                     for s in starts]
    got = batch.read_windows_batch(starts[:2], 128)
    assert got.dtype == object
    assert list(got) == [scalar.read_window(s, 128) for s in starts[:2]]
    assert batch.memory.stats == scalar.memory.stats


def test_batch_bounds_checks():
    bits = BitArray(64)
    with pytest.raises(IndexError):
        bits.set_bits_batch([0, 64])
    with pytest.raises(IndexError):
        bits.test_bits_batch([-1])
    with pytest.raises(IndexError):
        bits.test_pairs_batch([60], [10])
    with pytest.raises(IndexError):
        bits.test_pairs_batch([10], [-1])
    with pytest.raises(IndexError):
        bits.read_windows_batch([60], 10)
    # negative bases must be rejected even when base + offset is in range,
    # matching the scalar twins' index validation
    with pytest.raises(IndexError):
        bits.set_offsets_batch([-5], [[10]])
    with pytest.raises(IndexError):
        bits.test_offsets_batch([-5], [[10]])
    with pytest.raises(IndexError):
        CounterArray(16).increment_offsets_batch([-5], [[10]])
    stats = bits.memory.stats
    assert stats.read_ops == 0 and stats.write_ops == 0


def test_count_and_clear_all():
    bits = BitArray(203)
    positions = [0, 1, 7, 8, 64, 131, 202]
    bits.set_bits_batch(positions, record=False)
    assert bits.count() == len(positions)
    assert bits.fill_ratio() == pytest.approx(len(positions) / 203)
    bits.clear_all()
    assert bits.count() == 0
    assert bits.to_bytes() == bytes(len(bits.to_bytes()))


def test_as_numpy_is_zero_copy():
    bits = BitArray(64)
    view = bits.as_numpy()
    bits.set(9, record=False)
    assert view[1] == 2  # bit 9 = byte 1, bit 1
    view[0] = 1
    assert bits.peek(0)


def test_counter_batch_ops_match_scalar(rng):
    batch = CounterArray(400, bits_per_counter=4)
    scalar = CounterArray(400, bits_per_counter=4)
    bases = rng.integers(0, 340, 60)
    offsets = rng.integers(1, 14, 60)
    pair = np.stack([np.zeros(60, dtype=int), offsets], axis=1)
    batch.increment_offsets_batch(bases, pair)
    for b, o in zip(bases, offsets):
        scalar.increment_offsets(int(b), (0, int(o)))
    assert batch.to_list() == scalar.to_list()
    assert batch.memory.stats == scalar.memory.stats
    assert batch.nonzero_count() == scalar.nonzero_count()

    batch.decrement_offsets_batch(bases[:20], pair[:20])
    for b, o in zip(bases[:20], offsets[:20]):
        scalar.decrement_offsets(int(b), (0, int(o)))
    assert batch.to_list() == scalar.to_list()
    assert batch.memory.stats == scalar.memory.stats


def test_counter_batch_bounds_and_empty():
    counters = CounterArray(16, bits_per_counter=4)
    with pytest.raises(IndexError):
        counters.increment_offsets_batch([15], [[0, 1]])
    before = counters.memory.stats.snapshot()
    counters.increment_offsets_batch([], [[0, 1]])
    assert counters.memory.stats == before


def test_counter_batch_exception_billing_matches_scalar():
    """A mid-batch underflow must leave the same accounting (and state)
    as the scalar loop: every completed row plus the failing row."""
    from repro.errors import CounterUnderflowError

    batch = CounterArray(64, bits_per_counter=4)
    scalar = CounterArray(64, bits_per_counter=4)
    for c in (batch, scalar):
        for position in (0, 2, 5, 7, 10):  # row 2's position 12 stays 0
            c.increment(position, record=False)
    rows = [(0, [0, 2]), (5, [0, 2]), (10, [0, 2])]
    with pytest.raises(CounterUnderflowError):
        batch.decrement_offsets_batch([b for b, _ in rows],
                                      [o for _, o in rows])
    with pytest.raises(CounterUnderflowError):
        for b, o in rows:
            scalar.decrement_offsets(b, o)
    assert batch.to_list() == scalar.to_list()
    assert batch.memory.stats == scalar.memory.stats


def test_counter_clear_all_bulk():
    counters = CounterArray(50, bits_per_counter=6)
    for i in range(0, 50, 7):
        counters.increment(i, by=3)
    counters.clear_all()
    assert counters.to_list() == [0] * 50
    assert counters.nonzero_count() == 0


def test_record_aggregates_match_scalar_records():
    model_a = MemoryModel(word_bits=64)
    model_b = MemoryModel(word_bits=64)
    spans = [(3, 1), (7, 57), (12, 64), (0, 128)]
    for start, nbits in spans:
        model_a.record_read(start, nbits)
        model_a.record_write(start, nbits)
    costs = model_b.read_cost_batch([s for s, _ in spans],
                                    np.asarray([n for _, n in spans]))
    model_b.record_reads(len(spans), int(costs.sum()))
    model_b.record_writes(len(spans), int(costs.sum()))
    assert model_a.stats == model_b.stats
    assert isinstance(model_a.stats, AccessStats)
