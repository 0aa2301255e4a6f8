"""Batch kernels vs scalar operations on the storage layer.

Every NumPy kernel on :class:`BitArray` / :class:`CounterArray` must be
observationally identical to the scalar loop it replaces: same buffer
bytes afterwards, same returned values, and the same
:class:`AccessStats` tallies (ops *and* word counts).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro._vector import _FLOOR_BLOCK, _FLOOR_MIN_SIZE, mod_int64
from repro.bitarray import AccessStats, BitArray, CounterArray, MemoryModel
from repro.bitarray.bitarray import (_DENSE_BITS_PER_POSITION, _DENSE_MAX_BITS,
                                     _OR_CHUNK, _or_bits)


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


@pytest.mark.parametrize("word_bits", [64, 32, 16])
def test_set_pairs_batch_matches_scalar(rng, word_bits):
    """Pair writes bill one write over ``offset + 1`` bits per pair; on
    narrow memory models a pair can straddle two or more words."""
    batch, scalar = make_pair(word_bits=word_bits)
    bases = rng.integers(0, 640, (30, 4))
    offsets = rng.integers(0, 57, (30, 1))
    batch.set_pairs_batch(bases, offsets)
    for row, o in zip(bases, offsets[:, 0]):
        for b in row:
            scalar.set_offsets(int(b), (0, int(o)))
    assert batch.to_bytes() == scalar.to_bytes()
    assert batch.memory.stats == scalar.memory.stats


@settings(max_examples=60, deadline=None)
@given(pairs=st.lists(
    st.tuples(st.integers(min_value=0, max_value=30),
              st.integers(min_value=0, max_value=17)),
    min_size=1, max_size=40))
def test_property_set_pairs_batch_duplicate_heavy(pairs):
    batch, scalar = make_pair(nbits=48, word_bits=16)
    batch.set_pairs_batch([b for b, _ in pairs], [o for _, o in pairs])
    for base, offset in pairs:
        scalar.set_offsets(base, (0, offset))
    assert batch.to_bytes() == scalar.to_bytes()
    assert batch.memory.stats == scalar.memory.stats


def test_set_pairs_batch_bounds_empty_and_readonly():
    bits = BitArray(64)
    for bases, offsets in (([60], [4]), ([-5], [10]), ([10], [-1]),
                           ([64], [0])):
        with pytest.raises(IndexError):
            bits.set_pairs_batch(bases, offsets)
    bits.set_pairs_batch(np.empty((0, 4), dtype=np.int64), [[3]])
    assert bits.memory.stats == AccessStats()
    assert bits.to_bytes() == bytes(8)
    frozen = BitArray.attach_readonly(bytes(8), 64)
    with pytest.raises(TypeError):
        frozen.set_pairs_batch([0], [1])
    assert frozen.memory.stats == AccessStats()


@pytest.mark.parametrize("group", [(), np.empty((3, 0), dtype=np.int64)],
                         ids=["empty_tuple", "n_by_0"])
def test_empty_offset_group_is_a_no_op(group):
    """Like their scalar twins, the batch offset kernels write, read and
    bill nothing for an empty offset group."""
    bits = BitArray(64)
    bits.set(5, record=False)
    bits.set_offsets_batch([1, 2, 3], group)
    got = bits.test_offsets_batch([1, 2, 3], group)
    assert got.shape == (3, 0) and got.dtype == bool
    assert bits.test_offsets(1, ()) == ()
    bits.set_offsets(1, ())
    assert bits.memory.stats == AccessStats()
    assert bits.to_bytes() == BitArray.from_bytes(
        b"\x20" + bytes(7), 64).to_bytes()
    counters = CounterArray(16, bits_per_counter=4)
    counters.increment_offsets_batch([1, 2, 3], group)
    counters.decrement_offsets_batch([1, 2, 3], group)
    counters.increment_offsets(1, ())
    assert counters.memory.stats == AccessStats()
    assert counters.to_list() == [0] * 16


def test_offsets_batch_shared_group_matches_scalar(rng):
    """A ``(g,)`` group broadcasts over every base: one span per row."""
    batch, scalar = make_pair(word_bits=32)
    bases = rng.integers(0, 600, 40)
    group = (0, 9, 30)
    batch.set_offsets_batch(bases, group)
    for b in bases:
        scalar.set_offsets(int(b), group)
    got = batch.test_offsets_batch(bases, group)
    want = [scalar.test_offsets(int(b), group) for b in bases]
    assert [tuple(r) for r in got] == want
    assert batch.memory.stats == scalar.memory.stats


# ----------------------------------------------------------------------
# The write kernels share one scatter-OR.  Positions drawn from a few
# bytes make every batch duplicate-heavy: different bits land in the
# same byte and the same bit repeats.
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
    """A batch of twice a scatter chunk on a small array: bytes and
    bits recur across it, its tail sets bits its head never named, and
    the bill still counts every position."""
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


@pytest.mark.parametrize("starts, nbits, message", [
    ([3, -1, 7], 4, "bit index -1 out of range for BitArray of 64 bits"),
    ([3, 64, -2], 4, "bit index -2 out of range for BitArray of 64 bits"),
    ([0, 64], 1, "bit index 64 out of range for BitArray of 64 bits"),
    ([0, 61], 4, "window of 4 bits exceeds BitArray of 64 bits"),
    ([0], 65, "window of 65 bits exceeds BitArray of 64 bits"),
])
def test_read_windows_batch_bounds_errors(starts, nbits, message):
    """Each bad batch raises the error of the first failing check, bills
    nothing, and a window ending on the last bit is still accepted."""
    bits = BitArray(64)
    with pytest.raises(IndexError) as raised:
        bits.read_windows_batch(starts, nbits)
    assert str(raised.value) == message
    assert bits.memory.stats == AccessStats()
    assert bits.read_windows_batch([60, 0], 4).tolist() == [0, 0]


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


# ----------------------------------------------------------------------
# The scatter-OR itself, against the scalar loop, on both branches: the
# dense flag-and-pack pass and the sparse write-and-repair rounds.  A
# sparse round is one fancy ``view[byte] |= mask``, so the rounds made
# are the ``__setitem__`` calls a counting buffer sees; the dense pass
# makes none.
# ----------------------------------------------------------------------
class CountingBuffer(np.ndarray):
    """A ``uint8`` buffer that counts the fancy writes made to it."""

    def __setitem__(self, index, value):
        self.writes += 1
        super().__setitem__(index, value)


def scatter(preset: bytes, positions):
    """``(buffer, rounds)`` after :func:`_or_bits`, checked against the
    scalar ``buf[p >> 3] |= 1 << (p & 7)`` loop and for an untouched
    position array."""
    want = bytearray(preset)
    for p in positions:
        want[p >> 3] |= 1 << (p & 7)
    view = np.frombuffer(bytearray(preset), dtype=np.uint8).view(
        CountingBuffer)
    view.writes = 0
    positions = np.array(positions, dtype=np.int64)
    before = positions.copy()
    _or_bits(view, positions)
    assert view.tobytes() == bytes(want)
    assert np.array_equal(positions, before)
    return view, view.writes


def is_dense(nbytes: int, n: int) -> bool:
    return (8 * nbytes <= _DENSE_MAX_BITS
            and n * _DENSE_BITS_PER_POSITION >= 8 * nbytes)


@st.composite
def scatter_cases(draw):
    """A buffer with some bits already set and a batch for it, dense or
    sparse by its size, positions often crowded into a few bytes."""
    nbytes = draw(st.sampled_from([1, 3, 8, 40, 257, 4096]))
    preset = draw(st.binary(min_size=nbytes, max_size=nbytes))
    lo = draw(st.integers(0, nbytes - 1))
    hi = draw(st.integers(lo, min(nbytes - 1, lo + draw(
        st.sampled_from([0, 2, nbytes])))))
    positions = draw(st.lists(st.integers(8 * lo, 8 * hi + 7),
                              max_size=300))
    return preset, positions


@settings(max_examples=300, deadline=None)
@given(case=scatter_cases())
def test_property_or_bits_matches_scalar(case):
    preset, positions = case
    _, rounds = scatter(preset, positions)
    if is_dense(len(preset), len(positions)):
        assert rounds == 0
    else:
        assert 1 <= rounds <= 8 or not positions


@settings(max_examples=100, deadline=None)
@given(byte=st.integers(0, 4095),
       bits=st.lists(st.integers(0, 7), min_size=1, max_size=60))
@example(byte=77, bits=list(range(8)) * 3)
def test_property_or_bits_one_byte_needs_at_most_eight_rounds(byte, bits):
    """Every position names the same byte of a sparse buffer: each round
    lands at least one of the bits still missing, so eight suffice."""
    positions = [8 * byte + b for b in bits]
    assert not is_dense(4096, len(positions))
    view, rounds = scatter(bytes(4096), positions)
    assert rounds <= len(set(bits)) <= 8
    assert int(view[byte]) == sum(1 << b for b in set(bits))


@pytest.mark.parametrize("delta", [-1, 0, 1])
def test_or_bits_at_the_sparse_chunk_edges(rng, delta):
    """Batches of one sparse chunk and one position either side: the
    last chunk may hold one position, and each chunk makes its own
    rounds.  The tail repeats bytes of the head, partly preset."""
    nbytes = 1 << 19
    n = _OR_CHUNK + delta
    assert not is_dense(nbytes, n)
    positions = rng.integers(0, 8 * nbytes, n)
    positions[-64:] = positions[:64] ^ 1
    preset = bytearray(nbytes)
    preset[int(positions[0]) >> 3] = 0xFF
    _, rounds = scatter(bytes(preset), positions.tolist())
    chunks = -(-n // _OR_CHUNK)
    assert chunks <= rounds <= 8 * chunks


@pytest.mark.parametrize("nbytes", [64, 4096, (1 << 21) // 8])
@pytest.mark.parametrize("delta", [-1, 0, 1])
def test_or_bits_at_the_density_threshold(rng, nbytes, delta):
    """One position fewer than the threshold runs sparse; at it and
    above, dense."""
    n = 8 * nbytes // _DENSE_BITS_PER_POSITION + delta
    preset = rng.bytes(nbytes)
    _, rounds = scatter(preset, rng.integers(0, 8 * nbytes, n).tolist())
    assert (rounds == 0) == (delta >= 0)


@pytest.mark.parametrize("extra_bytes", [0, 1])
def test_or_bits_at_the_dense_size_limit(rng, extra_bytes):
    """The densest batch on a buffer one byte past the flag limit runs
    sparse: the flag array stays within its bound."""
    nbytes = _DENSE_MAX_BITS // 8 + extra_bytes
    positions = rng.integers(0, 8 * nbytes, nbytes).tolist()
    _, rounds = scatter(bytes(nbytes), positions)
    assert (rounds == 0) == (extra_bytes == 0)


@pytest.mark.parametrize("nbytes", [8, 1 << 19])
def test_or_bits_empty_batch(nbytes):
    _, rounds = scatter(b"\x5a" * nbytes, [])
    assert rounds == 0


# ----------------------------------------------------------------------
# mod_int64 against Python's ``%``, below and above the size where it
# switches to floor division, on contiguous and strided arrays.
# ----------------------------------------------------------------------
MODULI = [1, 2, 56, 2 ** 25, 577000, 2 ** 63 - 1]


@settings(max_examples=200, deadline=None)
@given(m=st.sampled_from(MODULI),
       drawn=st.lists(st.integers(0, 2 ** 64 - 1), max_size=40),
       big=st.booleans(), strided=st.booleans())
def test_property_mod_int64_matches_python(m, drawn, big, strided):
    words = [0, 1, m - 1, m, m + 1, 2 ** 63, 2 ** 64 - 1] + drawn
    if big:
        words = words * (_FLOOR_MIN_SIZE // len(words) + 1)
    values = np.array(words, dtype=np.uint64)
    assert (values.size >= _FLOOR_MIN_SIZE) == big
    if strided:
        grid = np.zeros((values.size, 3), dtype=np.uint64)
        grid[:, 1] = values
        values = grid[:, 1]
    got = mod_int64(values, m)
    assert got.dtype == np.int64
    assert got.tolist() == [w % m for w in words]


@pytest.mark.parametrize("m", MODULI)
def test_mod_int64_across_floor_blocks(m):
    """Arrays one short of a floor-division block, one exact block and
    one past it, as a strided column: every block is reduced."""
    rng = np.random.default_rng(m % 1000)
    for n in (_FLOOR_BLOCK - 1, _FLOOR_BLOCK, _FLOOR_BLOCK + 1):
        grid = rng.integers(0, 2 ** 64, (n, 2), dtype=np.uint64)
        grid[-3:, 1] = (0, m - 1, 2 ** 64 - 1)
        words = grid[:, 1].tolist()
        assert mod_int64(grid[:, 1], m).tolist() == [w % m for w in words]


# ----------------------------------------------------------------------
# A power-of-two m reduces by one ``&`` with ``m - 1`` (no division), at
# every size; the bits must still be Python's ``%``.
# ----------------------------------------------------------------------
POW2_MODULI = [1, 2, 2 ** 25, 2 ** 62]


@settings(max_examples=200, deadline=None)
@given(m=st.sampled_from(POW2_MODULI),
       drawn=st.lists(st.integers(0, 2 ** 64 - 1), max_size=40),
       big=st.booleans(), strided=st.booleans())
def test_property_mod_int64_power_of_two_matches_python(m, drawn, big,
                                                        strided):
    words = [0, 1, m - 1, m, m + 1, 2 ** 63, 2 ** 64 - 1] + drawn
    if big:
        words = words * (_FLOOR_MIN_SIZE // len(words) + 1)
    values = np.array(words, dtype=np.uint64)
    if strided:
        grid = np.zeros((values.size, 2), dtype=np.uint64)
        grid[:, 0] = values
        values = grid[:, 0]
    assert values.flags.c_contiguous == (not strided or values.size < 2)
    got = mod_int64(values, m)
    assert got.dtype == np.int64
    assert got.tolist() == [w % m for w in words]
    assert values.tolist() == words  # the input is left as it was


@pytest.mark.parametrize("m", POW2_MODULI)
def test_mod_int64_power_of_two_accepts_numpy_moduli(m):
    """A NumPy-integer m takes the same low-bits path."""
    words = [0, m - 1, 2 ** 64 - 1, 12345678901234567]
    values = np.array(words, dtype=np.uint64)
    for modulus in (m, np.uint64(m), np.int64(m)):
        assert mod_int64(values, modulus).tolist() == [w % m for w in words]
