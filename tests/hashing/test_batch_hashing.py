"""Batch hashing must reproduce scalar hash values bit for bit.

The whole batch fast path rests on ``values_batch`` being a pure
vectorisation: same family, same element, same index => same 64-bit
value as the scalar ``values``/``hash`` entry points.  These tests pin
that contract for the overridden families (BLAKE2 lanes in both modes,
Kirsch–Mitzenmacher) and for the base-class fallback used by the pure
mixer families.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._vector import BLOCK_ROWS
from repro.hashing import (
    FAMILY_KINDS,
    Blake2Family,
    DoubleHashingFamily,
    FNV1aFamily,
    Murmur3Family,
    VectorizedFamily,
    XXHash64Family,
    make_family,
)

FAMILIES = [
    Blake2Family(seed=0),
    Blake2Family(seed=7),
    Blake2Family(seed=0, batch_lanes=False),
    DoubleHashingFamily(seed=3),
    Murmur3Family(seed=1),
    FNV1aFamily(seed=2),
    XXHash64Family(seed=4),
    VectorizedFamily(seed=0),
    VectorizedFamily(seed=7),
]

# Crosses the VectorizedFamily short/long ingest boundary (32 bytes)
# in both directions, plus mixed-type canonicalisation.
ELEMENTS = [b"", b"a", "string-element", 1234567890123, b"x" * 200,
            b"y" * 32, b"z" * 33]


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.name)
@pytest.mark.parametrize("count,start", [(1, 0), (5, 0), (8, 0), (9, 0),
                                         (4, 6), (16, 3)])
def test_values_batch_matches_scalar(family, count, start):
    batch = family.values_batch(ELEMENTS, count, start=start)
    assert batch.shape == (len(ELEMENTS), count)
    assert batch.dtype == np.uint64
    for row, element in enumerate(ELEMENTS):
        assert [int(v) for v in batch[row]] == family.values(
            element, count, start=start)


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.name)
def test_positions_batch_matches_scalar(family):
    m = 4093
    batch = family.positions_batch(ELEMENTS, 6, m)
    assert batch.dtype == np.int64
    for row, element in enumerate(ELEMENTS):
        assert batch[row].tolist() == family.positions(element, 6, m)


def test_values_batch_empty_batch_and_zero_count():
    family = Blake2Family(seed=0)
    assert family.values_batch([], 5).shape == (0, 5)
    assert family.values_batch(ELEMENTS, 0).shape == (len(ELEMENTS), 0)
    assert family.positions_batch([], 5, 97).shape == (0, 5)


def test_values_batch_single_element():
    family = Blake2Family(seed=1)
    batch = family.values_batch([b"solo"], 10)
    assert batch.shape == (1, 10)
    assert [int(v) for v in batch[0]] == family.values(b"solo", 10)


# One row short of, at and past a block edge, and one row into a third
# block: VectorizedFamily mixes its lanes ``BLOCK_ROWS`` rows at a time.
BLOCK_EDGE_SIZES = (BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1,
                    2 * BLOCK_ROWS + 1)


@pytest.mark.parametrize("kind", FAMILY_KINDS)
@pytest.mark.parametrize("start", [0, 3])
def test_values_batch_across_block_edges(kind, start):
    """Every family's batch, at every block edge, equals the scalar rows
    and is one C-contiguous array; lane columns still equal it."""
    family = make_family(kind, 11)
    # Mixed widths, with a long (> 32-byte) key now and then.
    keys = [b"edge-%d" % i if i % 997 else b"L" * 40 + b"%d" % i
            for i in range(max(BLOCK_EDGE_SIZES))]
    count = 5
    scalar = np.array([family.values(key, count, start=start)
                       for key in keys], dtype=np.uint64)
    for n in BLOCK_EDGE_SIZES:
        got = family.values_batch(keys[:n], count, start=start)
        assert got.dtype == np.uint64 and got.shape == (n, count)
        assert got.flags.c_contiguous
        assert (got == scalar[:n]).all()
        if start == 0:
            lanes = family.lanes_batch(keys[:n], count)
            for j in range(count):
                assert (lanes.column(j) == got[:, j]).all()


def test_batch_lanes_modes_disagree_like_scalar():
    """Per-index mode is a different hash family than lane mode, and the
    batch paths must preserve that distinction rather than silently
    sharing digests."""
    lanes = Blake2Family(seed=0)
    per_index = Blake2Family(seed=0, batch_lanes=False)
    a = lanes.values_batch(ELEMENTS, 4)
    b = per_index.values_batch(ELEMENTS, 4)
    assert (a != b).any()


# ----------------------------------------------------------------------
# VectorizedFamily reads a batch of byte keys that all have one width
# <= 32 as a dense matrix padded only to whole words.  Every width from
# empty to past the long-key cut-off, and every bytes-like key type,
# must hash exactly like the scalar path.  A cast memoryview (len() is
# its item count, not its byte count) must be caught by the length
# cross-check and canonicalised on the slow path.
# ----------------------------------------------------------------------
KEY_TYPES = {"bytes": bytes, "bytearray": bytearray,
             "memoryview": memoryview}


def _assert_rows_match(family, batch, count=5, start=0):
    got = family.values_batch(batch, count, start=start)
    assert got.shape == (len(batch), count)
    for row, element in zip(got, batch):
        assert [int(v) for v in row] == family.values(element, count,
                                                      start=start)


@pytest.mark.parametrize("width", range(41))
@pytest.mark.parametrize("kind", sorted(KEY_TYPES))
def test_uniform_width_batch_matches_scalar(width, kind):
    rng = np.random.default_rng(width)
    raw = [bytes(rng.integers(0, 256, width, dtype=np.uint8))
           for _ in range(7)]
    _assert_rows_match(VectorizedFamily(seed=3),
                       [KEY_TYPES[kind](r) for r in raw])


@st.composite
def uniform_batches(draw):
    width = draw(st.one_of(st.sampled_from([0, 8, 16, 24, 32, 33]),
                           st.integers(min_value=0, max_value=40)))
    n = draw(st.integers(min_value=1, max_value=12))
    raw = draw(st.lists(st.binary(min_size=width, max_size=width),
                        min_size=n, max_size=n))
    kinds = draw(st.lists(st.sampled_from(sorted(KEY_TYPES)),
                          min_size=n, max_size=n))
    batch = [KEY_TYPES[k](r) for k, r in zip(kinds, raw)]
    if width % 4 == 0 and width and draw(st.booleans()):
        at = draw(st.integers(min_value=0, max_value=n - 1))
        batch[at] = memoryview(raw[at]).cast("I")
    return batch


@settings(max_examples=150, deadline=None)
@given(batch=uniform_batches(),
       seed=st.integers(min_value=0, max_value=2 ** 32),
       count=st.integers(min_value=1, max_value=9),
       start=st.integers(min_value=0, max_value=5))
def test_property_uniform_width_batch_matches_scalar(batch, seed, count,
                                                     start):
    _assert_rows_match(VectorizedFamily(seed=seed), batch, count, start)


def test_cast_memoryview_takes_the_canonical_path():
    """Every key is a 4-item cast memoryview: ``len()`` agrees across
    the batch but is a quarter of each key's byte count."""
    raw = [bytes(range(i, i + 16)) for i in range(5)]
    batch = [memoryview(r).cast("I") for r in raw]
    family = VectorizedFamily(seed=1)
    _assert_rows_match(family, batch)
    assert (family.values_batch(batch, 3)
            == family.values_batch(raw, 3)).all()


def test_values_batch_accepts_any_iterable():
    family = VectorizedFamily(seed=0)
    keys = [b"flow-%08d" % i for i in range(6)]
    want = family.values_batch(keys, 4)
    assert (family.values_batch(tuple(keys), 4) == want).all()
    assert (family.values_batch(iter(keys), 4) == want).all()


# ----------------------------------------------------------------------
# Lane sources (``lanes_batch``): the survivor-round queries read hash
# ``j`` one column at a time, for the rows still alive.  Whether a
# family hashes every lane up front (the base class) or mixes each
# column on demand (VectorizedFamily), a column must equal the matching
# column of ``values_batch``, for any row subset.
# ----------------------------------------------------------------------
LANE_ELEMENTS = st.one_of(
    st.binary(max_size=48), st.text(max_size=40),
    st.integers(min_value=-2 ** 70, max_value=2 ** 70))


@settings(max_examples=120, deadline=None)
@given(kind=st.sampled_from(FAMILY_KINDS),
       seed=st.integers(min_value=0, max_value=2 ** 32),
       elements=st.lists(LANE_ELEMENTS, max_size=24),
       count=st.integers(min_value=1, max_value=9),
       generator=st.booleans(), data=st.data())
def test_property_lane_columns_match_values_batch(kind, seed, elements,
                                                  count, generator, data):
    family = make_family(kind, seed)
    want = family.values_batch(elements, count)
    lanes = family.lanes_batch(
        (e for e in elements) if generator else elements, count)
    assert len(lanes) == len(elements)
    for j in range(count):
        mask = data.draw(st.lists(st.booleans(), min_size=len(elements),
                                  max_size=len(elements)))
        rows = np.flatnonzero(np.array(mask, dtype=bool))
        for subset in (None, rows, rows[:0]):
            got = lanes.column(j, subset)
            assert got.dtype == np.uint64
            expected = want[:, j] if subset is None else want[subset, j]
            assert got.tolist() == expected.tolist()


@pytest.mark.parametrize("kind", FAMILY_KINDS)
def test_lane_columns_cover_every_key_shape(kind):
    """Short, exactly-32-byte and long keys, str and int elements, in
    one batch, plus an empty batch."""
    family = make_family(kind, 5)
    batch = [b"", b"y" * 32, b"z" * 33, b"x" * 200, "str-key", 2 ** 64 + 3,
             -7, b"flow-0001"]
    want = family.values_batch(batch, 6)
    lanes = family.lanes_batch(batch, 6)
    rows = np.array([1, 2, 3, 6])
    for j in range(6):
        assert lanes.column(j).tolist() == want[:, j].tolist()
        assert lanes.column(j, rows).tolist() == want[rows, j].tolist()
    empty = family.lanes_batch([], 6)
    assert len(empty) == 0
    assert empty.column(0).shape == (0,)
    assert empty.column(5, np.array([], dtype=np.int64)).shape == (0,)


def test_vector64_lane_seeds_are_cached_read_only_and_grow():
    """The lane seeds are computed once per family, cannot be written
    through a returned slice, and a request past the cache still
    matches the scalar lanes."""
    family = VectorizedFamily(seed=9)
    seeds = family._lane_array(0, 4)
    assert not seeds.flags.writeable
    assert family._lane_array(0, 4).base is seeds.base
    assert seeds.tolist() == [family._lane(i) for i in range(4)]
    wide = family._lane_array(30, 50)
    assert wide.tolist() == [family._lane(i) for i in range(30, 80)]
    _assert_rows_match(family, ELEMENTS, count=50, start=30)
