"""The shared batch helpers of ``repro._vector``, tested directly.

``bit_length_u64`` must equal ``int.bit_length`` on every ``uint64``;
``mod_int64`` must equal ``(values % m).astype(np.int64)``;
``record_early_exit`` must bill what a scalar early-exit loop bills.
The filter cases at the end run ShBF_A, ShBF_x and the generalized
filter over a 32-bit memory model, so that many probe windows span two
or three words and a mis-billed word shows in the totals.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro._vector import (bit_length_u64, mod_int64, record_early_exit,
                           word_costs)
from repro.bitarray import MemoryModel
from repro.core import (
    GeneralizedShiftingBloomFilter,
    ShiftingAssociationFilter,
    ShiftingMultiplicityFilter,
)
from tests.conftest import make_elements

MEMBERS = make_elements(300, "member")
ABSENT = make_elements(300, "absent")


# ----------------------------------------------------------------------
# bit_length_u64
# ----------------------------------------------------------------------
def _edge_words():
    words = [0, 2 ** 64 - 1]
    words += [2 ** j for j in range(64)]
    words += [2 ** j - 1 for j in range(65)]
    return words


@pytest.mark.parametrize("words", [
    pytest.param(_edge_words(), id="edges"),
    pytest.param(
        np.random.default_rng(7).integers(
            0, 2 ** 64, 5000, dtype=np.uint64, endpoint=False).tolist(),
        id="random"),
    pytest.param(
        (np.random.default_rng(8).integers(
            0, 2 ** 64, 5000, dtype=np.uint64)
         >> np.random.default_rng(9).integers(
             0, 64, 5000).astype(np.uint64)).tolist(),
        id="random_widths"),
])
def test_bit_length_u64_matches_int_bit_length(words):
    values = np.array(words, dtype=np.uint64)
    got = bit_length_u64(values)
    assert got.dtype == np.int64
    assert got.tolist() == [int(w).bit_length() for w in words]
    # The input is left alone.
    assert values.tolist() == [int(w) for w in words]


def test_bit_length_u64_keeps_the_shape():
    values = np.array([[0, 1, 2], [3, 2 ** 63, 2 ** 64 - 1]],
                      dtype=np.uint64)
    assert bit_length_u64(values).tolist() == [[0, 1, 2], [2, 64, 64]]
    assert bit_length_u64(np.zeros(0, dtype=np.uint64)).shape == (0,)


# ----------------------------------------------------------------------
# mod_int64
# ----------------------------------------------------------------------
WORDS = np.array(
    _edge_words() + np.random.default_rng(11).integers(
        0, 2 ** 64, 4096, dtype=np.uint64).tolist(), dtype=np.uint64)


@pytest.mark.parametrize("m", [1, 2 ** 20 + 7, 2 ** 32 + 15, 2 ** 62])
@pytest.mark.parametrize("as_type", [int, np.int64, np.uint64])
def test_mod_int64_matches_astype(m, as_type):
    modulus = as_type(m)
    got = mod_int64(WORDS, modulus)
    assert got.dtype == np.int64
    expected = (WORDS % np.uint64(m)).astype(np.int64)
    assert np.array_equal(got, expected)
    assert [int(v) for v in got[:200]] == [
        int(w) % m for w in WORDS[:200]]


def test_mod_int64_keeps_the_shape():
    grid = WORDS[:4096].reshape(512, 8)
    got = mod_int64(grid[:, :5], 2 ** 20 + 7)
    assert got.shape == (512, 5)
    assert np.array_equal(
        got, (grid[:, :5] % np.uint64(2 ** 20 + 7)).astype(np.int64))


# ----------------------------------------------------------------------
# record_early_exit
# ----------------------------------------------------------------------
def scalar_bill(ok, costs):
    """The scalar loops' bill: probe until (and including) the first
    failing probe of each row."""
    ops = words = 0
    for row_ok, row_costs in zip(ok.tolist(), costs.tolist()):
        for passed, cost in zip(row_ok, row_costs):
            ops += 1
            words += cost
            if not passed:
                break
    return ops, words


def billed(ok, costs):
    memory = MemoryModel()
    record_early_exit(memory, np.logical_and.accumulate(ok, axis=1), costs)
    return memory.stats.read_ops, memory.stats.read_words


@pytest.mark.parametrize("n, r", [(0, 4), (1, 1), (7, 1), (50, 3),
                                  (400, 8), (33, 17)])
@pytest.mark.parametrize("p_ok", [0.0, 0.5, 0.9, 1.0])
def test_record_early_exit_matches_scalar_loop(n, r, p_ok):
    rng = np.random.default_rng([n, r, int(p_ok * 10)])
    # Non-monotone flags: a probe after a failure may pass again, and
    # must still not be billed.
    ok = rng.random((n, r)) < p_ok
    costs = rng.integers(1, 4, (n, r))      # one to three words
    assert billed(ok, costs) == scalar_bill(ok, costs)


def test_record_early_exit_edges():
    ok = np.array([[True, False, True, True],
                   [False, True, True, True],
                   [True, True, True, True],
                   [True, True, True, False]])
    costs = np.array([[1, 2, 3, 1],
                      [3, 1, 1, 1],
                      [2, 2, 2, 2],
                      [1, 1, 1, 3]])
    # Row by row: 2 probes (3 words), 1 (3), 4 (8), 4 (6).
    assert billed(ok, costs) == (11, 20) == scalar_bill(ok, costs)
    assert billed(ok[:0], costs[:0]) == (0, 0)


# ----------------------------------------------------------------------
# Batch/scalar equivalence over a 32-bit memory model
# ----------------------------------------------------------------------
def assert_multi_word(structure):
    stats = structure.memory.stats
    assert stats.read_words > stats.read_ops > 0


@pytest.mark.parametrize("word_bits", [64, 128])
def test_association_batch_bills_multi_word_reads(word_bits):
    def make():
        return ShiftingAssociationFilter(
            m=4096, k=6, word_bits=word_bits,
            memory=MemoryModel(word_bits=32))

    batch, scalar = make(), make()
    batch.build_batch(MEMBERS[:200], MEMBERS[100:])
    scalar.build(MEMBERS[:200], MEMBERS[100:])
    assert batch.memory.stats == scalar.memory.stats
    queries = MEMBERS + ABSENT
    got = batch.query_batch(queries)
    want = [scalar.query(q) for q in queries]
    assert all(a is b for a, b in zip(got, want)) and len(got) == len(want)
    assert batch.memory.stats == scalar.memory.stats
    assert_multi_word(batch)


@pytest.mark.parametrize("c_max", [57, 80])
@pytest.mark.parametrize("report", ["largest", "smallest"])
def test_multiplicity_batch_bills_multi_word_reads(c_max, report):
    def make():
        return ShiftingMultiplicityFilter(
            m=2048, k=4, c_max=c_max, report=report,
            memory=MemoryModel(word_bits=32))

    batch, scalar = make(), make()
    counts = [(i % c_max) + 1 for i in range(len(MEMBERS))]
    batch.add_batch(MEMBERS, counts)
    for element, count in zip(MEMBERS, counts):
        scalar.add(element, count)
    assert batch.memory.stats == scalar.memory.stats
    queries = MEMBERS + ABSENT
    assert batch.query_batch(queries).tolist() \
        == [scalar.query(q).reported for q in queries]
    assert batch.memory.stats == scalar.memory.stats
    assert_multi_word(batch)


@pytest.mark.parametrize("k, t", [(12, 2), (8, 3), (6, 1)])
def test_generalized_batch_bills_multi_word_reads(k, t):
    def make():
        return GeneralizedShiftingBloomFilter(
            m=2048, k=k, t=t, memory=MemoryModel(word_bits=32))

    batch, scalar = make(), make()
    batch.add_batch(MEMBERS)
    scalar.update(MEMBERS)
    assert batch.memory.stats == scalar.memory.stats
    queries = MEMBERS + ABSENT
    got = batch.query_batch(queries)
    assert got.dtype == bool
    assert got.tolist() == [scalar.query(q) for q in queries]
    assert batch.memory.stats == scalar.memory.stats
    assert_multi_word(batch)


def test_record_early_exit_scalar_cost_matches_ones_matrix():
    rng = np.random.default_rng(9)
    ok = np.logical_and.accumulate(rng.random((300, 6)) < 0.7, axis=1)
    for cost in (1, 3):
        with_scalar, with_matrix = MemoryModel(), MemoryModel()
        record_early_exit(with_scalar, ok, cost)
        record_early_exit(with_matrix, ok, np.full(ok.shape, cost))
        assert with_scalar.stats == with_matrix.stats


# ----------------------------------------------------------------------
# word_costs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("word_bits", [8, 16, 32, 64, 128])
def test_word_costs_is_one_exactly_when_every_start_costs_one(word_bits):
    memory = MemoryModel(word_bits=word_bits)
    starts = np.arange(8)
    for span in range(1, word_bits + 2):
        exact = memory.read_cost_batch(starts, span)
        costs = word_costs(memory, starts, span)
        if int(exact.max()) == 1:
            assert costs == 1
        else:
            assert np.array_equal(costs, exact)


def test_word_costs_decides_on_the_widest_span():
    memory = MemoryModel(word_bits=64)
    starts = np.array([3, 7, 12])
    assert word_costs(memory, starts, np.array([1, 57, 30])) == 1
    spans = np.array([1, 58, 30])
    assert np.array_equal(word_costs(memory, starts, spans),
                          memory.read_cost_batch(starts, spans))
