"""Shared NumPy helpers for the batch fast path.

The batch pipeline (``add_batch`` / ``query_batch`` on every filter)
vectorises hashing, probing and accounting over whole element batches,
but it must stay *observationally identical* to the scalar path: same
filter state, same verdicts, and the same logical memory-access totals —
including the early-exit behaviour of the paper's query procedures,
where a negative stops probing at the first dead position.  The helpers
here encode that early-exit accounting once so every filter bills the
same way: a kernel AND-accumulates its per-probe survivor flags along
each row into ``alive`` and hands it, with the word cost of its probes,
to :func:`record_early_exit`, which bills the probes a scalar loop would
have made without materialising any per-row probe count.

Word costs follow one rule, :func:`word_costs`: the paper bounds every
pair, triple and count window by ``w_bar = w - 7`` bits, so a probe of
``span`` bits is one word fetch from any bit offset whenever
``7 + span <= w``.  When a batch's widest span fits, the cost is the
scalar ``1`` and no cost matrix is built; only configurations past the
bound (a narrower ``MemoryModel`` than the offset policy, or
``c_max > w - 7``) pay for the exact per-probe
``MemoryModel.read_cost_batch``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "BLOCK_ROWS",
    "as_batch_int64",
    "bit_length_u64",
    "group_indices",
    "mod_int64",
    "record_early_exit",
    "row_spans",
    "survivor_rounds",
    "word_costs",
]


#: Rows per block of the blocked batch pipelines (the lane mix of
#: ``VectorizedFamily.values_batch`` and ShBF_A's streamed build): a
#: block's ``(rows, lanes)`` ``uint64`` work arrays stay a few hundred
#: KiB, inside a core's L2, where a whole large batch's would not.
BLOCK_ROWS = 4096

#: Smallest array :func:`mod_int64` reduces by floor division: the
#: measured crossover with ``%``, on contiguous and strided input.
_FLOOR_MIN_SIZE = 1024

#: Elements per floor-division block of :func:`mod_int64`: bounds its
#: quotient temporary at 512 KiB beside the result.
_FLOOR_BLOCK = 1 << 16


def as_batch_int64(values) -> np.ndarray:
    """Coerce positions/offsets to an ``int64`` array (no copy if possible)."""
    return np.asarray(values, dtype=np.int64)


def mod_int64(values: np.ndarray, m) -> np.ndarray:
    """``values % m`` for a ``uint64`` array, as ``int64`` positions.

    A power-of-two *m* keeps the low bits: one ``values & (m - 1)``,
    the same bits as ``%`` with no division.  Any other *m* is
    computed as ``values - (values // m) * m``: NumPy divides a
    contiguous ``uint64`` array by one scalar with a precomputed
    multiply-and-shift (libdivide), several times faster than the
    hardware division ``%`` makes per element.  The result starts as a
    contiguous copy of *values*, which also serves strided columns, and
    is reduced in place block by block, so beside it only one block's
    quotient is allocated.  The form is exact: ``(values // m) * m <=
    values`` never wraps.  Below ``_FLOOR_MIN_SIZE`` elements the extra
    ufunc calls cost more than the divisions they save, and ``%`` is
    used.

    The remainder is below ``m < 2**63``, so reinterpreting its bits as
    ``int64`` is exact and skips the copy ``astype`` would make.  *m*
    goes through ``np.uint64`` first: NumPy 2 promotes ``uint64 %
    int64`` to ``float64``, where the reinterpretation would be wrong.
    """
    m = int(m)
    if m > 0 and not m & (m - 1):
        return (values & np.uint64(m - 1)).view(np.int64)
    m = np.uint64(m)
    if values.size < _FLOOR_MIN_SIZE:
        return (values % m).view(np.int64)
    rem = values.copy()
    flat = rem.reshape(-1)
    for start in range(0, flat.size, _FLOOR_BLOCK):
        block = flat[start:start + _FLOOR_BLOCK]
        quotient = block // m
        quotient *= m
        block -= quotient
    return rem.view(np.int64)


def word_costs(memory, starts, spans):
    """Word costs of accesses of *spans* bits from *starts* bits.

    A fetch starts at the byte holding its first bit, so it spends at
    most 7 bits reaching it: every span fits one word from any start
    exactly when the widest is at most
    ``memory.max_single_read_offset() + 1`` (``7 + span <= w``).  Then
    the cost is the scalar ``1``; otherwise it is the exact per-access
    array ``memory.read_cost_batch(starts, spans)``.  *spans* is an int
    or an array broadcasting with *starts*, and at least one access is
    costed.
    """
    if int(np.max(spans)) <= memory.max_single_read_offset() + 1:
        return 1
    return memory.read_cost_batch(starts, spans)


def record_early_exit(memory, alive: np.ndarray, costs) -> None:
    """Bill *memory* the reads a scalar early-exit loop would make.

    ``alive`` is an ``(n, r >= 1)`` boolean survivor mask,
    AND-accumulated along each row: ``alive[i, j]`` means element ``i``
    was still alive after probe ``j``.  ``costs`` holds the matching
    per-probe word costs, or is one ``int`` that every probe costs (see
    :func:`word_costs`).  The scalar loops make probe 0 for every
    element and probe ``j > 0`` only while ``alive[i, j - 1]`` holds, so
    the bill is ``n`` plus the survivors of the first ``r - 1`` columns,
    in ops and in words alike.
    """
    lived = alive[:, :-1]
    ops = len(alive) + int(np.count_nonzero(lived))
    if isinstance(costs, int):
        memory.record_reads(ops, ops * costs)
        return
    # A product with the mask sums about twice as fast as a masked
    # gather or ``sum(where=...)``.
    memory.record_reads(
        ops, int(costs[:, 0].sum()) + int((costs[:, 1:] * lived).sum()))


def survivor_rounds(lanes, rounds: int, m: int, bits,
                    offsets=None) -> np.ndarray:
    """Early-exit membership verdicts for a batch, in survivor rounds.

    Round ``j`` reads lane ``j`` of *lanes* (a
    :meth:`~repro.hashing.family.HashFamily.lanes_batch` source) for
    only the rows every earlier round passed, reduces it ``% m`` to
    probe starts, and keeps the rows whose bit is set in the
    :class:`~repro.bitarray.BitArray` *bits* (``test_bits_batch``), or
    whose pair is, given the rows' *offsets* (``test_pairs_batch``);
    the batch ends once no row survives.  So a lazy lane source stops
    hashing with the probes, as the scalar query does (§3.2): a row
    that dies in round ``j`` is never mixed for a later lane.  Each
    round's probes are billed their ``bits.memory.read_cost_batch``
    word costs over spans of 1 bit, or ``offsets + 1`` bits; the totals
    go to one ``record_reads`` after the last round, the scalar loop's
    early-exit bill.  The spans are computed once, and survivors are
    compacted with ``np.flatnonzero`` and integer takes, which cost a
    fraction of boolean-mask indexing on random masks.
    """
    memory = bits.memory
    spans = 1 if offsets is None else offsets + 1
    rows = None
    ops = words = 0
    for j in range(rounds):
        starts = mod_int64(lanes.column(j, rows), m)
        if offsets is None:
            ok = bits.test_bits_batch(starts, record=False)
        else:
            ok = bits.test_pairs_batch(starts, offsets, record=False)
        ops += len(starts)
        words += int(memory.read_cost_batch(starts, spans).sum())
        keep = np.flatnonzero(ok)
        rows = keep if rows is None else rows[keep]
        if offsets is not None:
            offsets = offsets[keep]
            spans = spans[keep]
        if not len(rows):
            break
    memory.record_reads(ops, words)
    verdicts = np.zeros(len(lanes), dtype=bool)
    verdicts[rows] = True
    return verdicts


def row_spans(offsets: np.ndarray, n: int) -> np.ndarray:
    """Per-row ``max(offsets[row]) + 1``, broadcast to ``(n,)``.

    ``offsets`` is a non-empty ``(1, g)`` or ``(n, g)`` offset group
    matrix.  This is the span a windowed write or read bills from each
    base.  It is computed one column at a time with ``np.maximum``: a
    row-wise ``max(axis=-1)`` over narrow rows costs several times
    more.
    """
    span = offsets[:, 0].copy()
    for j in range(1, offsets.shape[1]):
        np.maximum(span, offsets[:, j], out=span)
    span += 1
    return np.broadcast_to(span, (n,))


def group_indices(labels: np.ndarray, n_groups: int):
    """Yield ``(label, indices)`` for each non-empty label bucket.

    ``labels`` is an ``(n,)`` integer array with values in
    ``[0, n_groups)``.  One stable argsort groups all rows sharing a
    label; the returned index arrays partition ``arange(n)`` and preserve
    the original order within each bucket, so scatter-back with
    ``out[indices] = result`` reconstructs input order exactly.  This is
    the routing kernel of the sharded store: one vectorised pass instead
    of a Python dict of per-shard lists.
    """
    labels = as_batch_int64(labels)
    if labels.size == 0:
        return
    order = np.argsort(labels, kind="stable")
    bounds = np.searchsorted(labels[order], np.arange(n_groups + 1))
    for group in range(n_groups):
        lo, hi = bounds[group], bounds[group + 1]
        if lo != hi:
            yield group, order[lo:hi]


def bit_length_u64(values: np.ndarray) -> np.ndarray:
    """Vectorised ``int.bit_length`` for a ``uint64`` array, as ``int64``.

    Used to extract the largest/smallest candidate from a multiplicity
    mask without float ``log2`` (which misrounds near 2**53 and above).
    Smearing the top set bit into every lower position leaves exactly
    ``bit_length`` ones, which one ``bitwise_count`` then counts.
    """
    v = np.array(values, dtype=np.uint64)
    for shift in (1, 2, 4, 8, 16, 32):
        v |= v >> np.uint64(shift)
    return np.bitwise_count(v).astype(np.int64)
