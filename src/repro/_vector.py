"""Shared NumPy helpers for the batch fast path.

The batch pipeline (``add_batch`` / ``query_batch`` on every filter)
vectorises hashing, probing and accounting over whole element batches,
but it must stay *observationally identical* to the scalar path: same
filter state, same verdicts, and the same logical memory-access totals —
including the early-exit behaviour of the paper's query procedures,
where a negative stops probing at the first dead position.  The helpers
here encode that early-exit accounting once so every filter bills the
same way: a kernel AND-accumulates its per-probe survivor flags along
each row into ``alive`` and hands it, with the per-probe word costs, to
:func:`record_early_exit`, which bills the probes a scalar loop would
have made without materialising any per-row probe count.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "as_batch_int64",
    "bit_length_u64",
    "group_indices",
    "mod_int64",
    "record_early_exit",
    "row_spans",
]


def as_batch_int64(values) -> np.ndarray:
    """Coerce positions/offsets to an ``int64`` array (no copy if possible)."""
    return np.asarray(values, dtype=np.int64)


def mod_int64(values: np.ndarray, m) -> np.ndarray:
    """``values % m`` for a ``uint64`` array, as ``int64`` positions.

    The remainder is below ``m < 2**63``, so reinterpreting its bits as
    ``int64`` is exact and skips the copy ``astype`` would make.  *m*
    goes through ``np.uint64`` first: NumPy 2 promotes ``uint64 %
    int64`` to ``float64``, where the reinterpretation would be wrong.
    """
    return (values % np.uint64(m)).view(np.int64)


def record_early_exit(memory, alive: np.ndarray, costs: np.ndarray) -> None:
    """Bill *memory* the reads a scalar early-exit loop would make.

    ``alive`` is an ``(n, r >= 1)`` boolean survivor mask,
    AND-accumulated along each row: ``alive[i, j]`` means element ``i``
    was still alive after probe ``j``.  ``costs`` holds the matching
    per-probe word costs.  The scalar loops make probe 0 for every
    element and probe ``j > 0`` only while ``alive[i, j - 1]`` holds, so
    the bill is ``n`` plus the survivors of the first ``r - 1`` columns,
    in ops and in words alike.
    """
    lived = alive[:, :-1]
    # A product with the mask sums about twice as fast as a masked
    # gather or ``sum(where=...)``.
    memory.record_reads(
        len(alive) + int(np.count_nonzero(lived)),
        int(costs[:, 0].sum()) + int((costs[:, 1:] * lived).sum()))


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
