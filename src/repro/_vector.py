"""Shared NumPy helpers for the batch fast path.

The batch pipeline (``add_batch`` / ``query_batch`` on every filter)
vectorises hashing, probing and accounting over whole element batches,
but it must stay *observationally identical* to the scalar path: same
filter state, same verdicts, and the same logical memory-access totals —
including the early-exit behaviour of the paper's query procedures,
where a negative stops probing at the first dead position.  The helpers
here encode that early-exit accounting once so every filter bills the
same way.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "as_batch_int64",
    "billed_prefix",
    "bit_length_u64",
    "group_indices",
    "prefix_cost_sum",
    "row_spans",
]


def as_batch_int64(values) -> np.ndarray:
    """Coerce positions/offsets to an ``int64`` array (no copy if possible)."""
    return np.asarray(values, dtype=np.int64)


def billed_prefix(ok: np.ndarray) -> np.ndarray:
    """Per-row count of probes a scalar early-exit loop would perform.

    ``ok`` is an ``(n, r)`` boolean matrix where ``ok[i, j]`` means probe
    ``j`` of element ``i`` *kept the query alive*.  The scalar loops bill
    every probe up to and including the first failing one, or all ``r``
    when none fails, so the billed count is ``first_false + 1`` (or
    ``r``).  Returns an ``(n,)`` int64 array.
    """
    n, r = ok.shape
    if r == 0:
        return np.zeros(n, dtype=np.int64)
    fail = ~ok
    any_fail = fail.any(axis=1)
    return np.where(any_fail, fail.argmax(axis=1) + 1, r).astype(np.int64)


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


def prefix_cost_sum(costs: np.ndarray, billed: np.ndarray) -> int:
    """Sum ``costs[i, :billed[i]]`` over all rows (total billed words)."""
    n, r = costs.shape
    if r == 0 or n == 0:
        return 0
    mask = np.arange(r) < billed[:, None]
    return int(costs[mask].sum())


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
    """Vectorised ``int.bit_length`` for a ``uint64`` array.

    Used to extract the largest/smallest candidate from a multiplicity
    mask without float ``log2`` (which misrounds near 2**53 and above).
    """
    v = np.asarray(values, dtype=np.uint64).copy()
    out = np.zeros(v.shape, dtype=np.int64)
    for shift in (32, 16, 8, 4, 2, 1):
        step = np.uint64(shift)
        big = v >= (np.uint64(1) << step)
        out[big] += shift
        v[big] >>= step
    out[v > 0] += 1
    return out
