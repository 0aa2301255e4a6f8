"""NumPy-native vectorised hash family for the batch hot path.

The batch pipeline removed the per-element Python overhead from every
filter, leaving ~90 % of batch wall-clock inside BLAKE2b digests (see
the README throughput table).  :class:`VectorizedFamily` removes that
last constant factor: it is a splitmix64/xxhash-style avalanche mixer
family whose ``values_batch``/``positions_batch`` run the *whole batch*
through ``uint64`` NumPy kernels — zero per-element Python on the short
-key fast path — while the scalar entry points execute the identical
arithmetic on Python ints, so scalar and batch values are bit-identical
by construction.

Pipeline per element (both paths):

1. **ingest** — canonical bytes fold into one 64-bit base value.  Short
   keys (≤ 32 bytes, which covers 5-tuple flow IDs, ``host:port``
   strings and integer keys) are zero-padded to four little-endian
   ``uint64`` words and folded with one finaliser round per word, with
   the byte length folded into the initial state so ``b"a"`` and
   ``b"a\\x00"`` decorrelate.  Longer keys fall back to one seeded
   BLAKE2b-64 digest (rare on filter workloads, and still only *one*
   digest instead of one per lane group).
2. **lane derivation** — member ``i`` of the family mixes the base with
   a per-index seed drawn from a splitmix64 stream over the family
   seed: ``h_i(x) = mix64(base(x) + lane(i))``.  Distinct seeds give
   decorrelated families, matching the :class:`Blake2Family` contract.
   The lane seeds are computed once per instance.  ``values_batch``
   mixes every requested lane in row blocks of ``BLOCK_ROWS``, each
   block's base-plus-seed sums mixed in place in the output while they
   are still in cache; ``lanes_batch`` folds the bases once and
   mixes lane ``i`` only for the rows a survivor-round query still
   probes in round ``i``, so batch hashing stops with the probes, as
   the scalar query's does (§3.2).

``mix64`` is the splitmix64 finaliser (Stafford's mix13 constants) — a
well-studied full-avalanche bijection.  The family is *not*
cryptographic; its fitness for the paper's experiments is established
empirically by the §6.1 vetting harness
(:mod:`repro.hashing.randomness`), which gates it with per-bit balance,
chi-square position uniformity, pairwise independence and avalanche
tests (``tests/hashing/test_vetting.py``).
"""

from __future__ import annotations

import hashlib
from typing import List, Sequence

import numpy as np

from repro._util import (ElementLike, require_non_negative, to_bytes,
                         to_bytes_batch)
from repro._vector import BLOCK_ROWS
from repro.hashing.family import HashFamily

__all__ = ["VectorizedFamily"]

_M64 = 0xFFFFFFFFFFFFFFFF
#: Keys longer than this fold through one seeded BLAKE2b-64 digest.
_SHORT_MAX = 32
_WORDS = _SHORT_MAX // 8

_GOLDEN = 0x9E3779B97F4A7C15
_LEN_MULT = 0xFF51AFD7ED558CCD  # murmur3 fmix64 constant, odd
_MIX_1 = 0xBF58476D1CE4E5B9
_MIX_2 = 0x94D049BB133111EB

_NP_GOLDEN = np.uint64(_GOLDEN)
_NP_LEN_MULT = np.uint64(_LEN_MULT)
_NP_MIX_1 = np.uint64(_MIX_1)
_NP_MIX_2 = np.uint64(_MIX_2)
_NP_30 = np.uint64(30)
_NP_27 = np.uint64(27)
_NP_31 = np.uint64(31)


def _mix64(z: int) -> int:
    """The splitmix64 finaliser on a Python int (64-bit wraparound)."""
    z &= _M64
    z = ((z ^ (z >> 30)) * _MIX_1) & _M64
    z = ((z ^ (z >> 27)) * _MIX_2) & _M64
    return z ^ (z >> 31)


def _mix64_np(z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """The same finaliser on a ``uint64`` ndarray (wraps like the ints).

    Runs in place on *z*, with *tmp* (same shape) as the only scratch
    array, and returns *z*.
    """
    z ^= np.right_shift(z, _NP_30, out=tmp)
    z *= _NP_MIX_1
    z ^= np.right_shift(z, _NP_27, out=tmp)
    z *= _NP_MIX_2
    z ^= np.right_shift(z, _NP_31, out=tmp)
    return z


class VectorizedFamily(HashFamily):
    """Indexed 64-bit hashes from vectorised avalanche mixers.

    Drop-in for :class:`~repro.hashing.blake.Blake2Family` anywhere the
    :class:`~repro.hashing.family.HashFamily` interface is accepted —
    filters, the sharded store, snapshots (kind ``"vector64"`` in the
    family registry) — trading cryptographic mixing for a batch path
    that runs entirely inside NumPy kernels.

    Args:
        seed: family seed; families with different seeds are
            decorrelated through a splitmix64-scrambled lane stream.
    """

    output_bits = 64

    def __init__(self, seed: int = 0):
        require_non_negative("seed", seed)
        self._seed = seed
        # splitmix64(seed): every derived quantity hangs off this.
        self._seed_mixed = _mix64((seed + _GOLDEN) & _M64)
        self._long_key = seed.to_bytes(8, "little") + b"vector64-long"
        self._lane_seeds = np.empty(0, dtype=np.uint64)

    @property
    def seed(self) -> int:
        """The family seed."""
        return self._seed

    @property
    def name(self) -> str:
        return "vector64[seed=%d]" % self._seed

    # ------------------------------------------------------------------
    # Scalar path (Python ints, bit-identical to the NumPy kernels)
    # ------------------------------------------------------------------
    def _lane(self, index: int) -> int:
        """Per-index lane seed: a splitmix64 stream over the family seed."""
        return _mix64((self._seed_mixed + (index + 1) * _GOLDEN) & _M64)

    def _ingest(self, data: bytes) -> int:
        """Fold canonical bytes into the element's 64-bit base value."""
        length = len(data)
        if length > _SHORT_MAX:
            digest = hashlib.blake2b(
                data, digest_size=8, key=self._long_key).digest()
            return int.from_bytes(digest, "little")
        h = (self._seed_mixed + length * _LEN_MULT) & _M64
        padded = data.ljust(_SHORT_MAX, b"\x00")
        for j in range(_WORDS):
            word = int.from_bytes(padded[8 * j : 8 * j + 8], "little")
            h = _mix64(h ^ word)
        return h

    def hash_bytes(self, index: int, data: bytes) -> int:
        return _mix64((self._ingest(data) + self._lane(index)) & _M64)

    def values(
        self, element: ElementLike, count: int, start: int = 0
    ) -> List[int]:
        """Scalar batch: the ingest fold is paid once, one mix per lane."""
        require_non_negative("count", count)
        require_non_negative("start", start)
        if count == 0:
            return []
        base = self._ingest(to_bytes(element))
        return [
            _mix64((base + self._lane(start + i)) & _M64)
            for i in range(count)
        ]

    def iter_values(self, element: ElementLike, count: int, start: int = 0):
        """Lazy hashes; the ingest fold is paid on the first value."""
        require_non_negative("count", count)
        require_non_negative("start", start)
        if count == 0:
            return
        base = self._ingest(to_bytes(element))
        for i in range(count):
            yield _mix64((base + self._lane(start + i)) & _M64)

    # ------------------------------------------------------------------
    # Batch path (whole-batch NumPy kernels)
    # ------------------------------------------------------------------
    def _lane_array(self, start: int, count: int) -> np.ndarray:
        """Lane seeds ``start .. start+count-1``: a slice of the
        instance's read-only cache, rebuilt twice as long as needed when
        a call reaches past it."""
        stop = start + count
        if stop > len(self._lane_seeds):
            indices = np.arange(1, 2 * stop + 1, dtype=np.uint64)
            lanes = np.uint64(self._seed_mixed) + indices * _NP_GOLDEN
            _mix64_np(lanes, np.empty_like(lanes)).flags.writeable = False
            self._lane_seeds = lanes
        return self._lane_seeds[start:stop]

    def _ingest_batch(self, elements: Sequence[ElementLike]) -> np.ndarray:
        """Vectorised ingest: one ``uint64`` base value per element.

        All-bytes batches (the serving path after
        :func:`repro._util.to_bytes` canonicalisation on the wire) are
        joined into one buffer with pure NumPy indexing — no
        per-element Python beyond one ``join`` and one ``len`` pass.
        Keys of one width <= 32 (flow IDs, fixed-format records) read
        the join as a dense ``(n, width)`` matrix padded only to whole
        words; other batches are scattered into a zero-padded
        ``(n, 32)`` byte matrix.  Long keys (> 32 bytes) take the
        seeded BLAKE2b fallback individually, exactly like the scalar
        path.  Non-bytes elements are canonicalised once and re-enter.
        """
        n = len(elements)
        try:
            # Fast path: all elements already bytes-like — one C-level
            # join, no per-element Python.
            blob = b"".join(elements)
        except TypeError:
            return self._ingest_batch(to_bytes_batch(elements))
        lens = list(map(len, elements))
        # One width <= 32?  The O(1) size test fails for almost every
        # mixed-width batch, which then skips the ``count`` pass.
        uniform = (lens[0] <= _SHORT_MAX and len(blob) == n * lens[0]
                   and lens.count(lens[0]) == n)
        if not uniform:
            lengths = np.array(lens, dtype=np.int64)
            if len(blob) != int(lengths.sum()):
                # A bytes-like whose len() is not its byte count (e.g. a
                # cast memoryview) takes the canonical path, matching
                # the scalar entry points.
                return self._ingest_batch(to_bytes_batch(elements))
        long_rows = ()
        if uniform:
            # One width: the join is already a dense (n, width) matrix;
            # pad it to whole words only (a copy only when width is not
            # a multiple of 8).
            width = lens[0]
            nwords = -(-width // 8)
            flat = np.frombuffer(blob, dtype=np.uint8).reshape(n, width)
            if width % 8:
                padded = np.zeros((n, 8 * nwords), dtype=np.uint8)
                padded[:, :width] = flat
                flat = padded
            words = flat.view("<u8")
            base = np.full(n, (self._seed_mixed + width * _LEN_MULT) & _M64,
                           dtype=np.uint64)
        else:
            # Mixed widths: scatter short keys into a (n, 32) zero-padded
            # byte matrix — all array ops.
            ends = np.cumsum(lengths)
            starts = ends - lengths
            short = lengths <= _SHORT_MAX
            short_lengths = np.where(short, lengths, 0)
            buf = np.zeros((n, _SHORT_MAX), dtype=np.uint8)
            total_short = int(short_lengths.sum())
            if total_short:
                flat = np.frombuffer(blob, dtype=np.uint8)
                row = np.repeat(np.arange(n), short_lengths)
                cum = np.cumsum(short_lengths) - short_lengths
                col = np.arange(total_short) - np.repeat(cum, short_lengths)
                buf[row, col] = flat[np.repeat(starts, short_lengths) + col]
            words = buf.view("<u8")
            base = np.uint64(self._seed_mixed) \
                + lengths.astype(np.uint64) * _NP_LEN_MULT
            long_rows = np.nonzero(~short)[0]

        # The fold of the scalar path: all four rounds run; the XOR with
        # a zero word past a uniform key's last word is skipped.
        tmp = np.empty_like(base)
        for j in range(_WORDS):
            if j < words.shape[1]:
                base ^= words[:, j]
            _mix64_np(base, tmp)

        # Long keys: one seeded digest each (rare on filter workloads).
        for i in long_rows:
            digest = hashlib.blake2b(
                elements[i], digest_size=8, key=self._long_key).digest()
            base[i] = int.from_bytes(digest, "little")
        return base

    def values_batch(
        self, elements: Sequence[ElementLike], count: int, start: int = 0
    ) -> np.ndarray:
        """Whole-batch hashing into one ``(n, count)`` NumPy array.

        Values are bit-identical to :meth:`values` row for row; the
        only per-element Python on the fast path is the C-level
        ``bytes.join`` and one ``len`` pass.  The lanes are mixed
        ``BLOCK_ROWS`` rows at a time, in place in the output, so the
        mixer's passes stay in cache however large the batch.  A list
        is used as given, any other iterable is materialised once.
        """
        require_non_negative("count", count)
        require_non_negative("start", start)
        if not isinstance(elements, list):
            elements = list(elements)
        n = len(elements)
        if count == 0 or n == 0:
            return np.empty((n, count), dtype=np.uint64)
        base = self._ingest_batch(elements)
        lanes = self._lane_array(start, count)
        values = np.empty((n, count), dtype=np.uint64)
        tmp = np.empty((min(n, BLOCK_ROWS), count), dtype=np.uint64)
        for lo in range(0, n, BLOCK_ROWS):
            block = values[lo:lo + BLOCK_ROWS]
            np.add(base[lo:lo + BLOCK_ROWS, None], lanes, out=block)
            _mix64_np(block, tmp[:len(block)])
        return values

    def lanes_batch(self, elements: Sequence[ElementLike], count: int):
        """Lazy lane source: one ingest fold now, one mix per column read.

        ``column(j, rows)`` mixes ``base[rows] + lane(j)``, the very
        arithmetic of :meth:`values_batch`, so it equals
        ``values_batch(elements, count)[rows, j]`` bit for bit, and a
        row is mixed only for the lanes it is asked for.
        """
        require_non_negative("count", count)
        if not isinstance(elements, list):
            elements = list(elements)
        base = (self._ingest_batch(elements) if elements
                else np.empty(0, dtype=np.uint64))
        return _MixedLanes(base, self._lane_array(0, count))


class _MixedLanes:
    """:meth:`VectorizedFamily.lanes_batch`'s source: folded bases and
    lane seeds, mixed per column read."""

    def __init__(self, base: np.ndarray, lanes: np.ndarray):
        self._base = base
        self._lanes = lanes

    def __len__(self) -> int:
        return len(self._base)

    def column(self, j: int, rows=None) -> np.ndarray:
        base = self._base if rows is None else self._base[rows]
        values = base + self._lanes[j]
        return _mix64_np(values, np.empty_like(values))
