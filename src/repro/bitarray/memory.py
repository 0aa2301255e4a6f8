"""Byte-aligned, word-granular memory access cost model.

The paper's performance claims are expressed in *memory accesses per
query*: one access fetches one machine word of ``w`` bits, and — on x86 —
a fetch may start at any **byte** boundary, not only at word boundaries
(§3.1).  Reading the single bit ``B[i]`` therefore always costs one access,
and reading the bit pair ``B[i]`` and ``B[i + o]`` costs one access iff
both bits fit inside some ``w``-bit window that starts at the byte
containing ``B[i]`` — which is what the paper's offset bound
``o <= w - 7`` guarantees.

:class:`MemoryModel` turns that accounting rule into code.  Filters route
every read/write through a model instance; experiment harnesses read the
accumulated :class:`AccessStats` to reproduce Figures 8, 10(b) and 11(b).

The model is deliberately *not* a cache simulator: the paper counts raw
word fetches against a structure assumed to live entirely in one memory
tier (SRAM for query-side arrays, DRAM for update-side counters), so we
count the same quantity and tag each model with its tier.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro._util import require_positive
from repro.errors import ConfigurationError

__all__ = ["AccessStats", "MemoryModel"]

#: Word sizes the paper discusses; any positive multiple of 8 is accepted.
_COMMON_WORD_BITS = (32, 64)


@dataclass
class AccessStats:
    """Mutable tally of memory traffic, in word-fetch units.

    Attributes:
        read_words: total number of ``w``-bit word fetches performed by
            read operations.  This is the quantity plotted on the y-axis of
            the paper's "# memory accesses" figures.
        write_words: total number of word fetches performed by writes
            (a read-modify-write of one word counts as one write fetch,
            matching the paper's accounting for construction).
        read_ops: number of logical read operations (a multi-word windowed
            read counts once here but several times in ``read_words``).
        write_ops: number of logical write operations.
    """

    read_words: int = 0
    write_words: int = 0
    read_ops: int = 0
    write_ops: int = 0

    def reset(self) -> None:
        """Zero all counters in place."""
        self.read_words = 0
        self.write_words = 0
        self.read_ops = 0
        self.write_ops = 0

    def snapshot(self) -> "AccessStats":
        """Return an independent copy of the current tallies."""
        return AccessStats(
            read_words=self.read_words,
            write_words=self.write_words,
            read_ops=self.read_ops,
            write_ops=self.write_ops,
        )

    def diff(self, earlier: "AccessStats") -> "AccessStats":
        """Return the traffic accumulated since *earlier* was snapshotted."""
        return AccessStats(
            read_words=self.read_words - earlier.read_words,
            write_words=self.write_words - earlier.write_words,
            read_ops=self.read_ops - earlier.read_ops,
            write_ops=self.write_ops - earlier.write_ops,
        )

    @property
    def total_words(self) -> int:
        """Total word fetches, reads plus writes."""
        return self.read_words + self.write_words


@dataclass
class MemoryModel:
    """Counts word-granular accesses under byte-aligned addressing.

    Args:
        word_bits: machine word size ``w`` in bits (64 by default, matching
            the paper's primary target; 32 is also supported).
        tier: free-form label for reporting, e.g. ``"sram"`` for the
            query-side bit array or ``"dram"`` for the update-side counter
            array (§3.3's tiered deployment).

    Example:
        >>> model = MemoryModel(word_bits=64)
        >>> model.read_cost(start_bit=7, nbits=57)   # bit 7 + 56 more bits
        1
        >>> model.read_cost(start_bit=7, nbits=58)   # one bit too wide
        2
    """

    word_bits: int = 64
    tier: str = "sram"
    stats: AccessStats = field(default_factory=AccessStats)

    def __post_init__(self) -> None:
        require_positive("word_bits", self.word_bits)
        if self.word_bits % 8 != 0:
            raise ConfigurationError(
                "word_bits must be a multiple of 8, got %d" % self.word_bits
            )

    # ------------------------------------------------------------------
    # Pure cost queries (no recording)
    # ------------------------------------------------------------------
    def read_cost(self, start_bit: int, nbits: int = 1) -> int:
        """Word fetches needed to read bits ``[start_bit, start_bit+nbits)``.

        The fetch must start at the byte containing *start_bit* (x86 allows
        byte-aligned, not bit-aligned, loads), so the billable span includes
        the ``start_bit % 8`` bits preceding it — exactly the ``j - 1``
        extra bits in the paper's derivation of ``o <= w - 7``.
        """
        if nbits <= 0:
            return 0
        span = (start_bit % 8) + nbits
        return -(-span // self.word_bits)  # ceil division

    def read_cost_batch(self, start_bits, nbits) -> np.ndarray:
        """Vectorised :meth:`read_cost` over arrays of spans.

        ``start_bits`` and ``nbits`` may be arrays or scalars and are
        broadcast together; the result is an int64 array of per-span word
        costs, elementwise equal to ``read_cost(start, n)``.  The batch
        kernels use this to bill *aggregate* traffic that matches the
        scalar path access for access when a batch's widest span is past
        :meth:`max_single_read_offset`; below it every cost is 1 and
        they skip the array.
        """
        start_bits = np.asarray(start_bits, dtype=np.int64)
        # ``& 7`` is ``% 8`` and ``(span + w - 1) // w`` is the ceiling,
        # both exact on int64; the in-place forms skip two temporaries.
        span = (start_bits & 7) + np.asarray(nbits, dtype=np.int64)
        span += self.word_bits - 1
        span //= self.word_bits
        return span

    def max_single_read_offset(self) -> int:
        """Largest offset ``o`` such that bits ``i`` and ``i+o`` always share
        one word fetch.

        In the worst case the first bit is the 8th bit of its byte
        (``j = 8`` in the paper's derivation), so the fetch spends ``7``
        bits reaching it and can cover offsets up to ``w - 8`` beyond it:
        ``(j - 1) + (o + 1) <= w``.

        The batch kernels bill from this bound: when a batch's widest
        span is at most ``max_single_read_offset() + 1`` bits, every
        access costs one word and no per-access cost array is built
        (:func:`repro._vector.word_costs`).
        """
        return self.word_bits - 8

    def w_bar(self) -> int:
        """The paper's offset-range parameter ``w_bar = w - 7`` (§3.1).

        Offset values are drawn as ``h % (w_bar - 1) + 1``, i.e. from
        ``[1, w_bar - 1] = [1, w - 8]``, so the widest pair read spans
        ``w_bar`` bits starting at the probe position — exactly
        :meth:`max_single_read_offset` plus the probe bit itself.
        """
        return self.word_bits - 7

    # ------------------------------------------------------------------
    # Recording accessors
    # ------------------------------------------------------------------
    def record_read(self, start_bit: int, nbits: int = 1) -> int:
        """Record a read of the given bit span; return its word cost."""
        cost = self.read_cost(start_bit, nbits)
        self.stats.read_words += cost
        self.stats.read_ops += 1
        return cost

    def record_write(self, start_bit: int, nbits: int = 1) -> int:
        """Record a write touching the given bit span; return its cost."""
        cost = self.read_cost(start_bit, nbits)
        self.stats.write_words += cost
        self.stats.write_ops += 1
        return cost

    def record_reads(self, n_ops: int, words: int) -> None:
        """Record *n_ops* logical reads totalling *words* word fetches.

        The batch kernels total the per-access costs (one word each
        within :meth:`max_single_read_offset`, else from
        :meth:`read_cost_batch`, honouring early exits) and bill them in
        one call, so a batch of ``n`` probes updates the counters exactly
        as ``n`` scalar :meth:`record_read` calls would — without ``n``
        rounds of Python attribute churn.
        """
        self.stats.read_words += words
        self.stats.read_ops += n_ops

    def record_writes(self, n_ops: int, words: int) -> None:
        """Record *n_ops* logical writes totalling *words* word fetches."""
        self.stats.write_words += words
        self.stats.write_ops += n_ops

    def reset(self) -> None:
        """Zero the accumulated statistics."""
        self.stats.reset()

    def snapshot(self) -> AccessStats:
        """Snapshot the current statistics (for per-query deltas)."""
        return self.stats.snapshot()
