"""Packed fixed-width counter arrays.

Counting filters (CBF, CShBF_M/A/x, Spectral BF, DCF) replace each bit
with a small counter.  :class:`CounterArray` packs ``bits_per_counter``-bit
counters densely into a byte buffer — the physical layout the paper assumes
when it derives the counting-variant offset bound
``w_bar <= floor((w - 7) / z)`` (§3.3), where ``z`` is the counter width.

Overflow behaviour is a policy because the literature differs: classic
4-bit counting Bloom filters saturate (and then refuse to decrement a
saturated counter, making deletes conservative), while analytical work
often prefers failing loudly.  Underflow — decrementing a zero counter —
always raises, because it means deleting an element that is not present,
which no counting filter supports.
"""

from __future__ import annotations

import enum
from typing import Iterable, Optional, Sequence

import numpy as np

from repro._util import require_positive
from repro._vector import as_batch_int64, row_spans
from repro.bitarray.memory import MemoryModel
from repro.errors import (
    ConfigurationError,
    CounterOverflowError,
    CounterUnderflowError,
)

__all__ = ["CounterArray", "OverflowPolicy"]


class OverflowPolicy(enum.Enum):
    """What to do when an increment exceeds the counter's maximum value."""

    #: Clamp at the maximum value; a saturated counter is never decremented
    #: (the classic conservative CBF rule — it may leak, never false-negate).
    SATURATE = "saturate"
    #: Raise :class:`~repro.errors.CounterOverflowError`.
    RAISE = "raise"


class CounterArray:
    """A dense array of ``size`` counters, each ``bits_per_counter`` wide.

    Args:
        size: number of counters.
        bits_per_counter: width ``z`` of each counter in bits (1..64).
            The classic CBF uses 4; Spectral BF experiments in the paper
            use 6.
        memory: optional access-cost model (defaults to a private DRAM-tier
            model, since counting arrays live off-chip in the paper's
            deployments).
        overflow: what to do on overflow (saturate by default).

    Example:
        >>> counters = CounterArray(8, bits_per_counter=4)
        >>> counters.increment(3); counters.increment(3)
        >>> counters.get(3)
        2
        >>> counters.decrement(3)
        >>> counters.get(3)
        1
    """

    __slots__ = ("_size", "_bits", "_max", "_buf", "_nonzero",
                 "memory", "overflow")

    def __init__(
        self,
        size: int,
        bits_per_counter: int = 4,
        memory: Optional[MemoryModel] = None,
        overflow: OverflowPolicy = OverflowPolicy.SATURATE,
    ):
        require_positive("size", size)
        require_positive("bits_per_counter", bits_per_counter)
        if bits_per_counter > 64:
            raise ConfigurationError(
                "bits_per_counter must be <= 64, got %d" % bits_per_counter
            )
        self._size = size
        self._bits = bits_per_counter
        self._max = (1 << bits_per_counter) - 1
        self._buf = bytearray((size * bits_per_counter + 7) // 8)
        self._nonzero = 0
        self.memory = memory if memory is not None else MemoryModel(
            tier="dram")
        self.overflow = overflow

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    @property
    def size(self) -> int:
        """Number of counters."""
        return self._size

    @property
    def bits_per_counter(self) -> int:
        """Width ``z`` of each counter in bits."""
        return self._bits

    @property
    def max_value(self) -> int:
        """Largest representable counter value, ``2**z - 1``."""
        return self._max

    @property
    def total_bits(self) -> int:
        """Memory footprint in bits (``size * z``)."""
        return self._size * self._bits

    def nonzero_count(self) -> int:
        """Number of counters currently greater than zero.

        Maintained incrementally so synchronising a counting array with its
        query-side bit array (§3.3) stays cheap.
        """
        return self._nonzero

    def _check_index(self, i: int) -> None:
        if not 0 <= i < self._size:
            raise IndexError(
                "counter index %d out of range for %d counters"
                % (i, self._size)
            )

    # ------------------------------------------------------------------
    # Raw packed access
    # ------------------------------------------------------------------
    def _read_raw(self, i: int) -> int:
        start = i * self._bits
        end = start + self._bits
        first = start >> 3
        last = (end - 1) >> 3
        chunk = int.from_bytes(self._buf[first : last + 1], "little")
        return (chunk >> (start & 7)) & self._max

    def _write_raw(self, i: int, value: int) -> None:
        start = i * self._bits
        end = start + self._bits
        first = start >> 3
        last = (end - 1) >> 3
        width = last - first + 1
        chunk = int.from_bytes(self._buf[first : last + 1], "little")
        shift = start & 7
        chunk &= ~(self._max << shift)
        chunk |= value << shift
        self._buf[first : last + 1] = chunk.to_bytes(width, "little")

    # ------------------------------------------------------------------
    # Public counter operations
    # ------------------------------------------------------------------
    def get(self, i: int, record: bool = True) -> int:
        """Return the value of counter *i* (one recorded read)."""
        self._check_index(i)
        if record:
            self.memory.record_read(i * self._bits, self._bits)
        return self._read_raw(i)

    def peek(self, i: int) -> int:
        """Return counter *i* without touching access statistics."""
        self._check_index(i)
        return self._read_raw(i)

    def __getitem__(self, i: int) -> int:
        return self.peek(i)

    def set(self, i: int, value: int, record: bool = True) -> None:
        """Overwrite counter *i* with *value* (one recorded write)."""
        self._check_index(i)
        if not 0 <= value <= self._max:
            raise ConfigurationError(
                "value %d does not fit in a %d-bit counter"
                % (value, self._bits)
            )
        if record:
            self.memory.record_write(i * self._bits, self._bits)
        old = self._read_raw(i)
        self._write_raw(i, value)
        self._nonzero += (value > 0) - (old > 0)

    def increment(self, i: int, by: int = 1, record: bool = True) -> int:
        """Add *by* to counter *i*; return the new value.

        On overflow, behaviour follows :attr:`overflow`: saturating arrays
        clamp to :attr:`max_value`, raising arrays raise
        :class:`~repro.errors.CounterOverflowError`.
        """
        self._check_index(i)
        require_positive("by", by)
        if record:
            self.memory.record_write(i * self._bits, self._bits)
        old = self._read_raw(i)
        new = old + by
        if new > self._max:
            if self.overflow is OverflowPolicy.RAISE:
                raise CounterOverflowError(
                    "counter %d overflowed %d-bit width (%d + %d)"
                    % (i, self._bits, old, by)
                )
            new = self._max
        self._write_raw(i, new)
        if old == 0 and new > 0:
            self._nonzero += 1
        return new

    def decrement(self, i: int, by: int = 1, record: bool = True) -> int:
        """Subtract *by* from counter *i*; return the new value.

        A saturated counter (under :attr:`OverflowPolicy.SATURATE`) is left
        untouched — the classic conservative rule, since its true value is
        unknown.  Decrementing below zero raises
        :class:`~repro.errors.CounterUnderflowError`.
        """
        self._check_index(i)
        require_positive("by", by)
        if record:
            self.memory.record_write(i * self._bits, self._bits)
        old = self._read_raw(i)
        if old == self._max and self.overflow is OverflowPolicy.SATURATE:
            return old
        if old < by:
            raise CounterUnderflowError(
                "counter %d would underflow (%d - %d)" % (i, old, by)
            )
        new = old - by
        self._write_raw(i, new)
        if old > 0 and new == 0:
            self._nonzero -= 1
        return new

    # ------------------------------------------------------------------
    # Windowed (shifted-pair) operations
    # ------------------------------------------------------------------
    def get_offsets(
        self, base: int, offsets: Sequence[int], record: bool = True
    ) -> tuple[int, ...]:
        """Read counters ``base + o`` for each offset as one logical access.

        The counting shifting filters rely on the bound
        ``w_bar <= (w - 7) / z`` so a counter pair shares one word fetch;
        the recorded span reflects that.
        """
        if not offsets:
            return ()
        for o in offsets:
            self._check_index(base + o)
        if record:
            span_bits = (max(offsets) + 1) * self._bits
            self.memory.record_read(base * self._bits, span_bits)
        return tuple(self._read_raw(base + o) for o in offsets)

    def increment_offsets(
        self, base: int, offsets: Iterable[int], by: int = 1,
        record: bool = True,
    ) -> None:
        """Increment counters ``base + o`` for each offset as one access."""
        offsets = tuple(offsets)
        if not offsets:
            return
        for o in offsets:
            self._check_index(base + o)
        if record:
            span_bits = (max(offsets) + 1) * self._bits
            self.memory.record_write(base * self._bits, span_bits)
        for o in offsets:
            self.increment(base + o, by=by, record=False)

    def decrement_offsets(
        self, base: int, offsets: Iterable[int], by: int = 1,
        record: bool = True,
    ) -> None:
        """Decrement counters ``base + o`` for each offset as one access."""
        offsets = tuple(offsets)
        if not offsets:
            return
        for o in offsets:
            self._check_index(base + o)
        if record:
            span_bits = (max(offsets) + 1) * self._bits
            self.memory.record_write(base * self._bits, span_bits)
        for o in offsets:
            self.decrement(base + o, by=by, record=False)

    # ------------------------------------------------------------------
    # Batch operations
    # ------------------------------------------------------------------
    # Counter updates are inherently sequential (saturation and underflow
    # depend on the running value, and duplicate positions within a batch
    # must accumulate), so the inner loop stays in Python over the packed
    # buffer — but billing is aggregated into one call per batch and the
    # span arithmetic is vectorised, matching the scalar accounting.

    def _apply_offsets_batch(self, bases, offsets, op, by: int,
                             record: bool) -> None:
        """Shared body of the batch offset updates.

        *op* is the scalar per-position update (:meth:`increment` or
        :meth:`decrement`, called with ``record=False``).  On success
        the whole batch's writes are billed in one aggregate call; if a
        row's update raises (overflow/underflow), only the rows the
        scalar loop would have billed — every completed row plus the
        failing one — are recorded before the exception propagates, so
        accounting matches the scalar path on exception paths too.  An
        empty offset group updates and bills nothing, like the scalar
        twins.
        """
        bases = as_batch_int64(bases)
        offsets = np.atleast_2d(as_batch_int64(offsets))
        if bases.size == 0 or offsets.shape[-1] == 0:
            return
        positions = bases[:, None] + offsets
        if (int(bases.min()) < 0 or int(bases.max()) >= self._size
                or int(positions.min()) < 0
                or int(positions.max()) >= self._size):
            raise IndexError(
                "counter index out of range for %d counters" % self._size)
        spans = row_spans(offsets, bases.size)
        row_costs = self.memory.read_cost_batch(
            bases * self._bits, spans * self._bits)
        row = 0
        try:
            for row, row_positions in enumerate(positions.tolist()):
                for position in row_positions:
                    op(position, by=by, record=False)
        except Exception:
            if record:
                self.memory.record_writes(
                    row + 1, int(row_costs[: row + 1].sum()))
            raise
        if record:
            self.memory.record_writes(bases.size, int(row_costs.sum()))

    def increment_offsets_batch(self, bases, offsets, by: int = 1,
                                record: bool = True) -> None:
        """Batch :meth:`increment_offsets`: one write billed per base row.

        ``bases`` has shape ``(n,)``; ``offsets`` is ``(n, g)`` or
        ``(g,)``.  State and accounting are identical to ``n`` scalar
        ``increment_offsets`` calls.
        """
        self._apply_offsets_batch(bases, offsets, self.increment, by, record)

    def decrement_offsets_batch(self, bases, offsets, by: int = 1,
                                record: bool = True) -> None:
        """Batch :meth:`decrement_offsets`: one write billed per base row."""
        self._apply_offsets_batch(bases, offsets, self.decrement, by, record)

    # ------------------------------------------------------------------
    # Bulk helpers
    # ------------------------------------------------------------------
    def clear_all(self) -> None:
        """Reset every counter to zero (does not touch access statistics)."""
        self._buf[:] = bytes(len(self._buf))
        self._nonzero = 0

    def to_list(self) -> list[int]:
        """Return all counter values (for tests and serialisation)."""
        return [self._read_raw(i) for i in range(self._size)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "CounterArray(size=%d, bits=%d, nonzero=%d)" % (
            self._size, self._bits, self._nonzero)
