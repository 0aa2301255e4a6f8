"""Dynamic Count Filters (Aguilar-Saborit et al., SIGMOD Record 2006).

Related work §2.3 of the ShBF paper: DCF "combines the ideas of spectral
BF and CBF" using **two** filters — a fixed-width counter vector sized
for the common case, and an overflow vector whose counter width grows
dynamically when counts exceed the fixed part.  "The use of two filters
degrades query performance", which is exactly what the update ablation
bench measures against ShBF_x.

A cell's logical value is ``overflow * 2**fixed_bits + fixed``.  When an
overflow counter saturates, the overflow vector is rebuilt one bit wider
(the dynamic resize that gives the scheme its name).
"""

from __future__ import annotations

from typing import Optional

from repro._util import ElementLike, require_positive
from repro.bitarray.counters import CounterArray, OverflowPolicy
from repro.bitarray.memory import MemoryModel
from repro.core.base import CountEstimator, ProbeGeometry, memory_model
from repro.errors import CounterUnderflowError
from repro.hashing.family import HashFamily

__all__ = ["DynamicCountFilter"]


class DynamicCountFilter(CountEstimator, ProbeGeometry):
    """Counting filter with a fixed vector plus growable overflow vector.

    Args:
        m: number of cells.
        k: number of hash functions.
        fixed_bits: width of the fixed (CBF) part per cell — the paper
            sizes it for the expected per-cell load.
        overflow_bits: initial width of the overflow part per cell.
        family: hash family.
        memory: access-cost model shared by both vectors, so a query's
            two reads per cell are visible in the traffic stats.

    Example:
        >>> dcf = DynamicCountFilter(m=512, k=4, fixed_bits=2)
        >>> for _ in range(9):
        ...     dcf.add(b"elephant-flow")
        >>> dcf.estimate(b"elephant-flow")
        9
    """

    def __init__(
        self,
        m: int,
        k: int,
        fixed_bits: int = 4,
        overflow_bits: int = 2,
        family: Optional[HashFamily] = None,
        memory: Optional[MemoryModel] = None,
    ):
        super().__init__(m, k, family, fixed_bits=fixed_bits,
                         overflow_bits=overflow_bits)
        self._fixed_bits = fixed_bits
        self._memory = memory_model(memory, tier="dram")
        self._fixed = CounterArray(
            m, bits_per_counter=fixed_bits, memory=self._memory,
            overflow=OverflowPolicy.RAISE,
        )
        self._overflow = CounterArray(
            m, bits_per_counter=overflow_bits, memory=self._memory,
            overflow=OverflowPolicy.RAISE,
        )
        self._rebuilds = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def overflow_bits(self) -> int:
        """Current width of the overflow vector (grows on demand)."""
        return self._overflow.bits_per_counter

    @property
    def rebuilds(self) -> int:
        """How many times the overflow vector has been widened."""
        return self._rebuilds

    @property
    def size_bits(self) -> int:
        """Memory footprint in bits, both vectors."""
        return self._fixed.total_bits + self._overflow.total_bits

    @property
    def hash_ops_per_query(self) -> int:
        """Hash computations per query (``k``)."""
        return self._k

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------
    def _cell_value(self, index: int) -> int:
        return (
            self._overflow.get(index) << self._fixed_bits
        ) + self._fixed.get(index)

    def _store_cell(self, index: int, value: int) -> None:
        low = value & ((1 << self._fixed_bits) - 1)
        high = value >> self._fixed_bits
        if high > self._overflow.max_value:
            self._grow_overflow(high)
        self._fixed.set(index, low)
        self._overflow.set(index, high)

    def _grow_overflow(self, needed: int) -> None:
        """Rebuild the overflow vector wide enough to store *needed*."""
        bits = self._overflow.bits_per_counter
        while (1 << bits) - 1 < needed:
            bits += 1
        wider = CounterArray(
            self._m, bits_per_counter=bits, memory=self._memory,
            overflow=OverflowPolicy.RAISE,
        )
        for i in range(self._m):
            value = self._overflow.peek(i)
            if value:
                wider.set(i, value, record=False)
        self._overflow = wider
        self._rebuilds += 1

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------
    def add(self, element: ElementLike, count: int = 1) -> None:
        """Add *count* occurrences of *element*."""
        require_positive("count", count)
        for index in self._positions(element):
            self._store_cell(index, self._cell_value(index) + count)
        self._n_items += count

    def remove(self, element: ElementLike, count: int = 1) -> None:
        """Remove *count* occurrences of *element*.

        Raises:
            CounterUnderflowError: if any cell would go negative, i.e. the
                element was not present that many times.
        """
        require_positive("count", count)
        indices = self._positions(element)
        values = [self._cell_value(i) for i in indices]
        if any(value < count for value in values):
            raise CounterUnderflowError(
                "removing %d occurrences would underflow a DCF cell" % count
            )
        for index, value in zip(indices, values):
            self._store_cell(index, value - count)
        self._n_items -= count

    def estimate(self, element: ElementLike) -> int:
        """Minimum cell value over the ``k`` positions (upper bound)."""
        minimum: Optional[int] = None
        for index in self._positions(element):
            value = self._cell_value(index)
            if value == 0:
                return 0
            if minimum is None or value < minimum:
                minimum = value
        return minimum if minimum is not None else 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "DynamicCountFilter(m=%d, k=%d, fixed=%d, overflow=%d)" % (
            self._m, self._k, self._fixed_bits, self.overflow_bits)
