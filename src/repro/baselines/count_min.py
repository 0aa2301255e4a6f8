"""The Count-Min sketch (Cormode & Muthukrishnan, 2005).

The second multiplicity baseline of Fig. 11 and the substrate for the
paper's Shifting Count-Min sketch (§5.5).  A CM sketch is ``d`` vectors
of ``r`` counters; inserting increments one counter per vector, querying
returns the minimum — an upper bound on the true count.  "CM sketch is
simple and easy to implement, but is not memory efficient, as the
minimal unit is a counter instead of a bit" (§5.5), which is exactly the
trade-off the correctness-rate experiment exposes.

The optional *conservative update* refinement (increment only the
counters that equal the current minimum) is included for the ablation
benches; the paper's comparisons use the classic update.
"""

from __future__ import annotations

from typing import Optional

from repro._util import ElementLike, require_positive
from repro.bitarray.counters import CounterArray, OverflowPolicy
from repro.bitarray.memory import MemoryModel
from repro.core.base import CountEstimator, memory_model
from repro.errors import UnsupportedOperationError
from repro.hashing.family import HashFamily

__all__ = ["CountMinSketch"]


class CountMinSketch(CountEstimator):
    """Count-Min sketch with ``d`` rows of ``r`` packed counters.

    Args:
        d: number of rows (one hash function per row).
        r: counters per row.
        counter_bits: counter width (6 in the paper's Fig. 11 setup;
            32 is the classic streaming default).
        conservative: use conservative update (off by default, matching
            the paper's baseline).
        family: hash family.
        memory: access-cost model.

    Example:
        >>> cm = CountMinSketch(d=4, r=256)
        >>> cm.add(b"flow", count=3)
        >>> cm.estimate(b"flow")
        3
    """

    def __init__(
        self,
        d: int,
        r: int,
        counter_bits: int = 6,
        conservative: bool = False,
        family: Optional[HashFamily] = None,
        memory: Optional[MemoryModel] = None,
    ):
        super().__init__(family, d=d, r=r)
        self._d = d
        self._r = r
        self._conservative = conservative
        self._memory = memory_model(memory)
        self._rows = CounterArray(
            d * r, bits_per_counter=counter_bits, memory=self._memory,
            overflow=OverflowPolicy.SATURATE,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def d(self) -> int:
        """Number of rows (hash functions)."""
        return self._d

    @property
    def r(self) -> int:
        """Counters per row."""
        return self._r

    @property
    def size_bits(self) -> int:
        """Memory footprint in bits (``d * r * counter_bits``)."""
        return self._rows.total_bits

    @property
    def hash_ops_per_query(self) -> int:
        """Hash computations per query (``d``)."""
        return self._d

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------
    def _cells(self, element: ElementLike) -> list[int]:
        values = self._family.values(element, self._d)
        return [
            row * self._r + value % self._r
            for row, value in enumerate(values)
        ]

    def add(self, element: ElementLike, count: int = 1) -> None:
        """Add *count* occurrences of *element*.

        Classic update increments one counter per row; conservative
        update first reads the current estimate and lifts only the
        counters below ``estimate + count``, which can only tighten the
        upper bound.
        """
        require_positive("count", count)
        cells = self._cells(element)
        if not self._conservative:
            for cell in cells:
                self._rows.increment(cell, by=count)
        else:
            values = [self._rows.get(cell) for cell in cells]
            target = min(values) + count
            for cell, value in zip(cells, values):
                if value < target:
                    self._rows.increment(cell, by=target - value)
        self._n_items += count

    def remove(self, element: ElementLike) -> None:
        """Unsupported: CM point deletions break the upper-bound guarantee
        under conservative update and are not part of the paper's setup."""
        raise UnsupportedOperationError(
            "CountMinSketch does not support deletion"
        )

    def estimate(self, element: ElementLike) -> int:
        """Minimum counter over the ``d`` rows (upper bound on the count).

        Early-exits on a zero counter: the minimum cannot go lower, so the
        remaining rows need not be fetched.
        """
        minimum: Optional[int] = None
        r = self._r
        row_base = 0
        for hashed in self._family.iter_values(element, self._d):
            value = self._rows.get(row_base + hashed % r)
            row_base += r
            if value == 0:
                return 0
            if minimum is None or value < minimum:
                minimum = value
        return minimum if minimum is not None else 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "CountMinSketch(d=%d, r=%d, conservative=%s)" % (
            self._d, self._r, self._conservative)
