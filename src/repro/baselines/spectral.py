"""Spectral Bloom filters (Cohen & Matias, SIGMOD 2003).

The state-of-the-art multiplicity-query baseline in the paper (§2.3,
Fig. 11).  A Spectral BF stores a counter per array cell and estimates an
element's multiplicity from the counters at its ``k`` hash positions.
The paper describes all three published variants, and so do we:

* **MS — minimum selection** (the "first version"): insert increments all
  ``k`` counters; the estimate is their minimum.  Supports deletion.
* **MI — minimum increase** (the "second version"): insert increments
  only the counters currently equal to the element's minimum, which
  provably lowers the error — "at the cost of not supporting updates"
  (deletions corrupt other elements' minima, so :meth:`remove` raises).
* **RM — recurring minimum** (the "third version"): a primary filter plus
  a smaller secondary filter holding the elements whose minimum is
  *not* recurring (those are the ones whose minimum is likely inflated).
  More accurate, "time consuming and more complex" — visible in its
  extra accesses in the harness.

Estimates are never below the true count for MS/MI (no false negatives);
the correctness-rate metric of Fig. 11(a) scores how often the estimate
is exactly right.
"""

from __future__ import annotations

import enum
from typing import Optional

from repro._util import ElementLike, require_positive
from repro.bitarray.counters import CounterArray, OverflowPolicy
from repro.bitarray.memory import MemoryModel
from repro.core.base import CountEstimator, ProbeGeometry, memory_model
from repro.errors import ConfigurationError, UnsupportedOperationError
from repro.hashing.family import HashFamily

__all__ = ["SpectralBloomFilter", "SpectralVariant"]


class SpectralVariant(enum.Enum):
    """The three Spectral BF construction/query strategies."""

    MINIMUM_SELECTION = "ms"
    MINIMUM_INCREASE = "mi"
    RECURRING_MINIMUM = "rm"


class SpectralBloomFilter(CountEstimator, ProbeGeometry):
    """Spectral Bloom filter over ``m`` packed counters.

    Args:
        m: number of counters in the primary filter.
        k: number of hash functions.
        variant: one of :class:`SpectralVariant` (MS by default).
        counter_bits: counter width (6 in the paper's Fig. 11 setup).
        secondary_fraction: size of the RM secondary filter relative to
            the primary (ignored for MS/MI).  Cohen & Matias keep it
            small; 0.5 is a safe default for the paper's workloads.
        family: hash family; the RM secondary uses a disjoint index block.
        memory: access-cost model shared by primary and secondary, so
            "accesses per query" captures the RM variant's extra traffic.

    Example:
        >>> sbf = SpectralBloomFilter(m=1024, k=5)
        >>> for _ in range(3):
        ...     sbf.add(b"flow")
        >>> sbf.estimate(b"flow")
        3
    """

    def __init__(
        self,
        m: int,
        k: int,
        variant: SpectralVariant = SpectralVariant.MINIMUM_SELECTION,
        counter_bits: int = 6,
        secondary_fraction: float = 0.5,
        family: Optional[HashFamily] = None,
        memory: Optional[MemoryModel] = None,
    ):
        super().__init__(m, k, family, counter_bits=counter_bits)
        if isinstance(variant, str):
            variant = SpectralVariant(variant)
        self._variant = variant
        self._memory = memory_model(memory)
        self._primary = CounterArray(
            m, bits_per_counter=counter_bits, memory=self._memory,
            overflow=OverflowPolicy.SATURATE,
        )
        self._secondary: Optional[CounterArray] = None
        if variant is SpectralVariant.RECURRING_MINIMUM:
            if not 0.0 < secondary_fraction <= 1.0:
                raise ConfigurationError(
                    "secondary_fraction must be in (0, 1], got %r"
                    % secondary_fraction
                )
            m2 = max(k, int(m * secondary_fraction))
            self._secondary = CounterArray(
                m2, bits_per_counter=counter_bits, memory=self._memory,
                overflow=OverflowPolicy.SATURATE,
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def variant(self) -> SpectralVariant:
        """The configured construction/query strategy."""
        return self._variant

    @property
    def size_bits(self) -> int:
        """Memory footprint in bits, secondary included."""
        total = self._primary.total_bits
        if self._secondary is not None:
            total += self._secondary.total_bits
        return total

    @property
    def hash_ops_per_query(self) -> int:
        """Worst-case hash computations per query."""
        if self._variant is SpectralVariant.RECURRING_MINIMUM:
            return 2 * self._k
        return self._k

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------
    def _secondary_positions(self, element: ElementLike) -> list[int]:
        assert self._secondary is not None
        m2 = self._secondary.size
        return [
            v % m2
            for v in self._family.values(element, self._k, start=self._k)
        ]

    @staticmethod
    def _min_recurring(values: list[int]) -> tuple[int, bool]:
        minimum = min(values)
        return minimum, values.count(minimum) >= 2

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------
    def add(self, element: ElementLike, count: int = 1) -> None:
        """Insert *count* occurrences of *element* under the active variant.

        ``count > 1`` is the batched equivalent of repeated insertion:
        MS adds *count* to all ``k`` counters; MI lifts the minima to
        ``min + count`` (what *count* repeated MI inserts converge to);
        RM batches the primary increment before its secondary check.
        """
        require_positive("count", count)
        positions = self._positions(element)
        if self._variant is SpectralVariant.MINIMUM_SELECTION:
            for position in positions:
                self._primary.increment(position, by=count)
        elif self._variant is SpectralVariant.MINIMUM_INCREASE:
            values = [self._primary.get(p) for p in positions]
            target = min(values) + count
            for position, value in zip(positions, values):
                if value < target:
                    self._primary.increment(position, by=target - value)
        else:  # RECURRING_MINIMUM
            for position in positions:
                self._primary.increment(position, by=count)
            values = [self._primary.get(p) for p in positions]
            minimum, recurring = self._min_recurring(values)
            if not recurring:
                self._insert_secondary(element, minimum)
        self._n_items += count

    def _insert_secondary(self, element: ElementLike, minimum: int) -> None:
        assert self._secondary is not None
        positions = self._secondary_positions(element)
        values = [self._secondary.get(p) for p in positions]
        if min(values) == 0:
            # First single-minimum sighting: seed the secondary with the
            # primary's estimate so later increments track the truth.
            for position, value in zip(positions, values):
                if value < minimum:
                    self._secondary.set(position, min(
                        minimum, self._secondary.max_value))
        else:
            for position in positions:
                self._secondary.increment(position)

    def remove(self, element: ElementLike) -> None:
        """Delete one occurrence (MS and RM only).

        The MI variant trades deletion support for accuracy — the paper
        calls this out explicitly — so it raises
        :class:`~repro.errors.UnsupportedOperationError`.
        """
        if self._variant is SpectralVariant.MINIMUM_INCREASE:
            raise UnsupportedOperationError(
                "minimum-increase Spectral BF does not support deletion"
            )
        for position in self._positions(element):
            self._primary.decrement(position)
        if self._variant is SpectralVariant.RECURRING_MINIMUM:
            assert self._secondary is not None
            positions = self._secondary_positions(element)
            if min(self._secondary.get(p) for p in positions) > 0:
                for position in positions:
                    self._secondary.decrement(position)
        self._n_items -= 1

    def estimate(self, element: ElementLike) -> int:
        """Estimated multiplicity of *element* (0 = absent).

        MS/MI return the minimum counter, early-exiting on a zero (a zero
        pins the minimum, so further fetches are pointless).  RM returns
        the primary minimum when it recurs, otherwise consults the
        secondary (Cohen & Matias' lookup rule).
        """
        if self._variant is not SpectralVariant.RECURRING_MINIMUM:
            minimum: Optional[int] = None
            m = self._m
            for hashed in self._family.iter_values(element, self._k):
                value = self._primary.get(hashed % m)
                if value == 0:
                    return 0
                if minimum is None or value < minimum:
                    minimum = value
            return minimum if minimum is not None else 0
        positions = self._positions(element)
        values = [self._primary.get(p) for p in positions]
        minimum, recurring = self._min_recurring(values)
        if minimum == 0 or recurring:
            return minimum
        assert self._secondary is not None
        secondary_min = min(
            self._secondary.get(p)
            for p in self._secondary_positions(element)
        )
        return secondary_min if secondary_min > 0 else minimum

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "SpectralBloomFilter(m=%d, k=%d, variant=%s)" % (
            self._m, self._k, self._variant.value)
