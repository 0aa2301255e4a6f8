"""The counting Bloom filter (Fan et al., Summary Cache).

Replaces each bit of a Bloom filter with a small counter so elements can
be deleted: insert increments the ``k`` counters, delete decrements them,
and membership asks whether all ``k`` counters are non-zero (§1.1 of the
ShBF paper).  Four-bit counters are the classic choice — "in most
applications, 4 bits for a counter are enough" (§3.3) — with saturating
overflow so the filter may leak but never false-negates.
"""

from __future__ import annotations

from typing import Optional

from repro._util import ElementLike
from repro.bitarray.counters import CounterArray, OverflowPolicy
from repro.bitarray.memory import MemoryModel
from repro.core.base import (ElementFilter, ProbeGeometry, bloom_geometry,
                             memory_model)
from repro.hashing.family import HashFamily

__all__ = ["CountingBloomFilter"]


class CountingBloomFilter(ElementFilter, ProbeGeometry):
    """Counting Bloom filter with ``m`` packed ``z``-bit counters.

    Args:
        m: number of counters.
        k: number of hash functions.
        counter_bits: counter width ``z`` (4 by default).
        family: hash family (defaults to seeded BLAKE2b lanes).
        memory: access-cost model (defaults to a DRAM-tier model, since
            counting arrays live off-chip in the paper's deployments).
        overflow: counter overflow policy (saturate by default).

    Example:
        >>> cbf = CountingBloomFilter(m=1024, k=7)
        >>> cbf.add("flow"); cbf.add("flow")
        >>> cbf.remove("flow")
        >>> "flow" in cbf
        True
    """

    def __init__(
        self,
        m: int,
        k: int,
        counter_bits: int = 4,
        family: Optional[HashFamily] = None,
        memory: Optional[MemoryModel] = None,
        overflow: OverflowPolicy = OverflowPolicy.SATURATE,
    ):
        super().__init__(m, k, family)
        self._memory = memory_model(memory, tier="dram")
        self._counters = CounterArray(
            m, bits_per_counter=counter_bits, memory=self._memory,
            overflow=overflow,
        )

    @classmethod
    def for_capacity(
        cls,
        n: int,
        fpr: float = 0.01,
        counter_bits: int = 4,
        family: Optional[HashFamily] = None,
    ) -> "CountingBloomFilter":
        """Size for ``n`` elements at a target FPR (same optima as BF,
        :func:`~repro.core.base.bloom_geometry`)."""
        m, k = bloom_geometry(n, fpr)
        return cls(m=m, k=k, counter_bits=counter_bits, family=family)

    @property
    def counters(self) -> CounterArray:
        """The underlying counter array."""
        return self._counters

    @property
    def size_bits(self) -> int:
        """Total memory footprint in bits (``m * z``)."""
        return self._counters.total_bits

    @property
    def hash_ops_per_query(self) -> int:
        """Worst-case hash computations per query (``k``)."""
        return self._k

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------
    def add(self, element: ElementLike) -> None:
        """Insert *element*: increment its ``k`` counters."""
        for position in self._positions(element):
            self._counters.increment(position)
        self._n_items += 1

    def remove(self, element: ElementLike) -> None:
        """Delete *element*: decrement its ``k`` counters.

        Deleting an element that was never inserted raises
        :class:`~repro.errors.CounterUnderflowError` when it hits a zero
        counter — classic CBFs corrupt silently here; we fail loudly.
        """
        for position in self._positions(element):
            self._counters.decrement(position)
        self._n_items -= 1

    def query(self, element: ElementLike) -> bool:
        """Membership test: all ``k`` counters >= 1, early exit on zero
        (hashes computed lazily, one probe at a time)."""
        m = self._m
        for value in self._family.iter_values(element, self._k):
            if self._counters.get(value % m) == 0:
                return False
        return True

    def count_estimate(self, element: ElementLike) -> int:
        """Minimum counter value over the ``k`` positions.

        This is the count-min style upper bound on the element's insert
        count; Spectral BF's "minimum selection" reduces to exactly this.
        """
        return min(
            self._counters.get(position)
            for position in self._positions(element)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "CountingBloomFilter(m=%d, k=%d, n_items=%d)" % (
            self._m, self._k, self._n_items)
