"""The standard Bloom filter (Bloom, 1970).

The reference point for the whole paper: ``k`` independent hash positions
per element, all set on insert, all checked on query.  A query therefore
costs up to ``k`` hash computations and ``k`` one-word memory accesses —
the two quantities ShBF_M halves.

Queries early-exit on the first zero bit, matching the paper's query
procedure and its memory-access accounting (Fig. 8 reports *average*
accesses over a half-member/half-non-member mix, which is below ``k``
precisely because negatives terminate early).
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from repro._util import ElementLike
from repro._vector import survivor_rounds
from repro.bitarray.memory import MemoryModel
from repro.core.base import BitArrayFilter, ElementFilter, bloom_geometry
from repro.errors import ConfigurationError, UnsupportedOperationError
from repro.hashing.family import HashFamily

__all__ = ["BloomFilter"]


class BloomFilter(ElementFilter, BitArrayFilter):
    """Standard Bloom filter over an ``m``-bit array with ``k`` hashes.

    Args:
        m: number of bits.
        k: number of hash functions.
        family: hash family (defaults to seeded BLAKE2b lanes).
        memory: access-cost model for the bit array (a fresh SRAM-tier
            model by default).

    Example:
        >>> bf = BloomFilter(m=1024, k=7)
        >>> bf.add("10.0.0.1:443")
        >>> "10.0.0.1:443" in bf
        True
    """

    def __init__(
        self,
        m: int,
        k: int,
        family: Optional[HashFamily] = None,
        memory: Optional[MemoryModel] = None,
    ):
        super().__init__(m, k, family)
        self._allocate(m, memory)

    # ------------------------------------------------------------------
    # Sizing helpers
    # ------------------------------------------------------------------
    @classmethod
    def for_capacity(
        cls,
        n: int,
        fpr: float = 0.01,
        family: Optional[HashFamily] = None,
        memory: Optional[MemoryModel] = None,
    ) -> "BloomFilter":
        """Size a filter for ``n`` elements at target false positive rate
        (:func:`~repro.core.base.bloom_geometry`)."""
        m, k = bloom_geometry(n, fpr)
        return cls(m=m, k=k, family=family, memory=memory)

    @property
    def hash_ops_per_query(self) -> int:
        """Worst-case hash computations per query (``k``)."""
        return self._k

    def fpr_estimate(self) -> float:
        """Estimated FPR from the observed fill ratio, ``fill**k``.

        A structural estimate independent of the analytical model — useful
        for sanity-checking simulations against Eq. (8).
        """
        return self.fill_ratio() ** self._k

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------
    def add(self, element: ElementLike) -> None:
        """Insert *element*: set its ``k`` bits (``k`` recorded writes)."""
        for position in self._positions(element):
            self._bits.set(position)
        self._n_items += 1

    def add_batch(self, elements: Sequence[ElementLike]) -> None:
        """Batch insert: ``k`` single-bit writes per element, vectorised.

        Bit-identical state and access totals to a scalar :meth:`add`
        loop.
        """
        elements = list(elements)
        if not elements:
            return
        positions = self._family.positions_batch(elements, self._k, self._m)
        self._bits.set_bits_batch(positions.ravel())
        self._n_items += len(elements)

    def query_batch(self, elements: Sequence[ElementLike]) -> np.ndarray:
        """Batch membership test returning a boolean array.

        Runs the scalar early exit in survivor rounds
        (:func:`repro._vector.survivor_rounds`), like ShBF_M's
        :func:`repro.core.membership._query_pairs_batch`: round ``j``
        hashes and probes bit ``j`` of only the elements still alive,
        so each element is billed single-bit reads up to and including
        its first zero bit, the scalar early-exit accounting.  With a
        lazy lane source (:meth:`HashFamily.lanes_batch`) the hashing
        also stops at that bit, as in :meth:`query`.
        """
        lanes = self._family.lanes_batch(elements, self._k)
        return survivor_rounds(lanes, self._k, self._m, self._bits)

    def query(self, element: ElementLike) -> bool:
        """Membership test with early exit on the first zero bit.

        Hashes are computed lazily, one probe at a time, so a negative
        answer stops both the memory accesses *and* the hash
        computations after the first zero — the §3.2-style query loop
        every speed comparison in the paper assumes.
        """
        m = self._m
        bits = self._bits
        for value in self._family.iter_values(element, self._k):
            if not bits.test(value % m):
                return False
        return True

    def remove(self, element: ElementLike) -> None:
        """Unsupported: plain Bloom filters cannot delete (§1.1)."""
        raise UnsupportedOperationError(
            "BloomFilter does not support deletion; use CountingBloomFilter"
        )

    # ------------------------------------------------------------------
    # Set algebra and estimation
    # ------------------------------------------------------------------
    def _check_compatible(self, other: "BloomFilter") -> None:
        if (self._m != other._m or self._k != other._k
                or self._family.name != other._family.name):
            raise ConfigurationError(
                "filters are incompatible (m/k/family must match): "
                "%r vs %r" % (self, other)
            )

    def empty_like(self) -> "BloomFilter":
        """A fresh zero-bit filter with this filter's geometry, family
        and memory-model word size and tier —
        :meth:`union`-compatible by construction, used to build
        incremental replication deltas (see
        :meth:`repro.core.membership.ShiftingBloomFilter.empty_like`)."""
        return BloomFilter(
            m=self._m, k=self._k, family=self._family,
            memory=MemoryModel(word_bits=self.memory.word_bits,
                               tier=self.memory.tier),
        )

    def union(self, other: "BloomFilter") -> "BloomFilter":
        """Bitwise union: represents exactly ``S1 | S2``.

        Both filters must share ``m``, ``k`` and the hash family; the
        result's FPR equals that of a filter built from the union
        directly — the classic BF property Summary Cache relies on.
        """
        self._check_compatible(other)
        result = self.empty_like()
        np.bitwise_or(self._bits.as_numpy(), other._bits.as_numpy(),
                      out=result._bits.as_numpy())
        result._n_items = self._n_items + other._n_items
        return result

    def approximate_cardinality(self) -> float:
        """Estimate of the number of distinct inserted elements.

        The Swamidass–Baldi estimator ``-(m/k) ln(1 - X/m)`` where ``X``
        is the number of set bits; exact in expectation for uniform
        hashing.  Returns ``inf`` for a saturated filter.
        """
        set_bits = self._bits.count()
        if set_bits >= self._m:
            return math.inf
        return -(self._m / self._k) * math.log(1.0 - set_bits / self._m)

    def intersection_cardinality(self, other: "BloomFilter") -> float:
        """Inclusion–exclusion estimate of ``|S1 & S2|``.

        ``|S1| + |S2| - |S1 | S2|`` using :meth:`approximate_cardinality`
        on the operands and their union; clamped at zero.
        """
        self._check_compatible(other)
        estimate = (
            self.approximate_cardinality()
            + other.approximate_cardinality()
            - self.union(other).approximate_cardinality()
        )
        return max(0.0, estimate)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "BloomFilter(m=%d, k=%d, n_items=%d)" % (
            self._m, self._k, self._n_items)
