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
from typing import Iterable, Optional, Sequence

import numpy as np

from repro._util import ElementLike, require_positive
from repro.bitarray.bitarray import BitArray
from repro.bitarray.memory import MemoryModel
from repro.errors import ConfigurationError, UnsupportedOperationError
from repro.hashing.family import HashFamily, default_family

__all__ = ["BloomFilter"]


class BloomFilter:
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
        require_positive("m", m)
        require_positive("k", k)
        self._m = m
        self._k = k
        self._family = family if family is not None else default_family()
        self._bits = BitArray(m, memory=memory)
        self._n_items = 0

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
        """Size a filter for ``n`` elements at target false positive rate.

        Uses the textbook optima ``m = -n ln f / (ln 2)^2`` and
        ``k = (m/n) ln 2`` (Eq. (8)/(9) territory of the paper).
        """
        require_positive("n", n)
        if not 0.0 < fpr < 1.0:
            raise ValueError("fpr must be in (0, 1), got %r" % fpr)
        m = max(1, math.ceil(-n * math.log(fpr) / (math.log(2) ** 2)))
        k = max(1, round(m / n * math.log(2)))
        return cls(m=m, k=k, family=family, memory=memory)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def m(self) -> int:
        """Number of bits in the array."""
        return self._m

    @property
    def k(self) -> int:
        """Number of hash functions."""
        return self._k

    @property
    def n_items(self) -> int:
        """Number of elements inserted so far."""
        return self._n_items

    @property
    def family(self) -> HashFamily:
        """The hash family in use."""
        return self._family

    @property
    def bits(self) -> BitArray:
        """The underlying bit array (exposed for tests and harnesses)."""
        return self._bits

    @property
    def memory(self) -> MemoryModel:
        """The access-cost model of the underlying array."""
        return self._bits.memory

    @property
    def size_bits(self) -> int:
        """Total memory footprint in bits."""
        return self._bits.nbits

    @property
    def hash_ops_per_query(self) -> int:
        """Worst-case hash computations per query (``k``)."""
        return self._k

    def fill_ratio(self) -> float:
        """Fraction of bits currently set."""
        return self._bits.fill_ratio()

    def fpr_estimate(self) -> float:
        """Estimated FPR from the observed fill ratio, ``fill**k``.

        A structural estimate independent of the analytical model — useful
        for sanity-checking simulations against Eq. (8).
        """
        return self.fill_ratio() ** self._k

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------
    def _positions(self, element: ElementLike) -> list[int]:
        return [v % self._m for v in self._family.values(element, self._k)]

    def add(self, element: ElementLike) -> None:
        """Insert *element*: set its ``k`` bits (``k`` recorded writes)."""
        for position in self._positions(element):
            self._bits.set(position)
        self._n_items += 1

    def update(self, elements: Iterable[ElementLike]) -> None:
        """Insert every element of an iterable."""
        for element in elements:
            self.add(element)

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

        Runs the scalar early exit in survivor rounds, like
        :func:`repro.core.membership._query_pairs_batch`: round ``j``
        probes bit ``j`` of only the elements still alive, so each
        element is billed single-bit reads up to and including its
        first zero bit — the scalar early-exit accounting.
        """
        positions = self._family.positions_batch(elements, self._k, self._m)
        rows = np.arange(len(positions))
        memory = self.memory
        ops = words = 0
        for j in range(self._k):
            probe = positions[rows, j]
            ok = self._bits.test_bits_batch(probe, record=False)
            ops += len(rows)
            words += int(memory.read_cost_batch(probe, 1).sum())
            rows = rows[ok]
            if not len(rows):
                break
        memory.record_reads(ops, words)
        verdicts = np.zeros(len(positions), dtype=bool)
        verdicts[rows] = True
        return verdicts

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

    def __contains__(self, element: ElementLike) -> bool:
        return self.query(element)

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
