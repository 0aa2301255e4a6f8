"""iBF — one individual Bloom filter per set (the association baseline).

The straightforward association scheme from §4.5 of the paper, used by
the Summary-Cache Enhanced ICP protocol: build one Bloom filter per set
and answer "which set holds e?" by querying both.  Costs ``2k`` hash
computations and up to ``2k`` memory accesses per query, and its
"element is in both sets" answer can be a false positive (a membership FP
in either filter), so the paper counts it as never clear.

Sizing follows Table 2: with query traffic hitting both sets equally, the
optimum splits ``m1 + m2 = (n1 + n2) k / ln 2`` proportionally to the set
sizes so both filters run at the half-full sweet spot.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional

from repro._util import ElementLike, require_positive
from repro.baselines.bloom import BloomFilter
from repro.bitarray.memory import MemoryModel
from repro.core.association_types import Association, AssociationAnswer
from repro.core.base import HashedStructure, memory_model
from repro.hashing.family import HashFamily

__all__ = ["IndividualBloomFilters"]


class IndividualBloomFilters(HashedStructure):
    """Association queries via one Bloom filter per set.

    Args:
        m1: bits for the ``S1`` filter.
        m2: bits for the ``S2`` filter.
        k: hash functions per filter.
        family: hash family shared by both filters (each gets an
            independent slice of indices so the filters stay independent).
        memory: shared access-cost model (defaults to a fresh SRAM-tier
            model so both filters' traffic lands in one tally, as a query
            touches both).

    Example:
        >>> ibf = IndividualBloomFilters.for_sets([b"a", b"b"], [b"b"], k=8)
        >>> ibf.query(b"a").declaration
        'e in S1 - S2'
    """

    def __init__(
        self,
        m1: int,
        m2: int,
        k: int,
        family: Optional[HashFamily] = None,
        memory: Optional[MemoryModel] = None,
    ):
        super().__init__(family, m1=m1, m2=m2, k=k)
        self._k = k
        self._memory = memory_model(memory)
        self._bf1 = BloomFilter(
            m=m1, k=k, family=_IndexSlice(self._family, 0),
            memory=self._memory,
        )
        self._bf2 = BloomFilter(
            m=m2, k=k, family=_IndexSlice(self._family, k),
            memory=self._memory,
        )

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def for_sets(
        cls,
        s1: Iterable[ElementLike],
        s2: Iterable[ElementLike],
        k: int,
        family: Optional[HashFamily] = None,
        memory_scale: float = 1.0,
    ) -> "IndividualBloomFilters":
        """Build optimally-sized filters from the two sets.

        Sizes per Table 2: ``m1 + m2 = (n1 + n2) * k / ln 2`` split
        proportionally, optionally scaled by *memory_scale* (Fig. 10 gives
        iBF its naturally larger footprint: iBF stores intersection
        elements twice).
        """
        s1 = list(s1)
        s2 = list(s2)
        require_positive("k", k)
        n1 = max(1, len(s1))
        n2 = max(1, len(s2))
        m1 = max(k, math.ceil(memory_scale * n1 * k / math.log(2)))
        m2 = max(k, math.ceil(memory_scale * n2 * k / math.log(2)))
        scheme = cls(m1=m1, m2=m2, k=k, family=family)
        for element in s1:
            scheme.add_to_s1(element)
        for element in s2:
            scheme.add_to_s2(element)
        return scheme

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def k(self) -> int:
        """Hash functions per filter."""
        return self._k

    @property
    def bf1(self) -> BloomFilter:
        """The ``S1`` filter."""
        return self._bf1

    @property
    def bf2(self) -> BloomFilter:
        """The ``S2`` filter."""
        return self._bf2

    @property
    def size_bits(self) -> int:
        """Total memory footprint in bits (both filters)."""
        return self._bf1.size_bits + self._bf2.size_bits

    @property
    def hash_ops_per_query(self) -> int:
        """Worst-case hash computations per query (``2k``, Table 2)."""
        return 2 * self._k

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------
    def add_to_s1(self, element: ElementLike) -> None:
        """Insert *element* into the ``S1`` filter."""
        self._bf1.add(element)

    def add_to_s2(self, element: ElementLike) -> None:
        """Insert *element* into the ``S2`` filter."""
        self._bf2.add(element)

    def query(self, element: ElementLike) -> AssociationAnswer:
        """Identify the region of *element* (assumed to be in S1 ∪ S2).

        Both filters are probed in full (``2k`` worst-case accesses, with
        the usual early exit inside each).  Per the paper's accounting,
        an answer is *clear* only when exactly one filter reports
        membership: the "in both" outcome may be a false positive of
        either filter, and an empty outcome contradicts the query model.
        """
        in_s1 = self._bf1.query(element)
        in_s2 = self._bf2.query(element)
        if in_s1 and not in_s2:
            return AssociationAnswer(
                candidates=frozenset({Association.S1_ONLY}), clear=True)
        if in_s2 and not in_s1:
            return AssociationAnswer(
                candidates=frozenset({Association.S2_ONLY}), clear=True)
        if in_s1 and in_s2:
            return AssociationAnswer(
                candidates=frozenset({Association.BOTH}), clear=False)
        return AssociationAnswer(candidates=frozenset(), clear=False)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "IndividualBloomFilters(m1=%d, m2=%d, k=%d)" % (
            self._bf1.m, self._bf2.m, self._k)


class _IndexSlice(HashFamily):
    """View of a family starting at a fixed index offset.

    Gives each of the two filters an independent block of hash indices
    from one base family, mirroring the paper's pool of vetted hash
    functions split across structures.
    """

    def __init__(self, base: HashFamily, start: int):
        self._base = base
        self._start = start
        self.output_bits = base.output_bits

    @property
    def name(self) -> str:
        return "%s[+%d]" % (self._base.name, self._start)

    def hash_bytes(self, index: int, data: bytes) -> int:
        return self._base.hash_bytes(self._start + index, data)

    def values(self, element, count, start=0):
        return self._base.values(element, count, start=self._start + start)
