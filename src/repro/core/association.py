"""ShBF_A — the Shifting Bloom Filter for association queries (§4).

Given two sets ``S1`` and ``S2``, an association query asks which of the
three regions ``S1 - S2``, ``S1 ∩ S2``, ``S2 - S1`` contains an element
of ``S1 ∪ S2``.  ShBF_A stores each element **once**, encoding its region
in the offset added to its ``k`` hash positions:

* ``e ∈ S1 - S2`` → offset ``0``,
* ``e ∈ S1 ∩ S2`` → ``o1(e) = h_{k+1}(e) % ((w_bar-1)/2) + 1``,
* ``e ∈ S2 - S1`` → ``o2(e) = o1(e) + h_{k+2}(e) % ((w_bar-1)/2) + 1``.

A query reads the three bits ``B[h_i]``, ``B[h_i + o1]``, ``B[h_i + o2]``
in one word fetch per hash — ``k`` accesses and ``k + 2`` hashes total,
versus ``2k`` and ``2k`` for the iBF baseline (Table 2).  The surviving
combinations give the seven outcomes of §4.2; crucially the true region
always survives, so ShBF_A's answers are never *wrong*, only occasionally
incomplete, and the probability of a clear answer is ``(1 - 0.5^k)^2`` at
the optimal fill.

Unlike every prior multi-set scheme the paper reviews, ShBF_A does not
require ``S1`` and ``S2`` to be disjoint — intersection elements simply
take the ``o1`` offset.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro._util import ElementLike, require_positive, to_bytes
from repro._vector import billed_prefix, prefix_cost_sum
from repro.bitarray.bitarray import BitArray
from repro.bitarray.counters import CounterArray, OverflowPolicy
from repro.bitarray.memory import MemoryModel
from repro.core.association_types import Association, AssociationAnswer
from repro.core.offsets import OffsetPolicy
from repro.hashing.family import HashFamily, default_family

__all__ = [
    "Association",
    "AssociationAnswer",
    "CountingShiftingAssociationFilter",
    "ShiftingAssociationFilter",
]


#: The eight possible answers, indexed by the survivor code
#: ``c0 + 2·c1 + 4·c2`` of the S1-only, intersection and S2-only
#: candidates.  ShBF_A answers carry no false positives on the declared
#: region, so any single-candidate answer is clear (§4.2 outcomes 1-3);
#: code 0 is the empty, unclear answer.  Answers are frozen, so every
#: query shares these instances.
_ANSWERS = tuple(
    AssociationAnswer(
        candidates=frozenset(
            region for bit, region in enumerate(
                (Association.S1_ONLY, Association.BOTH, Association.S2_ONLY))
            if code >> bit & 1),
        clear=code in (1, 2, 4))
    for code in range(8)
)


class _AssociationBase:
    """Hash/offset plumbing shared by the plain and counting variants.

    Both variants keep the two hash tables ``T1``/``T2`` the construction
    phase requires (§4.1 builds them explicitly; they are also the ground
    truth for region transitions during updates).
    """

    def __init__(
        self,
        m: int,
        k: int,
        family: Optional[HashFamily],
        word_bits: int,
        w_bar: Optional[int],
        cell_bits: int,
    ):
        require_positive("m", m)
        require_positive("k", k)
        self._m = m
        self._k = k
        self._family = family if family is not None else default_family()
        self._policy = OffsetPolicy(
            word_bits=word_bits,
            cell_bits=cell_bits,
            w_bar=w_bar if w_bar is not None else -1,
        )
        # Force the half-range computation so invalid w_bar fails eagerly.
        self._policy.association_half_range
        self._t1: Set[bytes] = set()
        self._t2: Set[bytes] = set()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def m(self) -> int:
        """Logical number of cells."""
        return self._m

    @property
    def k(self) -> int:
        """Number of position hash functions."""
        return self._k

    @property
    def w_bar(self) -> int:
        """The offset range parameter."""
        return self._policy.w_bar

    @property
    def family(self) -> HashFamily:
        """The hash family in use."""
        return self._family

    @property
    def policy(self) -> OffsetPolicy:
        """The offset policy in force."""
        return self._policy

    @property
    def n_s1(self) -> int:
        """Current size of S1 (from the construction hash table)."""
        return len(self._t1)

    @property
    def n_s2(self) -> int:
        """Current size of S2."""
        return len(self._t2)

    @property
    def hash_ops_per_query(self) -> int:
        """Hash computations per query: ``k + 2`` (Table 2)."""
        return self._k + 2

    # ------------------------------------------------------------------
    # Hash plumbing
    # ------------------------------------------------------------------
    def _bases_and_offsets(
        self, element: ElementLike
    ) -> Tuple[List[int], int, int]:
        """The ``k`` base positions and the pair ``(o1, o2)``."""
        values = self._family.values(element, self._k + 2)
        bases = [v % self._m for v in values[: self._k]]
        o1, o2 = self._policy.association_offsets(
            values[self._k], values[self._k + 1])
        return bases, o1, o2

    def _bases_and_offsets_batch(
        self, elements: Sequence[ElementLike]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Batch twin of :meth:`_bases_and_offsets`."""
        values = self._family.values_batch(elements, self._k + 2)
        bases = (values[:, : self._k] % self._m).astype(np.int64)
        o1, o2 = self._policy.association_offsets_batch(
            values[:, self._k], values[:, self._k + 1])
        return bases, o1, o2

    def _query_bits(self, bits: BitArray,
                    element: ElementLike) -> AssociationAnswer:
        """§4.2's query: read the 3 bits per hash in one fetch, combine.

        ``k`` memory accesses and ``k + 2`` hashes worst case, computed
        lazily.  If every candidate dies the element provably lies
        outside ``S1 ∪ S2`` (possible only when the §4.2 query-model
        assumption is violated) and the loop exits early with an empty,
        unclear answer.
        """
        o1, o2 = self._policy.association_offsets(
            self._family.hash(self._k, element),
            self._family.hash(self._k + 1, element))
        alive0 = alive1 = alive2 = True
        m = self._m
        for value in self._family.iter_values(element, self._k):
            b0, b1, b2 = bits.test_triple(value % m, o1, o2)
            alive0 = alive0 and b0
            alive1 = alive1 and b1
            alive2 = alive2 and b2
            if not (alive0 or alive1 or alive2):
                break
        return _ANSWERS[alive0 + 2 * alive1 + 4 * alive2]

    def _query_batch_bits(
        self, bits: BitArray, elements: Sequence[ElementLike]
    ) -> List[AssociationAnswer]:
        """Batch §4.2 query: one 64-bit word load per base, 8-way answer.

        Each base's window — sized by the batch's largest ``o2`` — is one
        :meth:`BitArray.read_windows_batch` load; the three probe bits
        ``B[h_i]``, ``B[h_i + o1]``, ``B[h_i + o2]`` are shifted out of it
        into a 3-bit survivor code ``c0 + 2·c1 + 4·c2`` per hash, and
        AND-accumulating the codes along the ``k`` hashes leaves each
        element's final code, which indexes the shared answers in
        ``_ANSWERS``.  Bills the SRAM model exactly what the scalar
        early-exit loop would — triple reads spanning ``o2 + 1`` bits up
        to and including the first hash at which the code reaches 0.
        """
        elements = list(elements)
        if not elements:
            return []
        bases, o1, o2 = self._bases_and_offsets_batch(elements)
        windows = bits.read_windows_batch(
            bases.ravel(), int(o2.max()) + 1, record=False,
        ).reshape(bases.shape)
        # uint64 words on the fast path, Python ints past 64 bits.
        o1 = o1.astype(windows.dtype)[:, None]
        o2 = o2.astype(windows.dtype)[:, None]
        codes = (windows & 1) | (windows >> o1 & 1) << 1 \
            | (windows >> o2 & 1) << 2
        codes = np.bitwise_and.accumulate(codes.astype(np.uint8), axis=1)
        billed = billed_prefix(codes != 0)
        costs = bits.memory.read_cost_batch(bases, o2.astype(np.int64) + 1)
        bits.memory.record_reads(
            int(billed.sum()), prefix_cost_sum(costs, billed))
        return list(map(_ANSWERS.__getitem__, codes[:, -1].tolist()))

    def _region_offset(self, data: bytes, o1: int, o2: int) -> int:
        """Offset for the element's current region per the §4.1 rules."""
        in_s1 = data in self._t1
        in_s2 = data in self._t2
        if in_s1 and in_s2:
            return o1
        if in_s1:
            return 0
        if in_s2:
            return o2
        raise KeyError("element is in neither S1 nor S2")

    def region_of(self, element: ElementLike) -> Optional[Association]:
        """Ground-truth region from the construction hash tables.

        Returns None for elements outside ``S1 ∪ S2``.  Harnesses use this
        to score answers without keeping a parallel oracle.
        """
        data = to_bytes(element)
        in_s1 = data in self._t1
        in_s2 = data in self._t2
        if in_s1 and in_s2:
            return Association.BOTH
        if in_s1:
            return Association.S1_ONLY
        if in_s2:
            return Association.S2_ONLY
        return None

    @staticmethod
    def optimal_m(n1: int, n2: int, n_intersection: int, k: int) -> int:
        """Table 2's optimal sizing ``m = (n1 + n2 - n3) k / ln 2``.

        ShBF_A stores each *distinct* element of ``S1 ∪ S2`` once, hence
        the ``- n3``; iBF pays for intersection elements twice.
        """
        distinct = n1 + n2 - n_intersection
        require_positive("n1 + n2 - n_intersection", max(distinct, 0))
        return max(k, math.ceil(distinct * k / math.log(2)))


class ShiftingAssociationFilter(_AssociationBase):
    """ShBF_A: association filter over a bit array.

    Args:
        m: logical number of bits (the array appends ``w_bar - 1`` slack
            bits, §4.1's extension).
        k: number of position hash functions.
        family: hash family; indices ``0..k-1`` are positions, ``k`` and
            ``k+1`` are the offset hashes ``h_{k+1}``/``h_{k+2}``.
        word_bits: machine word size.
        w_bar: offset range override.
        memory: access-cost model.

    Example:
        >>> f = ShiftingAssociationFilter.for_sets(
        ...     s1=[b"a", b"b"], s2=[b"b", b"c"], k=8)
        >>> f.query(b"b").declaration
        'e in S1 and S2'
    """

    def __init__(
        self,
        m: int,
        k: int,
        family: Optional[HashFamily] = None,
        word_bits: int = 64,
        w_bar: Optional[int] = None,
        memory: Optional[MemoryModel] = None,
    ):
        super().__init__(m, k, family, word_bits, w_bar, cell_bits=1)
        if memory is None:
            memory = MemoryModel(word_bits=word_bits)
        self._bits = BitArray(m + self._policy.slack_cells, memory=memory)

    @classmethod
    def for_sets(
        cls,
        s1: Iterable[ElementLike],
        s2: Iterable[ElementLike],
        k: int,
        family: Optional[HashFamily] = None,
        memory_scale: float = 1.0,
        word_bits: int = 64,
    ) -> "ShiftingAssociationFilter":
        """Build an optimally-sized filter from two sets (Table 2 sizing)."""
        s1 = [to_bytes(e) for e in s1]
        s2 = [to_bytes(e) for e in s2]
        n3 = len(set(s1) & set(s2))
        m = cls.optimal_m(len(set(s1)), len(set(s2)), n3, k)
        m = max(k, math.ceil(m * memory_scale))
        instance = cls(m=m, k=k, family=family, word_bits=word_bits)
        instance.build(s1, s2)
        return instance

    @property
    def bits(self) -> BitArray:
        """The underlying bit array."""
        return self._bits

    @property
    def memory(self) -> MemoryModel:
        """The access-cost model."""
        return self._bits.memory

    @property
    def size_bits(self) -> int:
        """Total memory footprint in bits, slack included."""
        return self._bits.nbits

    # ------------------------------------------------------------------
    # Construction (§4.1)
    # ------------------------------------------------------------------
    def build(
        self, s1: Iterable[ElementLike], s2: Iterable[ElementLike]
    ) -> None:
        """Encode both sets, storing each distinct element once.

        Follows §4.1 exactly: ``S1`` elements take offset 0 or ``o1``
        depending on a ``T2`` lookup; ``S2`` elements already present in
        ``T1`` are skipped (their intersection encoding exists), the rest
        take ``o2``.
        """
        self._t1 = {to_bytes(e) for e in s1}
        self._t2 = {to_bytes(e) for e in s2}
        for data in self._t1 | self._t2:
            bases, o1, o2 = self._bases_and_offsets(data)
            offset = self._region_offset(data, o1, o2)
            for base in bases:
                self._bits.set(base + offset)

    def build_batch(
        self, s1: Iterable[ElementLike], s2: Iterable[ElementLike]
    ) -> None:
        """Batch construction: §4.1's encoding with vectorised writes.

        Identical filter state and access totals to :meth:`build` — each
        distinct element still pays ``k`` single-bit writes at its
        region's offset.
        """
        t1 = self._t1 = {to_bytes(e) for e in s1}
        t2 = self._t2 = {to_bytes(e) for e in s2}
        # Region by set algebra, in C: offset 0 for S1 - S2, o1 for
        # S1 ∩ S2, o2 for S2 - S1.  Bits are OR-ed, so the encode order
        # (set iteration order) cannot change the result.
        s1_only, both, s2_only = t1 - t2, t1 & t2, t2 - t1
        union = [*s1_only, *both, *s2_only]
        if not union:
            return
        bases, o1, o2 = self._bases_and_offsets_batch(union)
        lo, hi = len(s1_only), len(s1_only) + len(both)
        offsets = np.zeros(len(union), dtype=np.int64)
        offsets[lo:hi] = o1[lo:hi]
        offsets[hi:] = o2[hi:]
        self._bits.set_bits_batch((bases + offsets[:, None]).ravel())

    # ------------------------------------------------------------------
    # Query (§4.2)
    # ------------------------------------------------------------------
    def query_batch(
        self, elements: Sequence[ElementLike]
    ) -> List[AssociationAnswer]:
        """Batch association query (same answers/billing as :meth:`query`)."""
        return self._query_batch_bits(self._bits, elements)

    def query(self, element: ElementLike) -> AssociationAnswer:
        """Association query: ``k`` one-word reads, §4.2's combination."""
        return self._query_bits(self._bits, element)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "ShiftingAssociationFilter(m=%d, k=%d, |S1|=%d, |S2|=%d)" % (
            self._m, self._k, self.n_s1, self.n_s2)


class CountingShiftingAssociationFilter(_AssociationBase):
    """CShBF_A: the counting/updatable ShBF_A of §4.3.

    Maintains a DRAM-tier counter array for updates and an SRAM-tier bit
    array for queries, synchronised after every update.  Because an
    element's offset encodes its *region*, moving an element between
    regions (e.g. inserting an ``S2``-only element into ``S1`` turns it
    into an intersection element) re-encodes it: the counters at the old
    offset are decremented and the new offset's counters incremented —
    the natural completion of §4.3's update rule, which the paper leaves
    implicit.

    Args:
        m: logical number of cells.
        k: number of position hashes.
        counter_bits: counter width ``z``.
        family, word_bits, w_bar: as for the plain filter; note the
            counting offset bound ``w_bar <= (w - 7) // z``.
        sram / dram: access-cost models for the two tiers.
    """

    def __init__(
        self,
        m: int,
        k: int,
        counter_bits: int = 4,
        family: Optional[HashFamily] = None,
        word_bits: int = 64,
        w_bar: Optional[int] = None,
        sram: Optional[MemoryModel] = None,
        dram: Optional[MemoryModel] = None,
    ):
        require_positive("counter_bits", counter_bits)
        super().__init__(m, k, family, word_bits, w_bar,
                         cell_bits=counter_bits)
        size = m + self._policy.slack_cells
        if sram is None:
            sram = MemoryModel(word_bits=word_bits, tier="sram")
        if dram is None:
            dram = MemoryModel(word_bits=word_bits, tier="dram")
        self._bits = BitArray(size, memory=sram)
        self._counters = CounterArray(
            size, bits_per_counter=counter_bits, memory=dram,
            overflow=OverflowPolicy.SATURATE,
        )

    @property
    def bits(self) -> BitArray:
        """The SRAM-tier query array."""
        return self._bits

    @property
    def counters(self) -> CounterArray:
        """The DRAM-tier update array."""
        return self._counters

    @property
    def memory(self) -> MemoryModel:
        """Query-side (SRAM) access model."""
        return self._bits.memory

    @property
    def size_bits(self) -> int:
        """Total footprint: bit array plus counter array."""
        return self._bits.nbits + self._counters.total_bits

    # ------------------------------------------------------------------
    # Encoding primitives
    # ------------------------------------------------------------------
    def _encode(self, bases: List[int], offset: int) -> None:
        for base in bases:
            self._counters.increment(base + offset)
            self._bits.set(base + offset)

    def _unencode(self, bases: List[int], offset: int) -> None:
        for base in bases:
            position = base + offset
            self._counters.decrement(position)
            if self._counters.peek(position) == 0:
                self._bits.clear(position)

    def _transition(
        self, data: bytes, old_offset: Optional[int],
        new_offset: Optional[int],
    ) -> None:
        bases, _, _ = self._bases_and_offsets(data)
        if old_offset is not None:
            self._unencode(bases, old_offset)
        if new_offset is not None:
            self._encode(bases, new_offset)

    # ------------------------------------------------------------------
    # Updates (§4.3, completed for region transitions)
    # ------------------------------------------------------------------
    def add_to_s1(self, element: ElementLike) -> None:
        """Insert into S1; re-encodes S2-only elements as intersection."""
        data = to_bytes(element)
        if data in self._t1:
            return  # sets are idempotent
        _, o1, o2 = self._bases_and_offsets(data)
        if data in self._t2:
            self._transition(data, old_offset=o2, new_offset=o1)
        else:
            self._transition(data, old_offset=None, new_offset=0)
        self._t1.add(data)

    def add_to_s2(self, element: ElementLike) -> None:
        """Insert into S2; re-encodes S1-only elements as intersection."""
        data = to_bytes(element)
        if data in self._t2:
            return
        _, o1, o2 = self._bases_and_offsets(data)
        if data in self._t1:
            self._transition(data, old_offset=0, new_offset=o1)
        else:
            self._transition(data, old_offset=None, new_offset=o2)
        self._t2.add(data)

    def remove_from_s1(self, element: ElementLike) -> None:
        """Delete from S1; intersection elements fall back to S2-only.

        Raises:
            KeyError: if the element is not in S1.
        """
        data = to_bytes(element)
        if data not in self._t1:
            raise KeyError("element not in S1")
        _, o1, o2 = self._bases_and_offsets(data)
        if data in self._t2:
            self._transition(data, old_offset=o1, new_offset=o2)
        else:
            self._transition(data, old_offset=0, new_offset=None)
        self._t1.discard(data)

    def remove_from_s2(self, element: ElementLike) -> None:
        """Delete from S2; intersection elements fall back to S1-only.

        Raises:
            KeyError: if the element is not in S2.
        """
        data = to_bytes(element)
        if data not in self._t2:
            raise KeyError("element not in S2")
        _, o1, o2 = self._bases_and_offsets(data)
        if data in self._t1:
            self._transition(data, old_offset=o1, new_offset=0)
        else:
            self._transition(data, old_offset=o2, new_offset=None)
        self._t2.discard(data)

    # ------------------------------------------------------------------
    # Query — identical to the plain filter, against the bit array
    # ------------------------------------------------------------------
    def query_batch(
        self, elements: Sequence[ElementLike]
    ) -> List[AssociationAnswer]:
        """Batch association query against the SRAM bit array."""
        return self._query_batch_bits(self._bits, elements)

    def query(self, element: ElementLike) -> AssociationAnswer:
        """Association query against the SRAM bit array."""
        return self._query_bits(self._bits, element)

    def check_synchronised(self) -> bool:
        """Invariant: ``B[i]`` set iff ``C[i] > 0`` (tests hook)."""
        return all(
            self._bits.peek(i) == (self._counters.peek(i) > 0)
            for i in range(self._bits.nbits)
        )

    def build(
        self, s1: Iterable[ElementLike], s2: Iterable[ElementLike]
    ) -> None:
        """Bulk-build from two sets via the update path."""
        for element in s1:
            self.add_to_s1(element)
        for element in s2:
            self.add_to_s2(element)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            "CountingShiftingAssociationFilter(m=%d, k=%d, |S1|=%d, |S2|=%d)"
            % (self._m, self._k, self.n_s1, self.n_s2)
        )
