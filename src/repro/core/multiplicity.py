"""ShBF_x — the Shifting Bloom Filter for multiplicity queries (§5).

For a multi-set, an element's auxiliary information is its count
``c(e)``, encoded as the offset ``o(e) = c(e) - 1``: the filter sets the
``k`` bits ``B[h_i(e) % m + c(e) - 1]``.  A query reads ``c`` consecutive
bits from each of the ``k`` base positions (``k * ceil(c / w)`` word
fetches) and intersects them: every ``j`` whose ``k`` bits are all set is
a *candidate* multiplicity.  False positives can only add candidates, so
the true count is always among them — the filter never false-negates.

Candidate reporting policy (see DESIGN.md §1.5): §5.2's prose reports the
**largest** candidate ("always greater than or equal to the actual
value"), while Eq. (28)'s correctness rate ``(1 - f0)^{j-1}`` describes
the **smallest**.  Both are available; ``report="largest"`` is the
default to match the prose.

Updates need the *current* count before re-encoding; where it comes from
is the §5.3 design axis reproduced by
:class:`CountingShiftingMultiplicityFilter`:

* ``source="hash_table"`` (§5.3.2) — an off-chip exact table supplies the
  count; no false negatives ever.
* ``source="self_query"`` (§5.3.1) — the filter queries itself; a false
  positive there can clear a bit another element needs, introducing
  false negatives.  Kept for the update ablation.
"""

from __future__ import annotations

from typing import (
    Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union,
)

import numpy as np

from repro._util import ElementLike, require_positive, to_bytes
from repro._vector import billed_prefix, bit_length_u64, prefix_cost_sum
from repro.bitarray.bitarray import BitArray
from repro.bitarray.counters import CounterArray, OverflowPolicy
from repro.bitarray.memory import MemoryModel
from repro.core.interfaces import MultiplicityAnswer
from repro.errors import CapacityError, ConfigurationError
from repro.hashing.family import HashFamily, default_family

__all__ = [
    "CountingShiftingMultiplicityFilter",
    "ShiftingMultiplicityFilter",
]

_REPORT_POLICIES = ("largest", "smallest")


class _MultiplicityBase:
    """Hash plumbing and candidate-intersection query shared by variants."""

    def __init__(
        self,
        m: int,
        k: int,
        c_max: int,
        family: Optional[HashFamily],
        report: str,
    ):
        require_positive("m", m)
        require_positive("k", k)
        require_positive("c_max", c_max)
        if report not in _REPORT_POLICIES:
            raise ConfigurationError(
                "report must be one of %r, got %r"
                % (_REPORT_POLICIES, report)
            )
        self._m = m
        self._k = k
        self._c_max = c_max
        self._report = report
        self._family = family if family is not None else default_family()

    @property
    def m(self) -> int:
        """Logical number of cells."""
        return self._m

    @property
    def k(self) -> int:
        """Number of hash functions."""
        return self._k

    @property
    def c_max(self) -> int:
        """Maximum representable multiplicity ``c``."""
        return self._c_max

    @property
    def report(self) -> str:
        """The candidate reporting policy."""
        return self._report

    @property
    def family(self) -> HashFamily:
        """The hash family in use."""
        return self._family

    @property
    def hash_ops_per_query(self) -> int:
        """Hash computations per query (``k``)."""
        return self._k

    def _bases(self, element: ElementLike) -> List[int]:
        return [v % self._m for v in self._family.values(element, self._k)]

    def _answer_from_mask(self, mask: int) -> MultiplicityAnswer:
        candidates = tuple(
            j + 1 for j in range(self._c_max) if mask >> j & 1
        )
        if not candidates:
            reported = 0
        elif self._report == "largest":
            reported = candidates[-1]
        else:
            reported = candidates[0]
        return MultiplicityAnswer(candidates=candidates, reported=reported)

    def _query_bits(self, bits: BitArray, element: ElementLike
                    ) -> MultiplicityAnswer:
        """§5.2's query: window per base, intersect candidate masks.

        Early-exits once the intersection is empty — no candidate can
        resurrect — which is where ShBF_x's access advantage over
        Spectral BF / CM sketch at large ``k`` comes from (Fig. 11(b)).
        """
        mask = (1 << self._c_max) - 1
        m = self._m
        c_max = self._c_max
        for value in self._family.iter_values(element, self._k):
            mask &= bits.read_window(value % m, c_max)
            if mask == 0:
                break
        return self._answer_from_mask(mask)

    def _query_bits_batch(
        self, bits: BitArray, elements: Sequence[ElementLike]
    ) -> np.ndarray:
        """Batch §5.2 query: reported multiplicities as an int64 array.

        Vectorises the per-base window reads and the candidate-mask
        intersection, billing each element for window reads up to and
        including the read that emptied its mask (the scalar early
        exit).  Reported values follow the filter's ``report`` policy;
        they equal ``query(e).reported`` element for element.  Falls
        back to the scalar loop when ``c_max`` is too wide for a single
        ``uint64`` window gather (never the case under the paper's
        ``c_max <= w_bar`` configurations).
        """
        elements = list(elements)
        if not elements:
            return np.zeros(0, dtype=np.int64)
        if self._c_max + 7 > 64:
            return np.fromiter(
                (self._query_bits(bits, e).reported for e in elements),
                dtype=np.int64, count=len(elements),
            )
        bases = self._family.positions_batch(elements, self._k, self._m)
        windows = bits.read_windows_batch(
            bases.ravel(), self._c_max, record=False,
        ).reshape(bases.shape)
        masks = np.bitwise_and.accumulate(windows, axis=1)
        billed = billed_prefix(masks != 0)
        costs = bits.memory.read_cost_batch(bases, self._c_max)
        bits.memory.record_reads(
            int(billed.sum()), prefix_cost_sum(costs, billed))
        final = masks[:, -1]
        if self._report == "largest":
            return bit_length_u64(final)
        lowest = final & (~final + np.uint64(1))
        return bit_length_u64(lowest)


class ShiftingMultiplicityFilter(_MultiplicityBase):
    """ShBF_x: static multiplicity filter built from known counts.

    The §5.1 construction keeps the exact counts in a hash table (used to
    derive each element's offset, and exposed as :meth:`true_count` for
    harness scoring); the bit array answers queries.

    Args:
        m: logical number of bits; the array appends ``c_max - 1`` slack
            bits so offsets never wrap.
        k: number of hash functions.
        c_max: maximum multiplicity ``c`` (57 in the paper's Fig. 11
            setup, so a window read is still one word fetch).
        family: hash family.
        report: candidate reporting policy, ``"largest"`` (§5.2 prose) or
            ``"smallest"`` (Eq. (28)'s policy).
        memory: access-cost model.

    Example:
        >>> f = ShiftingMultiplicityFilter(m=2048, k=4, c_max=8)
        >>> f.add(b"flow", count=3)
        >>> f.query(b"flow").reported
        3
    """

    def __init__(
        self,
        m: int,
        k: int,
        c_max: int,
        family: Optional[HashFamily] = None,
        report: str = "largest",
        memory: Optional[MemoryModel] = None,
    ):
        super().__init__(m, k, c_max, family, report)
        self._bits = BitArray(m + c_max - 1 if c_max > 1 else m,
                              memory=memory)
        self._counts: Dict[bytes, int] = {}

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
        """Bit-array footprint (the on-chip part)."""
        return self._bits.nbits

    @property
    def n_items(self) -> int:
        """Number of distinct encoded elements."""
        return len(self._counts)

    def true_count(self, element: ElementLike) -> int:
        """Ground-truth multiplicity from the construction hash table."""
        return self._counts.get(to_bytes(element), 0)

    # ------------------------------------------------------------------
    # Construction (§5.1)
    # ------------------------------------------------------------------
    def add(self, element: ElementLike, count: int = 1) -> None:
        """Encode *element* with multiplicity *count* (once per element).

        Raises:
            ConfigurationError: if the element was already encoded (the
                static filter cannot re-encode; use the counting variant)
                or *count* exceeds ``c_max``.
        """
        self._check_count(count)
        data = to_bytes(element)
        if data in self._counts:
            raise ConfigurationError(
                "element already encoded; the static ShBF_x encodes each "
                "element exactly once (use "
                "CountingShiftingMultiplicityFilter for updates)"
            )
        offset = count - 1
        for base in self._bases(data):
            self._bits.set(base + offset)
        self._counts[data] = count

    def build(
        self,
        counts: Union[Mapping[ElementLike, int],
                      Iterable[Tuple[ElementLike, int]]],
    ) -> None:
        """Bulk-encode a mapping (or iterable of pairs) of counts."""
        items = counts.items() if isinstance(counts, Mapping) else counts
        for element, count in items:
            self.add(element, count)

    def add_batch(
        self, elements: Sequence[ElementLike], counts: Sequence[int]
    ) -> None:
        """Batch encode: one vectorised bit-write pass for the batch.

        Validates every (element, count) pair *before* touching the
        array, then produces the same state and access totals as a
        scalar :meth:`add` loop — ``k`` single-bit writes per element at
        offset ``count - 1``.
        """
        elements = list(elements)
        if not isinstance(counts, np.ndarray):
            counts = list(counts)
        if len(elements) != len(counts):
            raise ConfigurationError(
                "add_batch needs one count per element (%d vs %d)"
                % (len(elements), len(counts))
            )
        if not elements:
            return
        counts = self._checked_counts(counts)
        datas = [to_bytes(e) for e in elements]
        if (len(set(datas)) != len(datas)
                or not self._counts.keys().isdisjoint(datas)):
            raise ConfigurationError(
                "element already encoded; the static ShBF_x encodes "
                "each element exactly once (use "
                "CountingShiftingMultiplicityFilter for updates)"
            )
        bases = self._family.positions_batch(datas, self._k, self._m)
        self._bits.set_bits_batch((bases + (counts - 1)[:, None]).ravel())
        self._counts.update(zip(datas, counts.tolist()))

    def _check_count(self, count: int) -> None:
        require_positive("count", count)
        if count > self._c_max:
            raise ConfigurationError(
                "count %d exceeds c_max %d" % (count, self._c_max)
            )

    def _checked_counts(self, counts) -> np.ndarray:
        """:meth:`add`'s count checks over a batch, as an int64 array.

        Counts must be Python or NumPy integers — never ``bool`` or
        ``float`` — within ``[1, c_max]``.  One vectorised pass accepts a
        valid batch; otherwise the per-count checks name the first bad
        count, as a scalar :meth:`add` loop would.
        """
        array = np.asarray(counts)
        if array.dtype.kind in "iu" and (
                isinstance(counts, np.ndarray)
                or {bool, np.bool_}.isdisjoint(map(type, counts))):
            if 0 < array.min() and array.max() <= self._c_max:
                return array.astype(np.int64)
        for count in counts:
            self._check_count(
                int(count) if isinstance(count, np.integer) else count)
        return array.astype(np.int64)

    # ------------------------------------------------------------------
    # Query (§5.2)
    # ------------------------------------------------------------------
    def query(self, element: ElementLike) -> MultiplicityAnswer:
        """Return candidate multiplicities and the reported value."""
        return self._query_bits(self._bits, element)

    def query_batch(self, elements: Sequence[ElementLike]) -> np.ndarray:
        """Batch query: reported multiplicities as an ``int64`` array.

        Equals ``[query(e).reported for e in elements]`` (i.e. the
        :meth:`estimate` view of the answers) with scalar-identical
        memory accounting.
        """
        return self._query_bits_batch(self._bits, elements)

    def estimate(self, element: ElementLike) -> int:
        """Shortcut for ``query(element).reported``."""
        return self.query(element).reported

    def __contains__(self, element: ElementLike) -> bool:
        return self.query(element).present

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "ShiftingMultiplicityFilter(m=%d, k=%d, c_max=%d, items=%d)" \
            % (self._m, self._k, self._c_max, len(self._counts))


class CountingShiftingMultiplicityFilter(_MultiplicityBase):
    """CShBF_x: updatable ShBF_x with the two §5.3 update strategies.

    Maintains three structures, mirroring Fig. 5's pipeline:

    * an SRAM-tier bit array ``B`` answering queries,
    * a DRAM-tier counter array ``C`` tracking how many elements encode
      each bit (so re-encoding one element never clears a bit that
      another element still needs),
    * with ``source="hash_table"``, an off-chip exact count table that
      supplies the current multiplicity ``z`` during updates (§5.3.2 —
      no false negatives); with ``source="self_query"``, ``z`` comes from
      querying ``B`` itself (§5.3.1 — false positives there can corrupt
      ``C``/``B`` and manifest as false negatives, which the ablation
      bench measures).

    Args:
        m: logical number of cells.
        k: number of hash functions.
        c_max: maximum representable multiplicity.
        source: ``"hash_table"`` or ``"self_query"``.
        counter_bits: width of the ``C`` counters.
        family: hash family.
        sram / dram: access-cost models for the two tiers.
    """

    _SOURCES = ("hash_table", "self_query")

    def __init__(
        self,
        m: int,
        k: int,
        c_max: int,
        source: str = "hash_table",
        counter_bits: int = 4,
        family: Optional[HashFamily] = None,
        report: str = "largest",
        sram: Optional[MemoryModel] = None,
        dram: Optional[MemoryModel] = None,
    ):
        super().__init__(m, k, c_max, family, report)
        if source not in self._SOURCES:
            raise ConfigurationError(
                "source must be one of %r, got %r" % (self._SOURCES, source)
            )
        self._source = source
        size = m + c_max - 1 if c_max > 1 else m
        if sram is None:
            sram = MemoryModel(tier="sram")
        if dram is None:
            dram = MemoryModel(tier="dram")
        self._bits = BitArray(size, memory=sram)
        self._counters = CounterArray(
            size, bits_per_counter=counter_bits, memory=dram,
            overflow=OverflowPolicy.SATURATE,
        )
        self._table: Dict[bytes, int] = {}

    @property
    def source(self) -> str:
        """Where updates learn the current multiplicity."""
        return self._source

    @property
    def bits(self) -> BitArray:
        """The SRAM-tier query array."""
        return self._bits

    @property
    def counters(self) -> CounterArray:
        """The DRAM-tier reference-count array."""
        return self._counters

    @property
    def memory(self) -> MemoryModel:
        """Query-side (SRAM) access model."""
        return self._bits.memory

    @property
    def size_bits(self) -> int:
        """Footprint of the on-chip and off-chip arrays (table excluded)."""
        return self._bits.nbits + self._counters.total_bits

    @property
    def n_items(self) -> int:
        """Distinct elements tracked (hash-table source only)."""
        return len(self._table)

    def true_count(self, element: ElementLike) -> int:
        """Exact multiplicity from the off-chip table (if maintained)."""
        return self._table.get(to_bytes(element), 0)

    # ------------------------------------------------------------------
    # Encoding primitives
    # ------------------------------------------------------------------
    def _encode(self, bases: List[int], multiplicity: int) -> None:
        offset = multiplicity - 1
        for base in bases:
            position = base + offset
            self._counters.increment(position)
            self._bits.set(position)

    def _unencode(self, bases: List[int], multiplicity: int) -> None:
        """§5.3.1's guarded removal: skip already-zero counters."""
        offset = multiplicity - 1
        for base in bases:
            position = base + offset
            if self._counters.peek(position) > 0:
                self._counters.decrement(position)
            if self._counters.peek(position) == 0:
                self._bits.clear(position)

    def _current_multiplicity(self, data: bytes) -> int:
        if self._source == "hash_table":
            return self._table.get(data, 0)
        return self._query_bits(self._bits, data).reported

    # ------------------------------------------------------------------
    # Updates (§5.3)
    # ------------------------------------------------------------------
    def add(self, element: ElementLike) -> None:
        """Record one more occurrence of *element*.

        Deletes the ``z``-th multiplicity encoding and inserts the
        ``(z+1)``-th, keeping the "one encoding per element" invariant.

        Raises:
            CapacityError: if the element already sits at ``c_max``.
        """
        data = to_bytes(element)
        z = self._current_multiplicity(data)
        if z >= self._c_max:
            raise CapacityError(
                "element already at maximum multiplicity %d" % self._c_max
            )
        bases = self._bases(data)
        if z > 0:
            self._unencode(bases, z)
        self._encode(bases, z + 1)
        if self._source == "hash_table":
            self._table[data] = z + 1

    def update(self, elements: Iterable[ElementLike]) -> None:
        """Record one occurrence per item (repeats accumulate)."""
        for element in elements:
            self.add(element)

    def remove(self, element: ElementLike) -> None:
        """Remove one occurrence of *element*.

        With the hash-table source, removing an absent element raises
        ``KeyError``.  With the self-query source the filter trusts its
        own (possibly false-positive) answer, faithfully reproducing the
        §5.3.1 failure mode.
        """
        data = to_bytes(element)
        z = self._current_multiplicity(data)
        if z == 0:
            raise KeyError("element not present in the multi-set")
        bases = self._bases(data)
        self._unencode(bases, z)
        if z > 1:
            self._encode(bases, z - 1)
        if self._source == "hash_table":
            if z > 1:
                self._table[data] = z - 1
            else:
                del self._table[data]

    # ------------------------------------------------------------------
    # Query (§5.2)
    # ------------------------------------------------------------------
    def query(self, element: ElementLike) -> MultiplicityAnswer:
        """Return candidate multiplicities and the reported value."""
        return self._query_bits(self._bits, element)

    def query_batch(self, elements: Sequence[ElementLike]) -> np.ndarray:
        """Batch query against the SRAM bit array (reported values)."""
        return self._query_bits_batch(self._bits, elements)

    def estimate(self, element: ElementLike) -> int:
        """Shortcut for ``query(element).reported``."""
        return self.query(element).reported

    def __contains__(self, element: ElementLike) -> bool:
        return self.query(element).present

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            "CountingShiftingMultiplicityFilter(m=%d, k=%d, c_max=%d, "
            "source=%s)" % (self._m, self._k, self._c_max, self._source)
        )
