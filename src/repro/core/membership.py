"""ShBF_M — the Shifting Bloom Filter for membership queries (§3).

A standard Bloom filter spends ``k`` hash computations and ``k`` one-word
memory accesses per query.  ShBF_M halves both: it computes only
``k/2 + 1`` hashes — ``k/2`` position hashes plus one offset hash
``o(e) = h_{k/2+1}(e) % (w_bar - 1) + 1`` — and sets/checks the *pairs*
``B[h_i(e) % m]`` and ``B[h_i(e) % m + o(e)]``.  Because the offset is
bounded by ``w_bar - 1 <= w - 8``, each pair is read in a single
byte-aligned word fetch, so a query costs at most ``k/2`` accesses while
still involving ``k`` bits — and Theorem 1 shows the FPR

    f = (1 - p)^{k/2} * (1 - p + p^2 / (w_bar - 1))^{k/2},   p = e^{-nk/m}

is negligibly above a standard BF's ``(1 - p)^k`` once ``w_bar >= 20``
(Fig. 3).

:class:`CountingShiftingBloomFilter` is §3.3's CShBF_M: a DRAM-tier
counter array for updates, kept synchronised with the SRAM-tier bit
array that serves queries.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro._util import ElementLike, require_even, require_positive
from repro.bitarray.bitarray import BitArray
from repro.bitarray.counters import CounterArray, OverflowPolicy
from repro.bitarray.memory import MemoryModel
from repro.core.offsets import OffsetPolicy
from repro.errors import ConfigurationError, UnsupportedOperationError
from repro.hashing.family import HashFamily, default_family

__all__ = ["CountingShiftingBloomFilter", "ShiftingBloomFilter"]


def _bases_and_offsets_batch(filt, elements):
    """Batch ``(n, k/2)`` base positions and ``(n,)`` offsets.

    Shared by the plain and counting filters (both expose ``_family``,
    ``_m``, ``_half`` and ``_policy`` with identical §3.1 semantics).
    """
    values = filt._family.values_batch(elements, filt._half + 1)
    bases = (values[:, : filt._half] % filt._m).astype(np.int64)
    offsets = filt._policy.membership_offset_batch(values[:, filt._half])
    return bases, offsets


def _flat_pairs_batch(filt, elements):
    """Per-pair ``(flat_bases, (0, offset) columns)`` for a batch insert.

    Flattens the ``(n, k/2)`` base matrix row-major and repeats each
    element's offset across its ``k/2`` pairs, so the bit/counter batch
    kernels bill one write per pair exactly like the scalar loops.
    """
    bases, offsets = _bases_and_offsets_batch(filt, elements)
    flat_bases = bases.ravel()
    flat_offsets = np.repeat(offsets, filt._half)
    pair = np.stack([np.zeros_like(flat_offsets), flat_offsets], axis=1)
    return flat_bases, pair


def _query_pairs_batch(filt, bits, elements) -> np.ndarray:
    """Shared ShBF_M batch query against *bits* (§3.2, vectorised).

    Runs the scalar early exit in survivor rounds: round ``j`` probes
    pair ``j`` of only the elements whose pairs ``0 .. j-1`` were all
    set, and the batch ends as soon as no element survives.  Verdicts
    equal the scalar ``query`` element for element, and the memory
    model is billed the pair reads actually made — which is exactly
    what the scalar loop bills — in one call once every round has
    passed its bounds checks.
    """
    values = filt._family.values_batch(elements, filt._half + 1)
    offsets = filt._policy.membership_offset_batch(values[:, filt._half])
    rows = np.arange(len(values))
    memory = bits.memory
    ops = words = 0
    for j in range(filt._half):
        bases = (values[rows, j] % filt._m).astype(np.int64)
        ok = bits.test_pairs_batch(bases, offsets, record=False)
        ops += len(rows)
        words += int(memory.read_cost_batch(bases, offsets + 1).sum())
        rows = rows[ok]
        offsets = offsets[ok]
        if not len(rows):
            break
    memory.record_reads(ops, words)
    verdicts = np.zeros(len(values), dtype=bool)
    verdicts[rows] = True
    return verdicts


class ShiftingBloomFilter:
    """ShBF_M: membership filter probing ``k/2`` shifted bit pairs.

    Args:
        m: logical number of bits; the array allocates ``m + w_bar - 1``
            so shifted positions never wrap (§3.1's extension).
        k: total number of probe bits per element; must be even — the
            first ``k/2`` come from position hashes, the rest from the
            same positions shifted by the element's offset.
        family: hash family; indices ``0..k/2-1`` are position hashes,
            index ``k/2`` is the offset hash ``h_{k/2+1}`` of §3.1.
        word_bits: machine word size ``w`` (64 by default, giving
            ``w_bar = 57``; 32 gives the paper's ``w_bar = 25``).
        w_bar: offset range override; values below the word-size maximum
            reproduce Fig. 3's sensitivity sweep.
        memory: access-cost model for the bit array (SRAM tier).

    Example:
        >>> shbf = ShiftingBloomFilter(m=4096, k=8)
        >>> shbf.add("10.0.0.1:443")
        >>> "10.0.0.1:443" in shbf
        True
        >>> shbf.hash_ops_per_query    # k/2 + 1 = 5, vs 8 for a BF
        5
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
        require_positive("m", m)
        require_even("k", k)
        self._m = m
        self._k = k
        self._half = k // 2
        self._family = family if family is not None else default_family()
        self._policy = OffsetPolicy(
            word_bits=word_bits,
            cell_bits=1,
            w_bar=w_bar if w_bar is not None else -1,
        )
        if memory is None:
            memory = MemoryModel(word_bits=word_bits)
        self._bits = BitArray(m + self._policy.slack_cells, memory=memory)
        self._n_items = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def m(self) -> int:
        """Logical number of bits (excluding anti-wrap slack)."""
        return self._m

    @property
    def k(self) -> int:
        """Total probe bits per element."""
        return self._k

    @property
    def w_bar(self) -> int:
        """The offset range parameter (offsets lie in ``[1, w_bar-1]``)."""
        return self._policy.w_bar

    @property
    def n_items(self) -> int:
        """Number of elements inserted so far."""
        return self._n_items

    @property
    def family(self) -> HashFamily:
        """The hash family in use."""
        return self._family

    @property
    def policy(self) -> OffsetPolicy:
        """The offset policy in force."""
        return self._policy

    @property
    def bits(self) -> BitArray:
        """The underlying bit array (``m + w_bar - 1`` bits)."""
        return self._bits

    @property
    def memory(self) -> MemoryModel:
        """The access-cost model of the underlying array."""
        return self._bits.memory

    @property
    def size_bits(self) -> int:
        """Total memory footprint in bits, slack included."""
        return self._bits.nbits

    @property
    def hash_ops_per_query(self) -> int:
        """Worst-case hash computations per query: ``k/2 + 1`` (§3.1)."""
        return self._half + 1

    def fill_ratio(self) -> float:
        """Fraction of bits currently set."""
        return self._bits.fill_ratio()

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------
    def _bases_and_offset(self, element: ElementLike) -> Tuple[List[int], int]:
        """The ``k/2`` base positions and the element's offset."""
        values = self._family.values(element, self._half + 1)
        bases = [v % self._m for v in values[: self._half]]
        offset = self._policy.membership_offset(values[self._half])
        return bases, offset

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------
    def add(self, element: ElementLike) -> None:
        """Insert *element*: set ``k/2`` bit pairs, one write each.

        Both bits of a pair share a word (offset <= w_bar - 1), so the
        construction performs ``k/2`` write accesses and ``k/2 + 1`` hash
        computations — the paper's construction-phase costs.
        """
        bases, offset = self._bases_and_offset(element)
        pair = (0, offset)
        for base in bases:
            self._bits.set_offsets(base, pair)
        self._n_items += 1

    def update(self, elements: Iterable[ElementLike]) -> None:
        """Insert every element of an iterable."""
        for element in elements:
            self.add(element)

    def add_batch(self, elements: Sequence[ElementLike]) -> None:
        """Batch insert: hashes, bit writes and accounting vectorised.

        Produces bit-identical filter state and the same logical access
        totals as calling :meth:`add` per element — ``k/2`` one-word pair
        writes each — in a handful of NumPy calls for the whole batch.
        """
        elements = list(elements)
        if not elements:
            return
        flat_bases, pair = _flat_pairs_batch(self, elements)
        self._bits.set_offsets_batch(flat_bases, pair)
        self._n_items += len(elements)

    def query_batch(self, elements: Sequence[ElementLike]) -> np.ndarray:
        """Batch membership test returning a boolean array.

        Verdicts equal :meth:`query` element for element, with the
        scalar loop's early-exit billing (see
        :func:`_query_pairs_batch`).
        """
        return _query_pairs_batch(self, self._bits, elements)

    def query(self, element: ElementLike) -> bool:
        """Membership test reading one word per pair, early exit (§3.2).

        Each iteration computes one position hash lazily and fetches
        ``B[h_i]`` and ``B[h_i + o]`` together; if either is 0 the element
        is definitely absent and the query stops, so worst-case cost is
        ``k/2`` accesses / ``k/2 + 1`` hashes and typically far less for
        negatives.
        """
        offset = self._policy.membership_offset(
            self._family.hash(self._half, element))
        m = self._m
        bits = self._bits
        for value in self._family.iter_values(element, self._half):
            if not bits.test_pair(value % m, offset):
                return False
        return True

    def __contains__(self, element: ElementLike) -> bool:
        return self.query(element)

    def remove(self, element: ElementLike) -> None:
        """Unsupported on the plain filter; §3.3's counting variant
        (:class:`CountingShiftingBloomFilter`) handles deletion."""
        raise UnsupportedOperationError(
            "ShiftingBloomFilter does not support deletion; "
            "use CountingShiftingBloomFilter"
        )

    # ------------------------------------------------------------------
    # Set algebra and estimation
    # ------------------------------------------------------------------
    def empty_like(self) -> "ShiftingBloomFilter":
        """A fresh zero-bit filter with this filter's exact geometry.

        Same ``m``, ``k``, ``w_bar``, word size and hash family, so the
        clone is :meth:`union`-compatible with the original by
        construction; its memory model has the original's word size and
        tier, with fresh counters.  This is the building block for
        incremental replication deltas: new writes are applied to an
        empty clone, the clone is shipped, and the receiver unions it
        in — bits and ``n_items`` both land exactly as if the writes had
        been applied remotely.
        """
        return ShiftingBloomFilter(
            m=self._m, k=self._k, family=self._family,
            word_bits=self._policy.word_bits, w_bar=self.w_bar,
            memory=MemoryModel(word_bits=self.memory.word_bits,
                               tier=self.memory.tier),
        )

    def union(self, other: "ShiftingBloomFilter") -> "ShiftingBloomFilter":
        """Bitwise union: represents exactly ``S1 | S2``.

        An element's probe positions are deterministic given the family,
        ``m`` and ``w_bar``, so OR-ing the arrays preserves ShBF_M query
        semantics exactly — the same distributed-merge pattern Summary
        Cache uses with plain Bloom filters.
        """
        if (self._m != other._m or self._k != other._k
                or self.w_bar != other.w_bar
                or self._family.name != other._family.name):
            raise ConfigurationError(
                "filters are incompatible (m/k/w_bar/family must match): "
                "%r vs %r" % (self, other)
            )
        result = self.empty_like()
        np.bitwise_or(self._bits.as_numpy(), other._bits.as_numpy(),
                      out=result._bits.as_numpy())
        result._n_items = self._n_items + other._n_items
        return result

    def approximate_cardinality(self) -> float:
        """Estimate of the number of distinct inserted elements.

        The Swamidass–Baldi estimator ``-(m/k) ln(1 - X/m')`` with
        ``X`` the set-bit count and ``m'`` the physical array size
        (``m + w_bar - 1``): each insert sets ``k`` near-uniform bits, so
        the Bloom occupancy argument carries over.  Returns ``inf`` for a
        saturated array.
        """
        physical = self._bits.nbits
        set_bits = self._bits.count()
        if set_bits >= physical:
            return math.inf
        return -(physical / self._k) * math.log(
            1.0 - set_bits / physical)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "ShiftingBloomFilter(m=%d, k=%d, w_bar=%d, n_items=%d)" % (
            self._m, self._k, self.w_bar, self._n_items)


class CountingShiftingBloomFilter:
    """CShBF_M: the counting/updatable ShBF_M of §3.3.

    Maintains **two** synchronised structures, exactly as the paper
    deploys them:

    * a bit array ``B`` (SRAM tier) answering queries at ShBF_M speed,
    * a counter array ``C`` (DRAM tier) absorbing inserts and deletes.

    Updates write both; a delete clears a bit in ``B`` only when its
    counter in ``C`` reaches zero.  Queries never touch ``C``.  With the
    counting offset bound ``w_bar <= (w - 7) / z`` an update's counter
    pair also shares one word, so "one update of CShBF_M needs only k/2
    memory accesses".

    Args:
        m: logical number of cells.
        k: total probe bits per element (even).
        counter_bits: counter width ``z`` (4 by default, per §3.3).
        family: hash family (same index roles as ShBF_M).
        word_bits: machine word size.
        w_bar: offset range override; defaults to the *counting* bound
            ``(w - 7) // z`` so updates stay one access per pair.  Note
            this is tighter than the bit-only bound, hence a slightly
            higher FPR than a standalone ShBF_M — the price of update
            support the paper accepts.
        sram: access-cost model for ``B``; ``dram``: model for ``C``.
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
        require_positive("m", m)
        require_even("k", k)
        require_positive("counter_bits", counter_bits)
        self._m = m
        self._k = k
        self._half = k // 2
        self._family = family if family is not None else default_family()
        self._policy = OffsetPolicy(
            word_bits=word_bits,
            cell_bits=counter_bits,
            w_bar=w_bar if w_bar is not None else -1,
        )
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
        self._n_items = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def m(self) -> int:
        """Logical number of cells."""
        return self._m

    @property
    def k(self) -> int:
        """Total probe bits per element."""
        return self._k

    @property
    def w_bar(self) -> int:
        """The (counting-bounded) offset range parameter."""
        return self._policy.w_bar

    @property
    def n_items(self) -> int:
        """Net number of elements represented."""
        return self._n_items

    @property
    def bits(self) -> BitArray:
        """The SRAM-tier query array ``B``."""
        return self._bits

    @property
    def counters(self) -> CounterArray:
        """The DRAM-tier update array ``C``."""
        return self._counters

    @property
    def memory(self) -> MemoryModel:
        """Query-side (SRAM) access model, for harness symmetry."""
        return self._bits.memory

    @property
    def size_bits(self) -> int:
        """Total footprint: bits of ``B`` plus bits of ``C``."""
        return self._bits.nbits + self._counters.total_bits

    @property
    def hash_ops_per_query(self) -> int:
        """Worst-case hash computations per query: ``k/2 + 1``."""
        return self._half + 1

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------
    def _bases_and_offset(self, element: ElementLike) -> Tuple[List[int], int]:
        values = self._family.values(element, self._half + 1)
        bases = [v % self._m for v in values[: self._half]]
        offset = self._policy.membership_offset(values[self._half])
        return bases, offset

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------
    def add(self, element: ElementLike) -> None:
        """Insert: increment ``k/2`` counter pairs in C, set bits in B."""
        bases, offset = self._bases_and_offset(element)
        pair = (0, offset)
        for base in bases:
            self._counters.increment_offsets(base, pair)
            self._bits.set_offsets(base, pair)
        self._n_items += 1

    def update(self, elements: Iterable[ElementLike]) -> None:
        """Insert every element of an iterable."""
        for element in elements:
            self.add(element)

    def add_batch(self, elements: Sequence[ElementLike]) -> None:
        """Batch insert updating both tiers with vectorised accounting.

        State and logical access totals (DRAM counter writes + SRAM bit
        writes) match a scalar :meth:`add` loop exactly.
        """
        elements = list(elements)
        if not elements:
            return
        flat_bases, pair = _flat_pairs_batch(self, elements)
        self._counters.increment_offsets_batch(flat_bases, pair)
        self._bits.set_offsets_batch(flat_bases, pair)
        self._n_items += len(elements)

    def query_batch(self, elements: Sequence[ElementLike]) -> np.ndarray:
        """Batch membership test against the SRAM bit array.

        Same verdicts and early-exit-equivalent billing as
        :class:`ShiftingBloomFilter.query_batch`.
        """
        return _query_pairs_batch(self, self._bits, elements)

    def remove(self, element: ElementLike) -> None:
        """Delete: decrement counters; clear bits whose counter hits zero.

        This is §3.3's synchronisation rule.  Deleting an element that was
        never inserted raises
        :class:`~repro.errors.CounterUnderflowError` at the first zero
        counter.
        """
        bases, offset = self._bases_and_offset(element)
        pair = (0, offset)
        for base in bases:
            self._counters.decrement_offsets(base, pair)
            for o in pair:
                if self._counters.peek(base + o) == 0:
                    self._bits.clear(base + o)
        self._n_items -= 1

    def query(self, element: ElementLike) -> bool:
        """Membership test against the SRAM bit array (ShBF_M query)."""
        offset = self._policy.membership_offset(
            self._family.hash(self._half, element))
        m = self._m
        bits = self._bits
        for value in self._family.iter_values(element, self._half):
            if not bits.test_pair(value % m, offset):
                return False
        return True

    def __contains__(self, element: ElementLike) -> bool:
        return self.query(element)

    def check_synchronised(self) -> bool:
        """Invariant: ``B[i]`` is set iff ``C[i] > 0`` (tests hook).

        Saturated counters are the one permitted divergence source, but
        with saturating semantics a bit stays set while its counter is
        stuck at max, so the equivalence still holds.
        """
        return all(
            self._bits.peek(i) == (self._counters.peek(i) > 0)
            for i in range(self._bits.nbits)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            "CountingShiftingBloomFilter(m=%d, k=%d, w_bar=%d, n_items=%d)"
            % (self._m, self._k, self.w_bar, self._n_items)
        )
