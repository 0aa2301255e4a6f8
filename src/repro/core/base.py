"""The skeleton every bit-array filter shares (§3.1, §4.1, §5.1).

ShBF_M, ShBF_A, ShBF_x, their generalisations and the BF baselines are
one structure: an ``m``-bit array, plus slack bits so shifted probes
never wrap, probed at ``k`` hash bases.  :class:`BitArrayFilter` owns
that structure — the checked geometry, the hash family and the bit
array with its access-cost model — and its read-only introspection.
Three optional parts ride on it:

* :class:`ShiftedFilter` — the :class:`~repro.core.offsets.OffsetPolicy`
  of a filter whose offsets are bounded by ``w_bar``;
* :class:`ElementFilter` — elements inserted one at a time and counted
  in ``n_items``, tested with ``in``;
* :class:`CountingTier` — the DRAM counter tier of the counting variants
  (§3.3, §4.3, §5.3), which updates write and queries never read.

A concrete filter keeps only what differs: its probe layout and
offsets, ``hash_ops_per_query``, its scalar ``add``/``query`` and its
batch kernels.  No concrete filter subclasses another.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro._util import ElementLike, require_positive
from repro.bitarray.bitarray import BitArray
from repro.bitarray.counters import CounterArray, OverflowPolicy
from repro.bitarray.memory import MemoryModel
from repro.core.offsets import OffsetPolicy
from repro.hashing.family import HashFamily, default_family

__all__ = ["BitArrayFilter", "CountingTier", "ElementFilter",
           "ShiftedFilter"]


class BitArrayFilter:
    """An ``m``-cell bit array probed at ``k`` hash bases.

    Checks ``m`` (positive) and ``k`` (with *check_k*), and defaults the
    hash family.  The concrete filter then sizes its array — ``m`` plus
    its own slack — with :meth:`_allocate`.
    """

    def __init__(self, m: int, k: int, family: Optional[HashFamily],
                 check_k=require_positive):
        require_positive("m", m)
        check_k("k", k)
        self._m = m
        self._k = k
        self._family = family if family is not None else default_family()

    def _allocate(self, cells: int, memory: Optional[MemoryModel],
                  word_bits: int = 64) -> None:
        """Back the filter with a *cells*-bit array billed to *memory*
        (a fresh model for ``word_bits``-bit words by default)."""
        if memory is None:
            memory = MemoryModel(word_bits=word_bits)
        self._bits = BitArray(cells, memory=memory)

    @property
    def m(self) -> int:
        """Logical number of cells (excluding anti-wrap slack)."""
        return self._m

    @property
    def k(self) -> int:
        """Number of probe bits (or hash bases) per element."""
        return self._k

    @property
    def family(self) -> HashFamily:
        """The hash family in use."""
        return self._family

    @property
    def bits(self) -> BitArray:
        """The (SRAM-tier) bit array queries read, slack included."""
        return self._bits

    @property
    def memory(self) -> MemoryModel:
        """The access-cost model of the bit array."""
        return self._bits.memory

    @property
    def size_bits(self) -> int:
        """Total memory footprint in bits, slack included."""
        return self._bits.nbits

    def fill_ratio(self) -> float:
        """Fraction of bits currently set."""
        return self._bits.fill_ratio()


class ShiftedFilter(BitArrayFilter):
    """A bit-array filter whose offsets stay within ``w_bar`` cells."""

    def _offset_policy(self, word_bits: int, cell_bits: int,
                       w_bar: Optional[int]) -> None:
        """Fix the offset policy; the array then needs
        ``policy.slack_cells`` cells past ``m``."""
        self._policy = OffsetPolicy(
            word_bits=word_bits, cell_bits=cell_bits,
            w_bar=w_bar if w_bar is not None else -1)

    @property
    def w_bar(self) -> int:
        """The offset range parameter."""
        return self._policy.w_bar

    @property
    def policy(self) -> OffsetPolicy:
        """The offset policy in force."""
        return self._policy


class ElementFilter(BitArrayFilter):
    """A bit-array filter that inserts elements one at a time."""

    #: Net number of elements represented; ``add`` counts each insert.
    _n_items = 0

    @property
    def n_items(self) -> int:
        """Net number of elements represented."""
        return self._n_items

    def update(self, elements: Iterable[ElementLike]) -> None:
        """Insert every element of an iterable."""
        for element in elements:
            self.add(element)

    def __contains__(self, element: ElementLike) -> bool:
        return self.query(element)


class CountingTier(BitArrayFilter):
    """The counting variants' two synchronised tiers (§3.3, §4.3, §5.3).

    An SRAM-tier bit array ``B`` answers queries; a DRAM-tier array
    ``C`` of saturating counters absorbs updates.  Updates write both,
    clearing a bit of ``B`` only when its counter reaches zero; queries
    never touch ``C``.
    """

    def _allocate_tiers(self, cells: int, counter_bits: int,
                        sram: Optional[MemoryModel],
                        dram: Optional[MemoryModel],
                        word_bits: int = 64) -> None:
        """Allocate ``B`` and ``C`` with *cells* cells each, billed to
        *sram* and *dram* (fresh ``word_bits`` models by default)."""
        if sram is None:
            sram = MemoryModel(word_bits=word_bits, tier="sram")
        if dram is None:
            dram = MemoryModel(word_bits=word_bits, tier="dram")
        self._bits = BitArray(cells, memory=sram)
        self._counters = CounterArray(
            cells, bits_per_counter=counter_bits, memory=dram,
            overflow=OverflowPolicy.SATURATE,
        )

    @property
    def counters(self) -> CounterArray:
        """The DRAM-tier update array ``C``."""
        return self._counters

    @property
    def size_bits(self) -> int:
        """Total footprint: bits of ``B`` plus bits of ``C``."""
        return self._bits.nbits + self._counters.total_bits

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
