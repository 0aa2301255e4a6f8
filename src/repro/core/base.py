"""The skeleton every filter and sketch shares (§3.1, §4.1, §5.1, §6).

ShBF_M, ShBF_A, ShBF_x, their generalisations and every structure the
paper compares against are one anatomy: an array of cells probed at
hash-chosen positions, billed to an access-cost model.  Only the cells
(bits, counters or fingerprints) and the probe layout change from one
structure to the next.  The shared parts live here:

* :class:`HashedStructure` — the root: positive sizes checked once, the
  hash family defaulted once and the ``memory`` model the cells bill to;
* :class:`ProbeGeometry` — ``m`` cells probed at ``k`` hash bases;
* :class:`BitArrayFilter` — that geometry backed by an ``m``-bit array,
  plus slack bits so shifted probes never wrap;
* :class:`ShiftedFilter` — the :class:`~repro.core.offsets.OffsetPolicy`
  of a bit-array filter whose offsets are bounded by ``w_bar``;
* :class:`ElementFilter` — elements inserted one at a time and counted
  in ``n_items``, tested with ``in``;
* :class:`CountEstimator` — an element filter whose answer is a
  multiplicity ``estimate``;
* :class:`CountingTier` — the DRAM counter tier of the counting variants
  (§3.3, §4.3, §5.3), which updates write and queries never read.

A concrete structure keeps only what differs: its cell arrays, probe
layout and offsets, ``hash_ops_per_query``, its scalar ops and its batch
kernels.  No concrete structure subclasses another.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Tuple

from repro._util import ElementLike, require_positive
from repro.bitarray.bitarray import BitArray
from repro.bitarray.counters import CounterArray, OverflowPolicy
from repro.bitarray.memory import MemoryModel
from repro.core.interfaces import MultiplicityAnswer
from repro.core.offsets import OffsetPolicy
from repro.hashing.family import HashFamily, default_family

__all__ = ["BitArrayFilter", "CountEstimator", "CountingTier",
           "ElementFilter", "HashedStructure", "ProbeGeometry",
           "ShiftedFilter", "bloom_geometry", "memory_model"]


def memory_model(memory: Optional[MemoryModel], word_bits: int = 64,
                 tier: str = "sram") -> MemoryModel:
    """*memory*, or a fresh model of ``word_bits``-bit words in *tier*."""
    if memory is None:
        memory = MemoryModel(word_bits=word_bits, tier=tier)
    return memory


def bloom_geometry(n: int, fpr: float) -> Tuple[int, int]:
    """The textbook ``(m, k)`` for ``n`` elements at false positive rate
    *fpr*: ``m = -n ln f / (ln 2)^2`` and ``k = (m/n) ln 2`` (Eq. (8)/(9)
    territory of the paper)."""
    require_positive("n", n)
    if not 0.0 < fpr < 1.0:
        raise ValueError("fpr must be in (0, 1), got %r" % fpr)
    m = max(1, math.ceil(-n * math.log(fpr) / (math.log(2) ** 2)))
    return m, max(1, round(m / n * math.log(2)))


class HashedStructure:
    """A structure whose cells are chosen by a hash family.

    Checks that every size in *sizes* is positive, in the order given,
    and defaults the hash family.  A structure that does not keep a bit
    array sets ``_memory``, the model its cells bill to.
    """

    def __init__(self, family: Optional[HashFamily], **sizes: int):
        for name, value in sizes.items():
            require_positive(name, value)
        self._family = family if family is not None else default_family()

    @property
    def family(self) -> HashFamily:
        """The hash family in use."""
        return self._family

    @property
    def memory(self) -> MemoryModel:
        """The access-cost model the cells bill to."""
        return self._memory


class ProbeGeometry(HashedStructure):
    """``m`` cells probed at ``k`` hash bases.

    Checks ``m`` (positive), ``k`` (with *check_k*) and then the further
    *sizes* of the concrete structure.
    """

    def __init__(self, m: int, k: int, family: Optional[HashFamily],
                 check_k=require_positive, **sizes: int):
        require_positive("m", m)
        check_k("k", k)
        super().__init__(family, **sizes)
        self._m = m
        self._k = k

    @property
    def m(self) -> int:
        """Logical number of cells (excluding anti-wrap slack)."""
        return self._m

    @property
    def k(self) -> int:
        """Number of probe cells (or hash bases) per element."""
        return self._k

    def _positions(self, element: ElementLike) -> list[int]:
        """The ``k`` hash bases of *element*, each below ``m``."""
        return [v % self._m for v in self._family.values(element, self._k)]


class BitArrayFilter(ProbeGeometry):
    """An ``m``-cell bit array probed at ``k`` hash bases.

    The concrete filter sizes its array — ``m`` plus its own slack —
    with :meth:`_allocate`.
    """

    def _allocate(self, cells: int, memory: Optional[MemoryModel],
                  word_bits: int = 64) -> None:
        """Back the filter with a *cells*-bit array billed to *memory*
        (a fresh model for ``word_bits``-bit words by default)."""
        self._bits = BitArray(cells, memory=memory_model(memory, word_bits))

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


class ElementFilter(HashedStructure):
    """A structure that inserts elements one at a time."""

    #: Net number of insertions represented; ``add`` counts each one
    #: (or its count mass, in a structure that adds with a count).
    _n_items = 0

    @property
    def n_items(self) -> int:
        """Net number of insertions represented."""
        return self._n_items

    def update(self, elements: Iterable[ElementLike]) -> None:
        """Insert every element of an iterable, once each."""
        for element in elements:
            self.add(element)

    def __contains__(self, element: ElementLike) -> bool:
        return self.query(element)


class CountEstimator(ElementFilter):
    """An element filter that answers with a multiplicity ``estimate``,
    ``0`` meaning absent."""

    def query(self, element: ElementLike) -> MultiplicityAnswer:
        """Multiplicity query in the harness' common answer format."""
        value = self.estimate(element)
        candidates = (value,) if value > 0 else ()
        return MultiplicityAnswer(candidates=candidates, reported=value)

    def __contains__(self, element: ElementLike) -> bool:
        return self.estimate(element) > 0


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
        self._allocate(cells, sram, word_bits)
        self._counters = CounterArray(
            cells, bits_per_counter=counter_bits,
            memory=memory_model(dram, word_bits, "dram"),
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
