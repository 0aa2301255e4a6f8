"""The paper's contribution: the Shifting Bloom Filter framework.

A ShBF encodes an element's *existence* information in ``k`` hash
positions and its *auxiliary* information in a location offset ``o(e)``
added to those positions.  The three instantiations demonstrated in the
paper are all here:

* :class:`~repro.core.membership.ShiftingBloomFilter` (ShBF_M) — treats
  half of the ``k`` positions as auxiliary information reached through a
  random offset, halving hash computations and memory accesses versus a
  standard Bloom filter at essentially unchanged FPR (§3).
* :class:`~repro.core.association.ShiftingAssociationFilter` (ShBF_A) —
  encodes which of two sets an element belongs to in one of three offsets
  ``{0, o1(e), o2(e)}``; answers are never false, only occasionally
  incomplete (§4).
* :class:`~repro.core.multiplicity.ShiftingMultiplicityFilter` (ShBF_x)
  — encodes an element's multiplicity ``c(e)`` as the offset
  ``c(e) - 1`` (§5).
* :class:`~repro.core.generalized.GeneralizedShiftingBloomFilter` — the
  §3.6 generalisation applying ``t`` shifts per independent hash.
* :class:`~repro.core.scm.ShiftingCountMinSketch` — the shifting version
  of the count-min sketch (§5.5).

Counting variants (``CShBF_*``) pair a DRAM-tier counter array with the
SRAM-tier bit array and keep them synchronised, exactly as §3.3/§4.3/§5.3
prescribe.
"""

from repro.core.association import (
    Association,
    AssociationAnswer,
    CountingShiftingAssociationFilter,
    ShiftingAssociationFilter,
)
from repro.core.generalized import GeneralizedShiftingBloomFilter
from repro.core.interfaces import MultiplicityAnswer
from repro.core.log_shifting import LogShiftingBloomFilter
from repro.core.membership import (
    CountingShiftingBloomFilter,
    ShiftingBloomFilter,
)
from repro.core.multiplicity import (
    CountingShiftingMultiplicityFilter,
    ShiftingMultiplicityFilter,
)
from repro.core.offsets import OffsetPolicy
from repro.core.scm import ShiftingCountMinSketch

__all__ = [
    "Association",
    "AssociationAnswer",
    "CountingShiftingAssociationFilter",
    "CountingShiftingBloomFilter",
    "CountingShiftingMultiplicityFilter",
    "GeneralizedShiftingBloomFilter",
    "LogShiftingBloomFilter",
    "MultiplicityAnswer",
    "OffsetPolicy",
    "ShiftingAssociationFilter",
    "ShiftingBloomFilter",
    "ShiftingCountMinSketch",
    "ShiftingMultiplicityFilter",
]
