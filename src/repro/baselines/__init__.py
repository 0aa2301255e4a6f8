"""Baseline structures the paper evaluates against.

Every comparator in the paper's evaluation (and the related-work schemes
used in our ablations) is implemented here from scratch:

* :class:`~repro.baselines.bloom.BloomFilter` — the standard Bloom filter
  (Bloom, 1970), the membership baseline of Figures 4, 8 and 9.
* :class:`~repro.baselines.counting_bloom.CountingBloomFilter` — CBF
  (Fan et al.), the deletable variant referenced in §1.1.
* :class:`~repro.baselines.one_mem_bloom.OneMemoryBloomFilter` — 1MemBF
  (Qiao et al.), the state-of-the-art membership comparator of
  Figures 7 and 9.
* :class:`~repro.baselines.double_hash_bloom.DoubleHashBloomFilter` —
  the Kirsch–Mitzenmacher less-hashing filter from related work §2.1.
* :class:`~repro.baselines.ibf.IndividualBloomFilters` — one BF per set,
  the association baseline of Table 2 and Figure 10.
* :class:`~repro.baselines.spectral.SpectralBloomFilter` — Cohen &
  Matias' spectral filter (MS / MI / RM variants), the multiplicity
  baseline of Figure 11.
* :class:`~repro.baselines.count_min.CountMinSketch` — Cormode &
  Muthukrishnan's sketch, the second multiplicity baseline of Figure 11.
* :class:`~repro.baselines.cuckoo.CuckooFilter` and
  :class:`~repro.baselines.dcf.DynamicCountFilter` — related-work schemes
  (§2.1, §2.3) used in ablation benches.

Every baseline stands on the filter skeleton of :mod:`repro.core.base`,
as the shifting filters do, and keeps only its own cells, probes and
scalar ops.  BF and 1MemBF are bit-array filters
(:class:`~repro.core.base.BitArrayFilter`).  The counter, sketch and
fingerprint structures share the skeleton's root
(:class:`~repro.core.base.HashedStructure`: checked sizes, the default
hash family, ``memory``): CBF, Spectral BF and DCF add the ``m``-cell,
``k``-probe :class:`~repro.core.base.ProbeGeometry`; CBF and the cuckoo
filter are :class:`~repro.core.base.ElementFilter` s (``n_items``,
``update``, ``in``); CM, Spectral BF and DCF are
:class:`~repro.core.base.CountEstimator` s, whose ``query`` and ``in``
come from their ``estimate``; iBF uses the root alone.
"""

from repro.baselines.bloom import BloomFilter
from repro.baselines.count_min import CountMinSketch
from repro.baselines.counting_bloom import CountingBloomFilter
from repro.baselines.cuckoo import CuckooFilter
from repro.baselines.dcf import DynamicCountFilter
from repro.baselines.double_hash_bloom import DoubleHashBloomFilter
from repro.baselines.ibf import IndividualBloomFilters
from repro.baselines.one_mem_bloom import OneMemoryBloomFilter
from repro.baselines.spectral import SpectralBloomFilter, SpectralVariant

__all__ = [
    "BloomFilter",
    "CountMinSketch",
    "CountingBloomFilter",
    "CuckooFilter",
    "DynamicCountFilter",
    "DoubleHashBloomFilter",
    "IndividualBloomFilters",
    "OneMemoryBloomFilter",
    "SpectralBloomFilter",
    "SpectralVariant",
]
