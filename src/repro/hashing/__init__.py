"""Hash families with uniformly distributed outputs.

Every structure in the paper assumes ``k`` independent hash functions with
uniformly distributed outputs (§1.1).  This subpackage provides:

* :class:`~repro.hashing.family.HashFamily` — the common interface: an
  indexed family of 64-bit hash functions over ``bytes``, with scalar
  and whole-batch (``values_batch``/``positions_batch``) entry points
  that are bit-identical by contract,
* :class:`~repro.hashing.blake.Blake2Family` — the default family, built
  from seeded BLAKE2b digests split into 64-bit lanes (cryptographic
  mixing, C-speed via :mod:`hashlib`),
* :class:`~repro.hashing.vectorized.VectorizedFamily` — the batch-path
  speed option: splitmix64-style avalanche mixers whose batch entry
  points run entirely inside NumPy ``uint64`` kernels,
* :class:`~repro.hashing.mixers.Murmur3Family`,
  :class:`~repro.hashing.mixers.FNV1aFamily` and
  :class:`~repro.hashing.mixers.XXHash64Family` — reference ports of the
  classic non-cryptographic hashes the paper's authors drew from [1]
  (scalar implementations, kept as vetting baselines and test vectors),
* :class:`~repro.hashing.double_hashing.DoubleHashingFamily` — the
  Kirsch–Mitzenmacher ``h1 + i*h2`` construction (related work §2.1),
* :func:`~repro.hashing.family.make_family` /
  :func:`~repro.hashing.family.family_spec` — the family registry:
  every seed-reconstructible family has a ``(kind, seed)`` spec that
  snapshots persist and CLIs select by name,
* :mod:`~repro.hashing.randomness` — the statistical vetting harness
  grown from the authors' per-bit balance test (§6.1): balance,
  chi-square position uniformity, pairwise independence and avalanche,
  which every non-cryptographic family must pass before carrying the
  hot path.
"""

from repro.hashing.blake import Blake2Family
from repro.hashing.double_hashing import DoubleHashingFamily
from repro.hashing.family import (
    FAMILY_KINDS,
    SERVING_FAMILY,
    HashFamily,
    default_family,
    family_spec,
    make_family,
)
from repro.hashing.mixers import (
    FNV1aFamily,
    Murmur3Family,
    XXHash64Family,
    fnv1a_64,
    murmur3_32,
    splitmix64,
    xxh64,
)
from repro.hashing.randomness import (
    AvalancheReport,
    BitBalanceReport,
    FamilyVettingReport,
    IndependenceReport,
    UniformityReport,
    avalanche_report,
    bit_balance_report,
    independence_report,
    position_uniformity_report,
    vet_family,
)
from repro.hashing.vectorized import VectorizedFamily

__all__ = [
    "AvalancheReport",
    "BitBalanceReport",
    "Blake2Family",
    "DoubleHashingFamily",
    "FAMILY_KINDS",
    "FNV1aFamily",
    "FamilyVettingReport",
    "HashFamily",
    "IndependenceReport",
    "Murmur3Family",
    "SERVING_FAMILY",
    "UniformityReport",
    "VectorizedFamily",
    "XXHash64Family",
    "avalanche_report",
    "bit_balance_report",
    "default_family",
    "family_spec",
    "fnv1a_64",
    "independence_report",
    "make_family",
    "murmur3_32",
    "position_uniformity_report",
    "splitmix64",
    "vet_family",
    "xxh64",
]
