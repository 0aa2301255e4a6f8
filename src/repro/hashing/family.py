"""The hash-family interface shared by every filter.

A *hash family* is an indexed collection ``h_0, h_1, h_2, ...`` of hash
functions over byte strings, each returning a uniformly distributed
non-negative integer of :attr:`HashFamily.output_bits` bits.  Filters ask
for the first ``k`` values of an element and reduce them modulo their
array size; shifting filters additionally use dedicated indices for the
offset hashes (e.g. ShBF_M uses ``h_{k/2+1}`` for its offset, §3.1).

Keeping the family abstract lets the ablation benches swap BLAKE2,
murmur3, FNV-1a, xxhash and Kirsch–Mitzenmacher double hashing under
identical filter code — mirroring the paper's methodology of vetting many
candidate hash functions and using the ones that pass a randomness test.
"""

from __future__ import annotations

import abc
import os
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro._util import ElementLike, require_non_negative, to_bytes
from repro._vector import mod_int64
from repro.errors import ConfigurationError

__all__ = [
    "FAMILY_KINDS",
    "HashFamily",
    "SERVING_FAMILY",
    "default_family",
    "family_spec",
    "make_family",
]


class HashFamily(abc.ABC):
    """An indexed family of uniform hash functions over bytes.

    Subclasses implement :meth:`hash_bytes`; the public entry points
    canonicalise arbitrary elements (str/int/bytes) first so equal logical
    elements always collide.
    """

    #: Number of uniformly distributed output bits; positions are derived
    #: by reduction modulo the array size, so this should comfortably
    #: exceed ``log2(m)`` (all built-in families emit 64 bits except
    #: murmur3-32, which emits 32 and documents the reduced range).
    output_bits: int = 64

    @property
    def output_range(self) -> int:
        """Exclusive upper bound of hash values (``2**output_bits``)."""
        return 1 << self.output_bits

    @abc.abstractmethod
    def hash_bytes(self, index: int, data: bytes) -> int:
        """Return the *index*-th hash of *data* as a non-negative int."""

    @property
    @abc.abstractmethod
    def name(self) -> str:
        """Short identifier used in reports and benchmark labels."""

    # ------------------------------------------------------------------
    # Convenience entry points
    # ------------------------------------------------------------------
    def hash(self, index: int, element: ElementLike) -> int:
        """Return the *index*-th hash of an arbitrary element."""
        require_non_negative("index", index)
        return self.hash_bytes(index, to_bytes(element))

    def values(
        self, element: ElementLike, count: int, start: int = 0
    ) -> List[int]:
        """Return hashes ``start .. start+count-1`` of *element*.

        Subclasses with batch-friendly internals (e.g. the BLAKE2 lane
        family) override this to amortise digest computations.
        """
        require_non_negative("count", count)
        require_non_negative("start", start)
        data = to_bytes(element)
        return [self.hash_bytes(start + i, data) for i in range(count)]

    def iter_values(self, element: ElementLike, count: int, start: int = 0):
        """Yield hashes ``start .. start+count-1`` lazily.

        Query paths use this so an early exit (first zero bit) also stops
        *hash computation* — the paper's query procedures compute and
        probe one hash at a time (§3.2), and the speed experiments depend
        on that cost structure.
        """
        require_non_negative("count", count)
        require_non_negative("start", start)
        data = to_bytes(element)
        for i in range(count):
            yield self.hash_bytes(start + i, data)

    def positions(
        self, element: ElementLike, count: int, m: int, start: int = 0
    ) -> List[int]:
        """Return ``count`` probe positions in ``[0, m)`` for *element*."""
        return [v % m for v in self.values(element, count, start=start)]

    # ------------------------------------------------------------------
    # Batch entry points
    # ------------------------------------------------------------------
    def values_batch(
        self, elements: Sequence[ElementLike], count: int, start: int = 0
    ) -> np.ndarray:
        """Hashes ``start .. start+count-1`` of every element at once.

        Returns a ``uint64`` array of shape ``(len(elements), count)``
        whose row ``i`` equals ``values(elements[i], count, start)`` bit
        for bit.  The base implementation simply loops over
        :meth:`values`, so every family gets a correct batch path for
        free; families with digest-amortising internals (BLAKE2 lanes,
        Kirsch–Mitzenmacher) override this to cut per-element overhead.
        """
        require_non_negative("count", count)
        require_non_negative("start", start)
        elements = list(elements)
        out = np.empty((len(elements), count), dtype=np.uint64)
        for row, element in enumerate(elements):
            out[row] = np.fromiter(
                self.values(element, count, start=start),
                dtype=np.uint64, count=count,
            )
        return out

    def positions_batch(
        self, elements: Sequence[ElementLike], count: int, m: int,
        start: int = 0,
    ) -> np.ndarray:
        """Probe positions in ``[0, m)`` for every element at once.

        ``int64`` array of shape ``(len(elements), count)``; row ``i``
        equals ``positions(elements[i], count, m, start)``.
        """
        require_non_negative("count", count)
        return mod_int64(self.values_batch(elements, count, start=start), m)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "%s(name=%r)" % (type(self).__name__, self.name)


# ----------------------------------------------------------------------
# The family registry: every seed-reconstructible family has a *kind*
# ----------------------------------------------------------------------
#: Registered family kinds, in registry order.  A ``(kind, seed)`` pair
#: fully reconstructs a family, which is what snapshots persist and
#: what ``--family`` CLI flags select.
FAMILY_KINDS = (
    "blake2b",
    "blake2b-per-index",
    "vector64",
    "km-double",
    "murmur3-32",
    "fnv1a-64",
    "xxh64",
)

#: The family every serving path defaults to: the store spec, the shard
#: router and map, the drills and every serving CLI.  The vetted
#: vectorised mixers; the library's :func:`default_family` stays BLAKE2b
#: for the paper-figure experiments.
SERVING_FAMILY = "vector64"


def _builders():
    """kind -> constructor(seed); imported lazily to avoid cycles."""
    from repro.hashing.blake import Blake2Family
    from repro.hashing.double_hashing import DoubleHashingFamily
    from repro.hashing.mixers import (
        FNV1aFamily,
        Murmur3Family,
        XXHash64Family,
    )
    from repro.hashing.vectorized import VectorizedFamily

    return {
        "blake2b": lambda seed: Blake2Family(seed=seed),
        "blake2b-per-index": lambda seed: Blake2Family(
            seed=seed, batch_lanes=False),
        "vector64": lambda seed: VectorizedFamily(seed=seed),
        "km-double": lambda seed: DoubleHashingFamily(seed=seed),
        "murmur3-32": lambda seed: Murmur3Family(seed=seed),
        "fnv1a-64": lambda seed: FNV1aFamily(seed=seed),
        "xxh64": lambda seed: XXHash64Family(seed=seed),
    }


def make_family(kind: str, seed: int = 0) -> HashFamily:
    """Construct a registered family from its ``(kind, seed)`` spec.

    This is the single choke point for family selection: snapshots,
    the shard router, the service CLI and the benches all resolve their
    family through it, so a deployment can swap the whole stack onto a
    different (vetted) family with one knob.

    Raises:
        ConfigurationError: for an unregistered *kind* — restoring a
            snapshot with the wrong family would silently mis-hash
            every query, so unknown kinds fail loudly.
    """
    builders = _builders()
    try:
        builder = builders[kind]
    except KeyError:
        raise ConfigurationError(
            "unknown hash family kind %r (registered kinds: %s)"
            % (kind, ", ".join(FAMILY_KINDS))
        ) from None
    return builder(seed)


def family_spec(family: HashFamily) -> Tuple[str, int]:
    """Return the ``(kind, seed)`` spec that reconstructs *family*.

    The inverse of :func:`make_family` for registry-built instances:
    ``make_family(*family_spec(f))`` hashes identically to ``f``.

    Raises:
        ConfigurationError: if *family* is not seed-reconstructible
            (an unregistered type, or a composite like
            ``DoubleHashingFamily`` over a custom base family).
    """
    from repro.hashing.blake import Blake2Family
    from repro.hashing.double_hashing import DoubleHashingFamily
    from repro.hashing.mixers import (
        FNV1aFamily,
        Murmur3Family,
        XXHash64Family,
    )
    from repro.hashing.vectorized import VectorizedFamily

    if type(family) is VectorizedFamily:
        return "vector64", family.seed
    if type(family) is DoubleHashingFamily:
        base = family.base
        if type(base) is Blake2Family and base.batch_lanes:
            return "km-double", base.seed
        raise ConfigurationError(
            "DoubleHashingFamily over base %s is not seed-"
            "reconstructible; only the default BLAKE2b-lane base is"
            % getattr(base, "name", type(base).__name__)
        )
    if type(family) is Blake2Family:
        kind = "blake2b" if family.batch_lanes else "blake2b-per-index"
        return kind, family.seed
    if type(family) is Murmur3Family:
        return "murmur3-32", family.seed
    if type(family) is FNV1aFamily:
        return "fnv1a-64", family.seed
    if type(family) is XXHash64Family:
        return "xxh64", family.seed
    raise ConfigurationError(
        "hash family %s is not in the registry and cannot be "
        "reconstructed from a seed"
        % getattr(family, "name", type(family).__name__)
    )


def default_family(seed: int = 0, kind: Optional[str] = None) -> HashFamily:
    """Return the library's default hash family.

    The default *kind* is seeded BLAKE2b lanes because (a) :mod:`hashlib`
    executes it in C, so it is the fastest *trustworthy* option available
    without compiled extensions, and (b) its output passes the paper's
    per-bit randomness test by a wide margin for every index, so
    experiments measure filter behaviour rather than hash artefacts.
    Deployments that have re-run the vetting harness can flip the whole
    stack onto another registered family (e.g. the vectorised
    ``"vector64"`` mixers) via the *kind* argument or the
    ``REPRO_HASH_FAMILY`` environment variable.
    """
    if kind is None:
        kind = os.environ.get("REPRO_HASH_FAMILY", "blake2b")
    return make_family(kind, seed)
