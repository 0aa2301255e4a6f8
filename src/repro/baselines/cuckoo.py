"""The cuckoo filter (Fan, Andersen, Kaminsky, Mitzenmacher).

Related work §2.1 of the ShBF paper: "more efficient in terms of space
and time compared to BF ... at the cost of non-negligible probability of
failing when inserting an element."  We implement the standard
partial-key cuckoo filter — fingerprints in buckets of four slots, the
alternate bucket derived by XOR-ing the fingerprint's hash — including
that insertion failure mode, which surfaces as
:class:`~repro.errors.CapacityError` after ``max_kicks`` displacements.

Used by the membership ablation bench as the non-Bloom point of
comparison for FPR/space/access trade-offs.
"""

from __future__ import annotations

import random
from typing import Optional

from repro._util import ElementLike, to_bytes
from repro.bitarray.counters import CounterArray, OverflowPolicy
from repro.bitarray.memory import MemoryModel
from repro.core.base import ElementFilter, memory_model
from repro.errors import CapacityError
from repro.hashing.family import HashFamily

__all__ = ["CuckooFilter"]

#: Hash indices reserved for the filter's two roles.
_INDEX_BUCKET = 0
_INDEX_FINGERPRINT = 1


class CuckooFilter(ElementFilter):
    """Partial-key cuckoo filter with 4-slot buckets.

    Args:
        capacity: intended number of elements; bucket count is sized to
            the next power of two with ~95% target load.
        fingerprint_bits: fingerprint width (12 by default — the sweet
            spot reported by Fan et al.).
        slots_per_bucket: bucket associativity (4 by default).
        max_kicks: displacement budget before insertion fails.
        family: hash family.
        memory: access-cost model; one bucket read is one logical access
            (4 x 12-bit slots fit one 64-bit word).
        seed: seed for the eviction-choice RNG, for reproducible runs.

    Example:
        >>> cf = CuckooFilter(capacity=1000)
        >>> cf.add(b"flow"); b"flow" in cf
        True
        >>> cf.remove(b"flow"); b"flow" in cf
        False
    """

    def __init__(
        self,
        capacity: int,
        fingerprint_bits: int = 12,
        slots_per_bucket: int = 4,
        max_kicks: int = 500,
        family: Optional[HashFamily] = None,
        memory: Optional[MemoryModel] = None,
        seed: int = 0,
    ):
        super().__init__(family, capacity=capacity,
                         fingerprint_bits=fingerprint_bits,
                         slots_per_bucket=slots_per_bucket,
                         max_kicks=max_kicks)
        self._fp_bits = fingerprint_bits
        self._slots = slots_per_bucket
        self._max_kicks = max_kicks
        self._rng = random.Random(seed)
        wanted_buckets = max(
            1, -(-capacity // max(1, int(slots_per_bucket * 0.95)))
        )
        n_buckets = 1
        while n_buckets < wanted_buckets:
            n_buckets <<= 1
        self._n_buckets = n_buckets
        self._memory = memory_model(memory)
        self._table = CounterArray(
            n_buckets * slots_per_bucket,
            bits_per_counter=fingerprint_bits,
            memory=self._memory,
            overflow=OverflowPolicy.RAISE,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_buckets(self) -> int:
        """Number of buckets (a power of two)."""
        return self._n_buckets

    @property
    def size_bits(self) -> int:
        """Memory footprint in bits."""
        return self._table.total_bits

    @property
    def load_factor(self) -> float:
        """Occupied fraction of all slots."""
        return self._n_items / (self._n_buckets * self._slots)

    @property
    def hash_ops_per_query(self) -> int:
        """Hash computations per query (bucket hash + fingerprint hash)."""
        return 2

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------
    def _fingerprint(self, data: bytes) -> int:
        """Non-zero fingerprint of ``fingerprint_bits`` bits."""
        value = self._family.hash_bytes(_INDEX_FINGERPRINT, data)
        return value % ((1 << self._fp_bits) - 1) + 1

    def _bucket1(self, data: bytes) -> int:
        return self._family.hash_bytes(_INDEX_BUCKET, data) % self._n_buckets

    def _alt_bucket(self, bucket: int, fingerprint: int) -> int:
        alt = bucket ^ self._family.hash_bytes(
            _INDEX_BUCKET, fingerprint.to_bytes(8, "little"))
        return alt % self._n_buckets  # power-of-two: mask, xor stays closed

    def _slot_base(self, bucket: int) -> int:
        return bucket * self._slots

    def _read_bucket(self, bucket: int) -> tuple[int, ...]:
        return self._table.get_offsets(
            self._slot_base(bucket), tuple(range(self._slots)))

    def _try_place(self, bucket: int, fingerprint: int) -> bool:
        values = self._read_bucket(bucket)
        for slot, value in enumerate(values):
            if value == 0:
                self._table.set(self._slot_base(bucket) + slot, fingerprint)
                return True
        return False

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------
    def add(self, element: ElementLike) -> None:
        """Insert *element*; may relocate up to ``max_kicks`` fingerprints.

        Raises:
            CapacityError: if the displacement chain exceeds the kick
                budget — the "non-negligible probability of failing"
                related work attributes to cuckoo filters.  The chain's
                last victim is an earlier element's fingerprint, so the
                chain is undone slot by slot before raising: the table
                is left as it was before the call, and every previously
                inserted element still answers correctly.
        """
        data = to_bytes(element)
        fingerprint = self._fingerprint(data)
        b1 = self._bucket1(data)
        b2 = self._alt_bucket(b1, fingerprint)
        if self._try_place(b1, fingerprint) or self._try_place(
                b2, fingerprint):
            self._n_items += 1
            return
        bucket = self._rng.choice((b1, b2))
        displaced = []
        for _ in range(self._max_kicks):
            slot = self._rng.randrange(self._slots)
            index = self._slot_base(bucket) + slot
            victim = self._table.get(index)
            self._table.set(index, fingerprint)
            displaced.append((index, victim))
            fingerprint = victim
            bucket = self._alt_bucket(bucket, fingerprint)
            if self._try_place(bucket, fingerprint):
                self._n_items += 1
                return
        for index, victim in reversed(displaced):
            self._table.set(index, victim)
        raise CapacityError(
            "cuckoo insertion failed after %d kicks at load %.2f"
            % (self._max_kicks, self.load_factor)
        )

    def query(self, element: ElementLike) -> bool:
        """Membership test: fingerprint present in either candidate bucket."""
        data = to_bytes(element)
        fingerprint = self._fingerprint(data)
        b1 = self._bucket1(data)
        if fingerprint in self._read_bucket(b1):
            return True
        b2 = self._alt_bucket(b1, fingerprint)
        return fingerprint in self._read_bucket(b2)

    def remove(self, element: ElementLike) -> bool:
        """Delete one copy of *element*'s fingerprint if present.

        Returns True when a fingerprint was removed.  Deleting an element
        that was never inserted may remove a colliding fingerprint — the
        standard cuckoo-filter caveat — so callers should only delete
        elements they know are present.
        """
        data = to_bytes(element)
        fingerprint = self._fingerprint(data)
        b1 = self._bucket1(data)
        for bucket in (b1, self._alt_bucket(b1, fingerprint)):
            values = self._read_bucket(bucket)
            for slot, value in enumerate(values):
                if value == fingerprint:
                    self._table.set(self._slot_base(bucket) + slot, 0)
                    self._n_items -= 1
                    return True
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "CuckooFilter(buckets=%d, slots=%d, fp_bits=%d, items=%d)" % (
            self._n_buckets, self._slots, self._fp_bits, self._n_items)
