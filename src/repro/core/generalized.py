"""Generalized ShBF_M: ``t`` shifts per independent hash (§3.6–3.7).

ShBF_M replaces ``k`` independent hashes with ``k/2`` bases plus one
offset.  Carrying the idea further, the generalized filter uses
``k / (t+1)`` independent base hashes and ``t`` shift offsets
``o_1(e), ..., o_t(e)``, so each base contributes ``t + 1`` probe bits
from a single word fetch.  To keep the analysis tractable the paper makes
the shifts a *partitioned* filter within the word: shift ``j`` lands in
its own segment of ``(w_bar - 1) / t`` positions after the base, so the
``t + 1`` bits of a group never collide (Eq. (10)'s
``1 - (t+1)/m`` per-group vacancy probability).

Costs per query: ``k/(t+1)`` memory accesses and ``k/(t+1) + t`` hash
computations.  The FPR follows Eq. (11)–(12); ``t = 1`` recovers ShBF_M
exactly and ``t = 0`` degenerates to a standard Bloom filter, both of
which the tests assert.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro._util import ElementLike, require_positive
from repro._vector import mod_int64, record_early_exit
from repro.bitarray.bitarray import BitArray
from repro.bitarray.memory import MemoryModel
from repro.core.offsets import OffsetPolicy
from repro.errors import ConfigurationError, UnsupportedOperationError
from repro.hashing.family import HashFamily, default_family

__all__ = ["GeneralizedShiftingBloomFilter"]


class GeneralizedShiftingBloomFilter:
    """ShBF_M generalised to ``t`` partitioned shifts per base hash.

    Args:
        m: logical number of bits (array allocates anti-wrap slack).
        k: total probe bits per element; must be divisible by ``t + 1``.
        t: number of shift offsets per base hash (``1 <= t <= k - 1``).
            ``t = 1`` is exactly ShBF_M's pairing.
        family: hash family; indices ``0 .. k/(t+1)-1`` are bases,
            ``k/(t+1) .. k/(t+1)+t-1`` are the ``t`` offset hashes.
        word_bits: machine word size ``w``.
        w_bar: offset range override (default: word-size maximum).
        memory: access-cost model.

    Example:
        >>> g = GeneralizedShiftingBloomFilter(m=4096, k=12, t=2)
        >>> g.add(b"flow")
        >>> b"flow" in g
        True
        >>> g.hash_ops_per_query   # 12/3 bases + 2 offsets
        6
    """

    def __init__(
        self,
        m: int,
        k: int,
        t: int,
        family: Optional[HashFamily] = None,
        word_bits: int = 64,
        w_bar: Optional[int] = None,
        memory: Optional[MemoryModel] = None,
    ):
        require_positive("m", m)
        require_positive("k", k)
        require_positive("t", t)
        if t >= k:
            raise ConfigurationError(
                "t must be smaller than k (got t=%d, k=%d)" % (t, k)
            )
        if k % (t + 1) != 0:
            raise ConfigurationError(
                "k=%d must be divisible by t+1=%d so each base carries "
                "t+1 probe bits" % (k, t + 1)
            )
        self._m = m
        self._k = k
        self._t = t
        self._groups = k // (t + 1)
        self._family = family if family is not None else default_family()
        self._policy = OffsetPolicy(
            word_bits=word_bits,
            cell_bits=1,
            w_bar=w_bar if w_bar is not None else -1,
        )
        # Validate that w_bar can host t partitions (raises otherwise).
        self._segment = self._policy.partition_segment(t)
        if memory is None:
            memory = MemoryModel(word_bits=word_bits)
        self._bits = BitArray(m + self._policy.slack_cells, memory=memory)
        self._n_items = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def m(self) -> int:
        """Logical number of bits."""
        return self._m

    @property
    def k(self) -> int:
        """Total probe bits per element."""
        return self._k

    @property
    def t(self) -> int:
        """Number of shifts per base hash."""
        return self._t

    @property
    def groups(self) -> int:
        """Number of base hashes, ``k / (t + 1)``."""
        return self._groups

    @property
    def w_bar(self) -> int:
        """The offset range parameter."""
        return self._policy.w_bar

    @property
    def segment(self) -> int:
        """Width of each shift partition, ``(w_bar - 1) // t``."""
        return self._segment

    @property
    def n_items(self) -> int:
        """Number of elements inserted so far."""
        return self._n_items

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

    @property
    def hash_ops_per_query(self) -> int:
        """Hash computations per query: ``k/(t+1)`` bases + ``t`` offsets."""
        return self._groups + self._t

    def fill_ratio(self) -> float:
        """Fraction of bits currently set."""
        return self._bits.fill_ratio()

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------
    def _bases_and_offsets(
        self, element: ElementLike
    ) -> Tuple[List[int], Tuple[int, ...]]:
        values = self._family.values(element, self._groups + self._t)
        bases = [v % self._m for v in values[: self._groups]]
        offsets = tuple(
            self._policy.partitioned_offset(j, self._t,
                                            values[self._groups + j - 1])
            for j in range(1, self._t + 1)
        )
        return bases, offsets

    def _groups_batch(
        self, elements: Sequence[ElementLike]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Batch bases ``(n, groups)`` and probe groups ``(n, t + 1)``.

        Column 0 of the group matrix is the base itself (offset 0),
        columns ``1..t`` the partitioned shifts — the per-element probe
        pattern of §3.6.
        """
        values = self._family.values_batch(
            elements, self._groups + self._t)
        bases = mod_int64(values[:, : self._groups], self._m)
        group = np.zeros((len(elements), self._t + 1), dtype=np.int64)
        for j in range(1, self._t + 1):
            group[:, j] = self._policy.partitioned_offset_batch(
                j, self._t, values[:, self._groups + j - 1])
        return bases, group

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------
    def add(self, element: ElementLike) -> None:
        """Insert: set ``t + 1`` bits per base, one write access each."""
        bases, offsets = self._bases_and_offsets(element)
        group = (0,) + offsets
        for base in bases:
            self._bits.set_offsets(base, group)
        self._n_items += 1

    def update(self, elements: Iterable[ElementLike]) -> None:
        """Insert every element of an iterable."""
        for element in elements:
            self.add(element)

    def add_batch(self, elements: Sequence[ElementLike]) -> None:
        """Batch insert: ``t + 1`` bits per base set with one write each.

        Bit-identical state and access totals to a scalar :meth:`add`
        loop.
        """
        elements = list(elements)
        if not elements:
            return
        bases, group = self._groups_batch(elements)
        flat_bases = bases.ravel()
        flat_groups = np.repeat(group, self._groups, axis=0)
        self._bits.set_offsets_batch(flat_bases, flat_groups)
        self._n_items += len(elements)

    def query_batch(self, elements: Sequence[ElementLike]) -> np.ndarray:
        """Batch membership test returning a boolean array.

        Bills each element for base-group reads up to and including its
        first failing group, exactly like the scalar early-exit loop.
        """
        elements = list(elements)
        if not elements:
            return np.zeros(0, dtype=bool)
        bases, group = self._groups_batch(elements)
        probes = self._bits.test_offsets_batch(
            bases.ravel(),
            np.repeat(group, self._groups, axis=0),
            record=False,
        ).reshape(bases.shape + (self._t + 1,))
        alive = np.logical_and.accumulate(probes.all(axis=2), axis=1)
        spans = group.max(axis=1) + 1
        costs = self.memory.read_cost_batch(bases, spans[:, None])
        record_early_exit(self.memory, alive, costs)
        return alive[:, -1]

    def query(self, element: ElementLike) -> bool:
        """Membership test: one word fetch per base, early exit."""
        bases, offsets = self._bases_and_offsets(element)
        group = (0,) + offsets
        for base in bases:
            if not all(self._bits.test_offsets(base, group)):
                return False
        return True

    def __contains__(self, element: ElementLike) -> bool:
        return self.query(element)

    def remove(self, element: ElementLike) -> None:
        """Unsupported; the counting construction of §3.3 generalises the
        same way but is out of the paper's scope for t > 1."""
        raise UnsupportedOperationError(
            "GeneralizedShiftingBloomFilter does not support deletion"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            "GeneralizedShiftingBloomFilter(m=%d, k=%d, t=%d, n_items=%d)"
            % (self._m, self._k, self._t, self._n_items)
        )
