"""The §3.6 "log method": recursive halving down to log2(k)+1 hashes.

Before settling on the linear ``t``-shift generalisation, the paper
sketches a recursive construction: ShBF_M replaces ``k`` hashes with
``k/2`` bases plus one offset; applying the same trick to the bases
gives ``k/4`` bases plus two offsets, "continuing in this manner, one
could eventually arrive at log(k) + 1 hash functions".  The authors
stop there because the FPR has no tractable closed form — not because
the structure doesn't work — so we build it as the extension it is and
evaluate it by simulation (ablation A7).

Construction with ``L`` levels: ``k / 2**L`` base hashes and offsets
``o_1 .. o_L``; an element's probe positions are every subset sum

    h_j(e) + sum(o_l for l in S),   S ⊆ {1..L}

giving ``2**L`` bits per base.  Offset ``o_l`` is drawn from
``[1, (w_bar-1) / 2**(L-l+1)]`` so the largest subset sum stays below
``w_bar``, preserving the one-word-fetch guarantee per base.  ``L = 1``
is exactly ShBF_M.

Costs per query: ``k / 2**L`` memory accesses and ``k / 2**L + L`` hash
computations — e.g. ``k = 16, L = 3``: 2 accesses and 5 hashes where a
Bloom filter pays 16 and 16.  The price is FPR: subset sums are
correlated (and can collide), so accuracy degrades faster than the
linear method's — which is presumably why the paper shipped the
partitioned variant.  The A7 ablation quantifies exactly that.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro._util import ElementLike
from repro.bitarray.memory import MemoryModel
from repro.core.base import ElementFilter, ShiftedFilter
from repro.errors import ConfigurationError, UnsupportedOperationError
from repro.hashing.family import HashFamily

__all__ = ["LogShiftingBloomFilter"]


class LogShiftingBloomFilter(ElementFilter, ShiftedFilter):
    """ShBF_M recursively halved: ``2**levels`` probe bits per base hash.

    Args:
        m: logical number of bits (anti-wrap slack appended).
        k: total probe bits per element; must be divisible by
            ``2**levels``.
        levels: recursion depth ``L >= 1``; ``L = 1`` reproduces ShBF_M's
            pairing, ``L = log2(k)`` reaches the paper's
            ``log(k) + 1``-hash endpoint.
        family: hash family; indices ``0 .. k/2**L - 1`` are bases, the
            next ``L`` indices feed the level offsets.
        word_bits / w_bar: as for ShBF_M.
        memory: access-cost model.

    Example:
        >>> f = LogShiftingBloomFilter(m=4096, k=16, levels=3)
        >>> f.add(b"flow")
        >>> b"flow" in f
        True
        >>> f.hash_ops_per_query   # 16/8 bases + 3 offsets
        5
    """

    def __init__(
        self,
        m: int,
        k: int,
        levels: int = 1,
        family: Optional[HashFamily] = None,
        word_bits: int = 64,
        w_bar: Optional[int] = None,
        memory: Optional[MemoryModel] = None,
    ):
        super().__init__(m, k, family, levels=levels)
        fanout = 1 << levels
        if k % fanout != 0:
            raise ConfigurationError(
                "k=%d must be divisible by 2**levels=%d" % (k, fanout)
            )
        self._levels = levels
        self._bases_count = k // fanout
        self._offset_policy(word_bits, 1, w_bar)
        # Level ranges shrink geometrically so the max subset sum stays
        # below w_bar: range_l = (w_bar - 1) // 2**(L - l + 1).
        self._ranges = []
        for level in range(1, levels + 1):
            span = (self._policy.w_bar - 1) >> (levels - level + 1)
            if span < 1:
                raise ConfigurationError(
                    "w_bar=%d too small for %d recursion levels"
                    % (self._policy.w_bar, levels)
                )
            self._ranges.append(span)
        self._allocate(m + self._policy.slack_cells, memory, word_bits)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def levels(self) -> int:
        """Recursion depth ``L``."""
        return self._levels

    @property
    def hash_ops_per_query(self) -> int:
        """Hash computations per query: ``k/2**L + L`` (the paper's
        ``log(k) + 1`` when ``L = log2(k)``)."""
        return self._bases_count + self._levels

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------
    def _offsets(self, element: ElementLike) -> Tuple[int, ...]:
        """All ``2**L`` subset-sum offsets (0 included) for *element*."""
        level_offsets = [
            value % span + 1
            for value, span in zip(
                self._family.values(
                    element, self._levels, start=self._bases_count),
                self._ranges,
            )
        ]
        sums = [0]
        for offset in level_offsets:
            sums.extend(base + offset for base in list(sums))
        return tuple(sums)

    def _bases(self, element: ElementLike) -> List[int]:
        return [
            v % self._m
            for v in self._family.values(element, self._bases_count)
        ]

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------
    def add(self, element: ElementLike) -> None:
        """Insert: ``2**L`` bits per base in one write access each."""
        offsets = self._offsets(element)
        for base in self._bases(element):
            self._bits.set_offsets(base, offsets)
        self._n_items += 1

    def query(self, element: ElementLike) -> bool:
        """Membership test: one word fetch per base, early exit."""
        offsets = self._offsets(element)
        m = self._m
        bits = self._bits
        for value in self._family.iter_values(element, self._bases_count):
            if not all(bits.test_offsets(value % m, offsets)):
                return False
        return True

    def remove(self, element: ElementLike) -> None:
        """Unsupported (extension mirrors the plain ShBF_M contract)."""
        raise UnsupportedOperationError(
            "LogShiftingBloomFilter does not support deletion"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            "LogShiftingBloomFilter(m=%d, k=%d, levels=%d, n_items=%d)"
            % (self._m, self._k, self._levels, self._n_items)
        )
