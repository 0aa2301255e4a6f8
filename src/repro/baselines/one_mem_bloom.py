"""The One-Memory-Access Bloom filter (Qiao et al., INFOCOM 2011).

1MemBF confines all ``k`` bits of an element to a single machine word:
one hash selects the word, ``k`` further hash values select bit positions
inside it, so every query costs exactly one memory access and ``k + 1``
hash computations.  The price is accuracy — packing an element's bits
into one word "incurs serious unbalance in distributions of 1s and 0s in
the memory, which in turn results in higher FPR" (§6.2.1) — which is why
the paper shows ShBF_M beating it on FPR at equal and even 1.5× memory
(Fig. 7) while also being faster (Fig. 9).

This is the scheme the paper benchmarks; Qiao et al. also describe
multi-word generalisations, which ``words_per_element`` exposes.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

from repro._util import ElementLike, require_positive
from repro.bitarray.bitarray import BitArray
from repro.bitarray.memory import MemoryModel
from repro.errors import ConfigurationError, UnsupportedOperationError
from repro.hashing.family import HashFamily, default_family

__all__ = ["OneMemoryBloomFilter"]


class OneMemoryBloomFilter:
    """Bloom filter whose ``k`` bits per element share one machine word.

    Args:
        m: requested number of bits; rounded **up** to a whole number of
            words so word selection is unbiased.
        k: number of bit-selecting hash functions (total hash cost is
            ``k + 1`` including the word selector).
        word_bits: machine word size ``w`` (64 by default).
        words_per_element: how many consecutive words an element's bits
            may span (1 reproduces the paper's comparator; larger values
            trade accesses back for accuracy).
        family: hash family (defaults to seeded BLAKE2b lanes).
        memory: access-cost model.

    Example:
        >>> f = OneMemoryBloomFilter(m=1024, k=8)
        >>> f.add(b"flow")
        >>> b"flow" in f
        True
        >>> f.memory.stats.read_ops   # the query cost one logical read
        1
    """

    def __init__(
        self,
        m: int,
        k: int,
        word_bits: int = 64,
        words_per_element: int = 1,
        family: Optional[HashFamily] = None,
        memory: Optional[MemoryModel] = None,
    ):
        require_positive("m", m)
        require_positive("k", k)
        require_positive("words_per_element", words_per_element)
        if word_bits % 8 != 0 or word_bits <= 0:
            raise ConfigurationError(
                "word_bits must be a positive multiple of 8, got %d"
                % word_bits
            )
        self._word_bits = word_bits
        self._group_bits = word_bits * words_per_element
        self._n_groups = -(-m // self._group_bits)  # ceil
        self._m = self._n_groups * self._group_bits
        self._k = k
        self._words_per_element = words_per_element
        self._family = family if family is not None else default_family()
        if memory is None:
            memory = MemoryModel(word_bits=word_bits)
        self._bits = BitArray(self._m, memory=memory)
        self._n_items = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def m(self) -> int:
        """Number of bits (after rounding up to whole words)."""
        return self._m

    @property
    def k(self) -> int:
        """Number of in-word bit positions per element."""
        return self._k

    @property
    def n_items(self) -> int:
        """Number of elements inserted so far."""
        return self._n_items

    @property
    def word_bits(self) -> int:
        """Machine word size."""
        return self._word_bits

    @property
    def words_per_element(self) -> int:
        """How many consecutive words an element's bits may span."""
        return self._words_per_element

    @property
    def n_groups(self) -> int:
        """Number of word groups an element can hash into."""
        return self._n_groups

    @property
    def bits(self) -> BitArray:
        """The underlying bit array."""
        return self._bits

    @property
    def memory(self) -> MemoryModel:
        """The access-cost model of the underlying array."""
        return self._bits.memory

    @property
    def size_bits(self) -> int:
        """Total memory footprint in bits."""
        return self._m

    @property
    def hash_ops_per_query(self) -> int:
        """Hash computations per query: ``k`` in-word + 1 word selector."""
        return self._k + 1

    def fill_ratio(self) -> float:
        """Fraction of bits currently set."""
        return self._bits.fill_ratio()

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------
    def _group_and_offsets(self, element: ElementLike) -> tuple[int, list]:
        values = self._family.values(element, self._k + 1)
        group = values[0] % self._n_groups
        offsets = [v % self._group_bits for v in values[1:]]
        return group, offsets

    def add(self, element: ElementLike) -> None:
        """Insert *element*: set its ``k`` bits inside one word group.

        Billed as a single write access — the defining property of the
        scheme (the whole group is one read-modify-write).
        """
        group, offsets = self._group_and_offsets(element)
        base = group * self._group_bits
        self._bits.set_offsets(base, offsets)
        self._n_items += 1

    def update(self, elements: Iterable[ElementLike]) -> None:
        """Insert every element of an iterable."""
        for element in elements:
            self.add(element)

    def _groups_and_offsets_batch(self, elements):
        values = self._family.values_batch(elements, self._k + 1)
        bases = (values[:, 0] % self._n_groups).astype(
            np.int64) * self._group_bits
        offsets = (values[:, 1:] % self._group_bits).astype(np.int64)
        return bases, offsets

    def add_batch(self, elements: Sequence[ElementLike]) -> None:
        """Batch insert: one billed word-group write per element."""
        elements = list(elements)
        if not elements:
            return
        bases, offsets = self._groups_and_offsets_batch(elements)
        self._bits.set_offsets_batch(bases, offsets)
        self._n_items += len(elements)

    def query_batch(self, elements: Sequence[ElementLike]) -> np.ndarray:
        """Batch membership test, one billed read per element.

        Verdicts and accounting equal the scalar path: the word group is
        fetched (and billed) unconditionally, the in-word bit checks are
        register work.  Word groups wider than 64 bits fall back to the
        scalar query per element.
        """
        elements = list(elements)
        if not elements:
            return np.zeros(0, dtype=bool)
        if self._group_bits > 64:
            return np.fromiter(
                (self.query(e) for e in elements), dtype=bool,
                count=len(elements),
            )
        bases, offsets = self._groups_and_offsets_batch(elements)
        windows = self._bits.read_windows_batch(
            bases, self._group_bits, record=False)
        costs = self.memory.read_cost_batch(bases, self._group_bits)
        self.memory.record_reads(len(elements), int(costs.sum()))
        probes = (windows[:, None] >> offsets.astype(np.uint64)) & np.uint64(1)
        return (probes != 0).all(axis=1)

    def query(self, element: ElementLike) -> bool:
        """Membership test in exactly one memory access.

        Reads the whole word group once, then checks bit positions in
        registers, computing the in-word hashes lazily — a zero bit stops
        further hashing (there is nothing further to *fetch* either way).
        """
        group = self._family.hash(0, element) % self._n_groups
        base = group * self._group_bits
        window = self._bits.read_window(base, self._group_bits)
        group_bits = self._group_bits
        for value in self._family.iter_values(element, self._k, start=1):
            if not window >> (value % group_bits) & 1:
                return False
        return True

    def __contains__(self, element: ElementLike) -> bool:
        return self.query(element)

    def remove(self, element: ElementLike) -> None:
        """Unsupported: 1MemBF is a plain bit filter (no deletion)."""
        raise UnsupportedOperationError(
            "OneMemoryBloomFilter does not support deletion"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "OneMemoryBloomFilter(m=%d, k=%d, words=%d, n_items=%d)" % (
            self._m, self._k, self._words_per_element, self._n_items)
