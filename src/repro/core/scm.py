"""SCM — the Shifting Count-Min sketch (§5.5).

The shifting framework applied to the count-min sketch: where a CM
sketch uses ``d`` vectors of ``r`` counters (one hash and one memory
access per vector), SCM uses ``d/2`` vectors of ``2r`` counters and gives
each element a per-element offset ``o(e)``.  Inserting increments both
``v_i[h_i(e)]`` and ``v_i[h_i(e) + o(e)]``; querying takes the minimum
over all ``d`` probed counters.  With the counter-aware offset bound
``w_bar <= (w - 7) / z`` both counters of a pair share one word fetch, so
the sketch halves hash computations *and* memory accesses — ``d/2 + 1``
hashes and ``d/2`` accesses per operation — at the same total counter
budget as the CM sketch it replaces.

Same estimate semantics as CM: the reported count never underestimates.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro._util import ElementLike, require_even, require_positive
from repro.bitarray.counters import CounterArray, OverflowPolicy
from repro.bitarray.memory import MemoryModel
from repro.core.base import CountEstimator, memory_model
from repro.core.offsets import OffsetPolicy
from repro.errors import UnsupportedOperationError
from repro.hashing.family import HashFamily

__all__ = ["ShiftingCountMinSketch"]


class ShiftingCountMinSketch(CountEstimator):
    """Shifting count-min sketch with ``d/2`` rows of ``2r`` counters.

    Args:
        d: number of probed counters per operation (must be even; an SCM
            with parameter ``d`` replaces a CM sketch of depth ``d``).
        r: per-row counter budget of the replaced CM sketch; each SCM row
            holds ``2r`` logical counters plus anti-wrap slack.
        counter_bits: counter width ``z``; the offset bound tightens to
            ``(w - 7) // z`` so pairs stay within one word fetch.
        word_bits: machine word size ``w``.
        conservative: use conservative update (ablation option).
        family: hash family; indices ``0..d/2-1`` are row hashes, index
            ``d/2`` is the offset hash ``h_{d/2+1}`` of §5.5.
        memory: access-cost model.

    Example:
        >>> scm = ShiftingCountMinSketch(d=8, r=256)
        >>> scm.add(b"flow", count=5)
        >>> scm.estimate(b"flow")
        5
    """

    def __init__(
        self,
        d: int,
        r: int,
        counter_bits: int = 6,
        word_bits: int = 64,
        conservative: bool = False,
        family: Optional[HashFamily] = None,
        memory: Optional[MemoryModel] = None,
    ):
        require_even("d", d)
        super().__init__(family, r=r, counter_bits=counter_bits)
        self._d = d
        self._rows = d // 2
        self._r = r
        self._conservative = conservative
        self._policy = OffsetPolicy(
            word_bits=word_bits, cell_bits=counter_bits)
        self._row_logical = 2 * r
        self._row_stride = self._row_logical + self._policy.slack_cells
        self._memory = memory_model(memory, word_bits)
        self._counters = CounterArray(
            self._rows * self._row_stride,
            bits_per_counter=counter_bits,
            memory=self._memory,
            overflow=OverflowPolicy.SATURATE,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def d(self) -> int:
        """Probed counters per operation (CM-equivalent depth)."""
        return self._d

    @property
    def rows(self) -> int:
        """Physical rows, ``d / 2``."""
        return self._rows

    @property
    def r(self) -> int:
        """Per-row counter budget of the replaced CM sketch."""
        return self._r

    @property
    def w_bar(self) -> int:
        """The (counter-width-aware) offset range parameter."""
        return self._policy.w_bar

    @property
    def size_bits(self) -> int:
        """Memory footprint in bits, slack included."""
        return self._counters.total_bits

    @property
    def hash_ops_per_query(self) -> int:
        """Hash computations per query: ``d/2`` rows + 1 offset (§5.5)."""
        return self._rows + 1

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------
    def _cells(self, element: ElementLike) -> Tuple[List[int], int]:
        """Per-row base cell indices and the element's offset."""
        values = self._family.values(element, self._rows + 1)
        offset = self._policy.membership_offset(values[self._rows])
        bases = [
            row * self._row_stride + values[row] % self._row_logical
            for row in range(self._rows)
        ]
        return bases, offset

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------
    def add(self, element: ElementLike, count: int = 1) -> None:
        """Add *count* occurrences: one paired write per row."""
        require_positive("count", count)
        bases, offset = self._cells(element)
        pair = (0, offset)
        if not self._conservative:
            for base in bases:
                self._counters.increment_offsets(base, pair, by=count)
        else:
            cells = [base + o for base in bases for o in pair]
            values = [self._counters.get(cell) for cell in cells]
            target = min(values) + count
            for cell, value in zip(cells, values):
                if value < target:
                    self._counters.increment(cell, by=target - value)
        self._n_items += count

    def remove(self, element: ElementLike) -> None:
        """Unsupported, matching the CM baseline's semantics."""
        raise UnsupportedOperationError(
            "ShiftingCountMinSketch does not support deletion"
        )

    def estimate(self, element: ElementLike) -> int:
        """Minimum over the ``d`` probed counters (upper bound).

        One paired read per row — ``d/2`` accesses — with early exit on a
        zero counter.
        """
        offset = self._policy.membership_offset(
            self._family.hash(self._rows, element))
        pair = (0, offset)
        minimum: Optional[int] = None
        row_logical = self._row_logical
        stride = self._row_stride
        row_base = 0
        for hashed in self._family.iter_values(element, self._rows):
            base = row_base + hashed % row_logical
            row_base += stride
            for value in self._counters.get_offsets(base, pair):
                if value == 0:
                    return 0
                if minimum is None or value < minimum:
                    minimum = value
        return minimum if minimum is not None else 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "ShiftingCountMinSketch(d=%d, r=%d, conservative=%s)" % (
            self._d, self._r, self._conservative)
