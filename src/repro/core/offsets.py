"""Offset policies — how auxiliary information becomes a location shift.

Every shifting structure derives its offsets from the same small set of
rules (§3.1, §3.3, §4.1, §5.1, §5.5 of the paper):

* the offset range parameter is ``w_bar`` and must satisfy
  ``w_bar <= w - 7`` for bit arrays so that a probe bit and its shifted
  partner always share one byte-aligned word fetch;
* for arrays of ``z``-bit counters the bound tightens to
  ``w_bar <= floor((w - 7) / z)``;
* membership offsets are ``o(e) = h(e) % (w_bar - 1) + 1`` — never zero,
  because a zero shift would collapse the pair onto one bit;
* association offsets split the range in half:
  ``o1(e) = h(e) % ((w_bar - 1) / 2) + 1`` and
  ``o2(e) = o1(e) + h'(e) % ((w_bar - 1) / 2) + 1``, so the three cases
  ``{0, o1, o2}`` are distinguishable within a single word read;
* multiplicity offsets are the count itself, ``o(e) = c(e) - 1``, which
  the multiplicity filters apply directly.

:class:`OffsetPolicy` centralises the other rules and their validity checks so
filters cannot be configured into states where the one-access guarantee
silently breaks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._util import require_positive
from repro._vector import mod_int64
from repro.errors import ConfigurationError

__all__ = ["OffsetPolicy"]


@dataclass(frozen=True)
class OffsetPolicy:
    """Offset derivation rules for a given word size and cell width.

    Args:
        word_bits: machine word size ``w`` (64 by default, as in the
            paper's main experiments; 32 reproduces the paper's
            ``w_bar <= 25`` setting).
        cell_bits: width of one array cell — 1 for bit arrays, ``z`` for
            counter arrays (the §3.3 counting bound).
        w_bar: the offset range parameter.  Defaults to the largest value
            permitted by the word size, ``floor((w - 7) / cell_bits)``;
            smaller values are allowed (they trade FPR for nothing, but
            Fig. 3 sweeps them), larger values are rejected.

    Derived facts:
        * membership offsets lie in ``[1, w_bar - 1]``,
        * association offsets lie in ``[1, half]`` and
          ``[2, 2 * half]`` where ``half = (w_bar - 1) // 2``,
        * the widest shifted probe spans ``w_bar`` cells, which is the
          slack the owning array must append to avoid wrap-around.
    """

    word_bits: int = 64
    cell_bits: int = 1
    w_bar: int = -1  # -1 sentinel: use the maximum for the word size

    def __post_init__(self) -> None:
        require_positive("word_bits", self.word_bits)
        require_positive("cell_bits", self.cell_bits)
        if self.word_bits % 8 != 0:
            raise ConfigurationError(
                "word_bits must be a multiple of 8, got %d" % self.word_bits
            )
        limit = self.max_w_bar(self.word_bits, self.cell_bits)
        if self.w_bar == -1:
            object.__setattr__(self, "w_bar", limit)
        if self.w_bar > limit:
            raise ConfigurationError(
                "w_bar=%d violates the one-access bound %d for w=%d, z=%d"
                % (self.w_bar, limit, self.word_bits, self.cell_bits)
            )
        if self.w_bar < 2:
            raise ConfigurationError(
                "w_bar must be at least 2 so offsets are non-empty, got %d"
                % self.w_bar
            )

    @staticmethod
    def max_w_bar(word_bits: int, cell_bits: int = 1) -> int:
        """The paper's bound: ``w - 7`` for bits, ``(w - 7) // z`` for
        ``z``-bit counters."""
        return (word_bits - 7) // cell_bits

    # ------------------------------------------------------------------
    # Membership (§3.1)
    # ------------------------------------------------------------------
    @property
    def membership_offset_count(self) -> int:
        """Number of distinct membership offsets, ``w_bar - 1``."""
        return self.w_bar - 1

    def membership_offset(self, hash_value: int) -> int:
        """Map a uniform hash value to ``o(e) = h % (w_bar - 1) + 1``."""
        return hash_value % (self.w_bar - 1) + 1

    def membership_offset_batch(self, hash_values) -> np.ndarray:
        """Vectorised :meth:`membership_offset` (``int64`` array out)."""
        offsets = mod_int64(np.asarray(hash_values, dtype=np.uint64),
                            self.w_bar - 1)
        offsets += 1
        return offsets

    # ------------------------------------------------------------------
    # Association (§4.1)
    # ------------------------------------------------------------------
    @property
    def association_half_range(self) -> int:
        """Size of each association offset half-range, ``(w_bar-1) // 2``."""
        half = (self.w_bar - 1) // 2
        if half < 1:
            raise ConfigurationError(
                "w_bar=%d too small for association offsets" % self.w_bar
            )
        return half

    def association_offsets(self, hv1: int, hv2: int) -> tuple[int, int]:
        """Return ``(o1, o2)`` from two uniform hash values.

        ``o1 = hv1 % half + 1`` identifies the intersection case;
        ``o2 = o1 + hv2 % half + 1`` identifies the ``S2 - S1`` case.
        By construction ``0 < o1 < o2 <= 2 * half <= w_bar - 1``, so the
        three cases can never alias and a single word read covers all
        three probe bits.
        """
        half = self.association_half_range
        o1 = hv1 % half + 1
        o2 = o1 + hv2 % half + 1
        return o1, o2

    def association_offsets_batch(self, hv1, hv2):
        """Vectorised :meth:`association_offsets` over hash-value arrays.

        Returns the pair of ``int64`` arrays ``(o1, o2)``.
        """
        half = self.association_half_range
        o1 = mod_int64(np.asarray(hv1, dtype=np.uint64), half)
        o1 += 1
        o2 = mod_int64(np.asarray(hv2, dtype=np.uint64), half)
        o2 += o1 + 1
        return o1, o2

    # ------------------------------------------------------------------
    # Generalized shifting (§3.6)
    # ------------------------------------------------------------------
    def partition_segment(self, t: int) -> int:
        """Width of each of the ``t`` offset partitions, ``(w_bar-1)//t``.

        The generalized filter treats the ``w_bar - 1`` positions after a
        probe as ``t`` disjoint segments, one per shift, making it a
        partitioned Bloom filter within a word (§3.6).
        """
        require_positive("t", t)
        segment = (self.w_bar - 1) // t
        if segment < 1:
            raise ConfigurationError(
                "w_bar=%d cannot host t=%d partitions" % (self.w_bar, t)
            )
        return segment

    def partitioned_offset(self, j: int, t: int, hash_value: int) -> int:
        """Offset for shift ``j`` (1-based) of ``t``, within its segment.

        Shift ``j`` lands in ``[(j-1)*seg + 1, j*seg]`` where
        ``seg = (w_bar - 1) // t``; segments never overlap, so each shift
        contributes an independent bit, mirroring the partitioned-filter
        analysis behind Eq. (10).
        """
        segment = self.partition_segment(t)
        if not 1 <= j <= t:
            raise ConfigurationError("shift index %d outside [1, %d]" % (j, t))
        return (j - 1) * segment + hash_value % segment + 1

    def partitioned_offset_batch(self, j: int, t: int,
                                 hash_values) -> np.ndarray:
        """Vectorised :meth:`partitioned_offset` (``int64`` array out)."""
        segment = self.partition_segment(t)
        if not 1 <= j <= t:
            raise ConfigurationError("shift index %d outside [1, %d]" % (j, t))
        offsets = mod_int64(np.asarray(hash_values, dtype=np.uint64),
                            segment)
        offsets += (j - 1) * segment + 1
        return offsets

    # ------------------------------------------------------------------
    # Array sizing
    # ------------------------------------------------------------------
    @property
    def slack_cells(self) -> int:
        """Extra cells an array must append so shifts never wrap.

        The largest offset any rule produces is ``w_bar - 1`` (membership,
        association ``o2``, partitioned shift ``t``), reached from base
        position ``m - 1`` — so arrays allocate ``m + w_bar - 1`` cells.
        §3.1 describes the same extension ("we extend the number of bits
        in ShBF to m + c").
        """
        return self.w_bar - 1
