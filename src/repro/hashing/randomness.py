"""Statistical vetting harness for hash families (§6.1 of the paper).

The authors vetted 18 candidate hash functions by hashing their 8 million
distinct flow IDs and checking that every output bit position is 1 with
empirical probability ≈ 0.5.  This module reproduces that gate and
extends it into the full harness a *non-cryptographic* family must clear
before it may carry the hot path:

* **per-bit balance** (:func:`bit_balance_report`) — the paper's test
  verbatim: each output bit is 1 for about half the sample, within a
  binomial confidence bound;
* **position uniformity** (:func:`position_uniformity_report`) —
  chi-square of hash values reduced modulo a filter-sized bucket count,
  i.e. uniformity of the *positions filters actually probe*, not just of
  individual bits (a family can pass per-bit balance with badly
  correlated bits; the bucket histogram catches that);
* **pairwise independence** (:func:`independence_report`) — the
  collision rate between two family members, ``P(h_i(e) ≡ h_j(e) mod
  B)``, against its binomial expectation ``n/B`` (the paper assumes *k
  independent* functions; this is the empirical check);
* **avalanche** (:func:`avalanche_report`) — flipping one input bit
  flips each output bit with probability ≈ 0.5 (full diffusion; the
  property that separates real mixers from byte-serial folds).

:func:`vet_family` runs the selected checks over several family members
at once and returns one :class:`FamilyVettingReport`; a family is fit
for experiments when ``report.passed`` is true.  All bounds are
expressed in standard deviations (``sigmas``) of the relevant null
distribution, with the chi-square quantile approximated by
Wilson–Hilferty so the harness needs no SciPy.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro._util import ElementLike, require_positive, to_bytes_batch
from repro._vector import mod_int64
from repro.hashing.family import HashFamily

__all__ = [
    "AvalancheReport",
    "BitBalanceReport",
    "FamilyVettingReport",
    "IndependenceReport",
    "UniformityReport",
    "avalanche_report",
    "bit_balance_report",
    "independence_report",
    "position_uniformity_report",
    "vet_family",
]

#: Checks :func:`vet_family` runs by default, in execution order.
ALL_CHECKS = ("balance", "uniformity", "independence", "avalanche")


@dataclass(frozen=True)
class BitBalanceReport:
    """Result of the per-bit balance test for one hash index.

    Attributes:
        index: which member of the family was tested.
        samples: number of elements hashed.
        frequencies: per-bit empirical probability of observing a 1, from
            bit 0 (LSB) to bit ``output_bits - 1``.
        max_deviation: largest ``|freq - 0.5|`` across bit positions.
        threshold: deviation bound used for the pass/fail verdict.
        passed: whether every bit position stayed within the bound.
    """

    index: int
    samples: int
    frequencies: tuple
    max_deviation: float
    threshold: float
    passed: bool

    @property
    def worst_bit(self) -> int:
        """Bit position with the largest deviation from 0.5."""
        deviations = [abs(f - 0.5) for f in self.frequencies]
        return deviations.index(max(deviations))


@dataclass(frozen=True)
class UniformityReport:
    """Chi-square of positions ``h_index(e) mod n_buckets`` vs uniform.

    Attributes:
        index: which member of the family was tested.
        samples: number of elements hashed.
        n_buckets: bucket count (choose it filter-sized: the ``m`` scale
            the family will be reduced by in deployment).
        statistic: the chi-square statistic over the bucket histogram.
        dof: degrees of freedom (``n_buckets - 1``).
        critical: rejection threshold (Wilson–Hilferty quantile at the
            harness's sigma level).
        passed: ``statistic <= critical``.
    """

    index: int
    samples: int
    n_buckets: int
    statistic: float
    dof: int
    critical: float
    passed: bool


@dataclass(frozen=True)
class IndependenceReport:
    """Pairwise collision rate of two family members vs Binomial(n, 1/B).

    Attributes:
        index_a: first family member.
        index_b: second family member.
        samples: number of elements hashed.
        n_buckets: reduction modulus for the collision test.
        collisions: observed ``h_a(e) ≡ h_b(e) (mod n_buckets)`` count.
        expected: binomial expectation ``samples / n_buckets``.
        bound: allowed absolute deviation (``sigmas`` binomial std devs).
        passed: ``|collisions - expected| <= bound``.
    """

    index_a: int
    index_b: int
    samples: int
    n_buckets: int
    collisions: int
    expected: float
    bound: float
    passed: bool


@dataclass(frozen=True)
class AvalancheReport:
    """Single-input-bit avalanche behaviour of one family member.

    Attributes:
        index: which member of the family was tested.
        trials: number of (element, flipped input bit) pairs measured.
        mean_flip_rate: average fraction of output bits flipped per
            trial (ideal: 0.5).
        max_bit_deviation: worst ``|flip frequency - 0.5|`` over output
            bit positions.
        threshold: per-output-bit deviation bound.
        passed: mean and every per-bit frequency within the bound.
    """

    index: int
    trials: int
    mean_flip_rate: float
    max_bit_deviation: float
    threshold: float
    passed: bool


@dataclass(frozen=True)
class FamilyVettingReport:
    """Aggregate verdict of every enabled check over a family.

    Iterating (or indexing) the report yields the per-index
    :class:`BitBalanceReport` entries, preserving the original
    ``vet_family`` return shape for balance-only callers.
    """

    family: str
    balance: Tuple[BitBalanceReport, ...]
    uniformity: Tuple[UniformityReport, ...]
    independence: Tuple[IndependenceReport, ...]
    avalanche: Tuple[AvalancheReport, ...]

    def __iter__(self):
        return iter(self.balance)

    def __len__(self) -> int:
        return len(self.balance)

    def __getitem__(self, item):
        return self.balance[item]

    @property
    def passed(self) -> bool:
        """Whether every report of every enabled check passed."""
        return not self.failures

    @property
    def failures(self) -> List[str]:
        """Human-readable list of failed checks (empty when clean)."""
        problems = []
        for report in self.balance:
            if not report.passed:
                problems.append(
                    "balance: index %d bit %d deviates %.4f (bound %.4f)"
                    % (report.index, report.worst_bit,
                       report.max_deviation, report.threshold))
        for report in self.uniformity:
            if not report.passed:
                problems.append(
                    "uniformity: index %d chi2 %.1f > %.1f (%d buckets)"
                    % (report.index, report.statistic, report.critical,
                       report.n_buckets))
        for report in self.independence:
            if not report.passed:
                problems.append(
                    "independence: (%d, %d) collisions %d vs %.1f "
                    "(bound %.1f)"
                    % (report.index_a, report.index_b, report.collisions,
                       report.expected, report.bound))
        for report in self.avalanche:
            if not report.passed:
                problems.append(
                    "avalanche: index %d mean flip %.3f, worst bit "
                    "deviation %.3f (bound %.3f)"
                    % (report.index, report.mean_flip_rate,
                       report.max_bit_deviation, report.threshold))
        return problems


def _chi_square_critical(dof: int, sigmas: float) -> float:
    """Wilson–Hilferty approximation of the chi-square quantile.

    ``(X/df)^(1/3)`` is approximately normal with mean ``1 - 2/(9 df)``
    and variance ``2/(9 df)``; inverting at ``sigmas`` standard
    deviations gives the rejection threshold without SciPy.  Accurate to
    a fraction of a percent for the df range the harness uses (> 50).
    """
    t = 2.0 / (9.0 * dof)
    return dof * (1.0 - t + sigmas * math.sqrt(t)) ** 3


def _values_matrix(
    family: HashFamily, elements: Sequence[ElementLike], count: int
) -> np.ndarray:
    """Hash values for all elements and indices ``0..count-1`` at once."""
    return family.values_batch(elements, count)


def _balance_from_column(
    column: np.ndarray, index: int, bits: int, sigmas: float
) -> BitBalanceReport:
    n = len(column)
    ones = [
        int(((column >> np.uint64(b)) & np.uint64(1)).sum())
        for b in range(bits)
    ]
    freqs = tuple(count / n for count in ones)
    threshold = 0.5 * sigmas / math.sqrt(n)
    max_dev = max(abs(f - 0.5) for f in freqs)
    return BitBalanceReport(
        index=index,
        samples=n,
        frequencies=freqs,
        max_deviation=max_dev,
        threshold=threshold,
        passed=max_dev <= threshold,
    )


def bit_balance_report(
    family: HashFamily,
    elements: Sequence[ElementLike],
    index: int = 0,
    sigmas: float = 4.5,
) -> BitBalanceReport:
    """Run the paper's per-bit balance test on one family member.

    Each of the ``output_bits`` positions of ``family.hash(index, e)``
    should be 1 for about half the *elements*.  Under the null hypothesis
    the count of 1s is Binomial(n, 0.5), so we flag a bit whose frequency
    deviates from 0.5 by more than ``sigmas`` standard deviations
    (``0.5 * sigmas / sqrt(n)``).  The default 4.5σ keeps the familywise
    false-alarm probability below ~1e-3 even for 64 bits × many indices.

    Args:
        family: the hash family under test.
        elements: distinct sample elements (the paper used its 8M distinct
            flow IDs; a few tens of thousands give a sharp test already).
        index: which member of the family to test.
        sigmas: binomial deviation bound in standard deviations.

    Returns:
        A :class:`BitBalanceReport` with per-bit frequencies and a verdict.
    """
    elements = list(elements)
    n = len(elements)
    require_positive("len(elements)", n)
    # Sourced through the scalar ``hash`` entry point on purpose: this
    # is the primitive test, usable on families whose batch path is the
    # inherited fallback or is itself under suspicion.  ``vet_family``
    # sources the same values through ``values_batch`` instead (the two
    # are bit-identical per the family contract).
    column = np.fromiter(
        (family.hash(index, e) for e in elements), dtype=np.uint64,
        count=n)
    return _balance_from_column(column, index, family.output_bits, sigmas)


def position_uniformity_report(
    family: HashFamily,
    elements: Sequence[ElementLike],
    index: int = 0,
    n_buckets: int = 256,
    sigmas: float = 4.5,
) -> UniformityReport:
    """Chi-square uniformity of ``h_index(e) mod n_buckets``.

    Pick *n_buckets* so the expected count per bucket
    (``len(elements) / n_buckets``) stays ≥ ~5, the usual chi-square
    validity rule of thumb.
    """
    elements = list(elements)
    require_positive("len(elements)", len(elements))
    require_positive("n_buckets", n_buckets)
    column = family.values_batch(elements, 1, start=index)[:, 0]
    return _uniformity_from_column(
        column, index, len(elements), n_buckets, sigmas)


def _uniformity_from_column(
    column: np.ndarray, index: int, n: int, n_buckets: int, sigmas: float
) -> UniformityReport:
    buckets = mod_int64(column, n_buckets)
    counts = np.bincount(buckets, minlength=n_buckets)
    expected = n / n_buckets
    statistic = float(((counts - expected) ** 2 / expected).sum())
    dof = n_buckets - 1
    critical = _chi_square_critical(dof, sigmas)
    return UniformityReport(
        index=index,
        samples=n,
        n_buckets=n_buckets,
        statistic=statistic,
        dof=dof,
        critical=critical,
        passed=statistic <= critical,
    )


def independence_report(
    family: HashFamily,
    elements: Sequence[ElementLike],
    index_a: int,
    index_b: int,
    n_buckets: int = 256,
    sigmas: float = 4.5,
) -> IndependenceReport:
    """Collision rate of two family members vs the binomial expectation.

    For independent uniform functions, ``h_a(e) ≡ h_b(e) (mod B)``
    occurs with probability ``1/B`` per element; correlated members
    (e.g. a family that ignores its index) collide vastly more often.
    """
    elements = list(elements)
    require_positive("len(elements)", len(elements))
    count = max(index_a, index_b) + 1
    values = family.values_batch(elements, count)
    return _independence_from_columns(
        values[:, index_a], values[:, index_b], index_a, index_b,
        len(elements), n_buckets, sigmas)


def _independence_from_columns(
    col_a: np.ndarray, col_b: np.ndarray, index_a: int, index_b: int,
    n: int, n_buckets: int, sigmas: float,
) -> IndependenceReport:
    collisions = int((mod_int64(col_a, n_buckets)
                      == mod_int64(col_b, n_buckets)).sum())
    p = 1.0 / n_buckets
    expected = n * p
    bound = sigmas * math.sqrt(n * p * (1.0 - p))
    return IndependenceReport(
        index_a=index_a,
        index_b=index_b,
        samples=n,
        n_buckets=n_buckets,
        collisions=collisions,
        expected=expected,
        bound=bound,
        passed=abs(collisions - expected) <= bound,
    )


def _spread_bit_positions(total_bits: int, max_bits: int) -> List[int]:
    """Up to *max_bits* input-bit positions spread evenly over the key."""
    if total_bits <= max_bits:
        return list(range(total_bits))
    step = total_bits / max_bits
    positions = sorted({int(j * step) for j in range(max_bits)})
    return positions


def avalanche_report(
    family: HashFamily,
    elements: Sequence[ElementLike],
    index: int = 0,
    sigmas: float = 4.5,
    max_elements: int = 128,
    max_input_bits: int = 32,
) -> AvalancheReport:
    """Single-bit avalanche test of one family member.

    For a sample of elements and a spread of input-bit positions, the
    element is re-hashed with that one bit flipped and the XOR of the
    two outputs is accumulated per output bit.  A full-diffusion mixer
    flips every output bit with probability 0.5 per trial; the bound is
    ``sigmas`` binomial standard deviations around that.

    Zero-length elements are skipped (no input bit to flip); the sample
    must contain at least one non-empty element.
    """
    datas = to_bytes_batch(elements)[:max_elements]
    bits_out = family.output_bits
    deltas: List[int] = []
    for data in datas:
        total_bits = 8 * len(data)
        if total_bits == 0:
            continue
        reference = family.hash_bytes(index, data)
        for position in _spread_bit_positions(total_bits, max_input_bits):
            mutated = bytearray(data)
            mutated[position // 8] ^= 1 << (position % 8)
            deltas.append(
                reference ^ family.hash_bytes(index, bytes(mutated)))
    trials = len(deltas)
    require_positive("avalanche trials", trials)
    delta_arr = np.array(deltas, dtype=np.uint64)
    flips = [
        int(((delta_arr >> np.uint64(b)) & np.uint64(1)).sum())
        for b in range(bits_out)
    ]
    threshold = 0.5 * sigmas / math.sqrt(trials)
    frequencies = [count / trials for count in flips]
    max_dev = max(abs(f - 0.5) for f in frequencies)
    mean_rate = sum(flips) / (trials * bits_out)
    passed = max_dev <= threshold and abs(mean_rate - 0.5) <= threshold
    return AvalancheReport(
        index=index,
        trials=trials,
        mean_flip_rate=mean_rate,
        max_bit_deviation=max_dev,
        threshold=threshold,
        passed=passed,
    )


def vet_family(
    family: HashFamily,
    elements: Sequence[ElementLike],
    indices: Optional[Sequence[int]] = None,
    sigmas: float = 4.5,
    checks: Sequence[str] = ALL_CHECKS,
    n_buckets: int = 256,
) -> FamilyVettingReport:
    """Run the vetting harness over several members of a family.

    Mirrors (and extends) the paper's procedure of testing each
    candidate hash function independently: per-bit balance for every
    index, chi-square position uniformity for every index, pairwise
    independence for every index pair, and avalanche for every index.
    A family is fit for experiments when ``report.passed`` is true.

    The hash values for balance/uniformity/independence are computed
    once for the whole sample via the family's own ``values_batch`` —
    the harness therefore also exercises the batch path it is vetting.

    Args:
        family: the hash family under test.
        elements: distinct sample elements.
        indices: which members to test (default: the first eight).
        sigmas: confidence bound for every check, in standard
            deviations of the respective null distribution.
        checks: subset of ``("balance", "uniformity", "independence",
            "avalanche")`` to run.
        n_buckets: filter-sized reduction modulus for the uniformity
            and independence checks.

    Returns:
        A :class:`FamilyVettingReport`; iterating it yields the per-
        index :class:`BitBalanceReport` entries (the historical shape).
    """
    elements = list(elements)
    require_positive("len(elements)", len(elements))
    if indices is None:
        indices = range(8)
    indices = list(indices)
    unknown = set(checks) - set(ALL_CHECKS)
    if unknown:
        raise ValueError(
            "unknown vetting checks %r (known: %s)"
            % (sorted(unknown), ", ".join(ALL_CHECKS)))
    n = len(elements)
    bits = family.output_bits

    values = None
    if set(checks) & {"balance", "uniformity", "independence"}:
        values = _values_matrix(family, elements, max(indices) + 1)

    balance: Tuple[BitBalanceReport, ...] = ()
    if "balance" in checks:
        balance = tuple(
            _balance_from_column(values[:, i], i, bits, sigmas)
            for i in indices
        )
    uniformity: Tuple[UniformityReport, ...] = ()
    if "uniformity" in checks:
        uniformity = tuple(
            _uniformity_from_column(values[:, i], i, n, n_buckets, sigmas)
            for i in indices
        )
    independence: Tuple[IndependenceReport, ...] = ()
    if "independence" in checks:
        independence = tuple(
            _independence_from_columns(
                values[:, a], values[:, b], a, b, n, n_buckets, sigmas)
            for a, b in itertools.combinations(indices, 2)
        )
    avalanche: Tuple[AvalancheReport, ...] = ()
    if "avalanche" in checks:
        avalanche = tuple(
            avalanche_report(family, elements, index=i, sigmas=sigmas)
            for i in indices
        )
    return FamilyVettingReport(
        family=family.name,
        balance=balance,
        uniformity=uniformity,
        independence=independence,
        avalanche=avalanche,
    )
