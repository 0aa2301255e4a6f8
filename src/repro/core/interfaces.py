"""The multiplicity answer type and its reporting policies.

Answer objects are deliberately richer than booleans where the paper's
semantics need it: association queries have seven possible outcomes
(§4.2) and multiplicity queries can surface several candidate counts
(§5.2); collapsing those early would make the accuracy metrics
(clear-answer probability, correctness rate) impossible to measure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

__all__ = ["MultiplicityAnswer"]


@dataclass(frozen=True)
class MultiplicityAnswer:
    """Result of a multiplicity query.

    Attributes:
        candidates: every multiplicity ``j`` whose ``k`` probe bits were
            all set, in increasing order.  For a structure that stores a
            single count per element (Spectral BF, CM sketch) this is a
            one-element tuple.
        reported: the value the structure reports under its configured
            policy.  ``0`` means "not present".

    The paper's §5.2 notes the largest candidate always upper-bounds the
    true count, while Eq. (28)'s correctness rate describes the smallest
    candidate; keeping all candidates lets the harness evaluate either
    policy (see DESIGN.md §1.5).
    """

    candidates: tuple
    reported: int

    @property
    def present(self) -> bool:
        """Whether the element appears to be in the multi-set at all."""
        return self.reported > 0

    def correct(self, true_count: int) -> bool:
        """Whether the reported multiplicity equals the true count."""
        return self.reported == true_count


def smallest_candidate(candidates: Sequence[int]) -> int:
    """Reporting policy matching Eq. (28): no spurious candidate below j."""
    return candidates[0] if candidates else 0


def largest_candidate(candidates: Sequence[int]) -> int:
    """Reporting policy from §5.2's prose: never underestimates."""
    return candidates[-1] if candidates else 0
