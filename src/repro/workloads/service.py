"""Request-stream builders for the set-query service.

The service bench and CLI need the same thing the figure harnesses do —
seeded, reproducible query mixes — but shaped as a *request stream*:
many small per-client batches rather than one big array.  These helpers
produce that shape from the same :class:`~repro.traces.flows.
FlowTraceGenerator` universe, so a service run and a direct
``query_batch`` run over the identical stream are comparable
element for element (the round-trip equivalence tests rely on it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro._util import require_positive
from repro.traces.flows import FlowTraceGenerator

__all__ = ["ServiceWorkload", "build_service_workload", "chop_requests",
           "preloaded"]


def chop_requests(
    elements: Sequence[bytes], per_request: int,
) -> List[List[bytes]]:
    """Chop an element stream into per-request batches, order preserved.

    The last request may be shorter; concatenating the output restores
    the input exactly, which is what makes a coalesced service run
    comparable bit-for-bit with one direct ``query_batch`` call.
    """
    require_positive("per_request", per_request)
    elements = list(elements)
    return [
        elements[i : i + per_request]
        for i in range(0, len(elements), per_request)
    ]


@dataclass(frozen=True)
class ServiceWorkload:
    """A reproducible serving workload: catalog plus query stream.

    Attributes:
        members: distinct elements the service should contain.
        absent: distinct elements disjoint from ``members``.
        seed: the seed that produced both.
    """

    members: Tuple[bytes, ...]
    absent: Tuple[bytes, ...]
    seed: int

    def mixed_stream(self) -> List[bytes]:
        """Member/absent interleave — half the queries must answer True."""
        limit = min(len(self.members), len(self.absent))
        mixed: List[bytes] = []
        for member, negative in zip(self.members[:limit],
                                    self.absent[:limit]):
            mixed.append(member)
            mixed.append(negative)
        return mixed

    def request_stream(self, per_request: int) -> List[List[bytes]]:
        """:meth:`mixed_stream` chopped into service request batches."""
        return chop_requests(self.mixed_stream(), per_request)


def build_service_workload(
    n_members: int, n_absent: int = 0, seed: int = 0,
) -> ServiceWorkload:
    """Seeded serving workload over the 13-byte flow-ID universe.

    *n_absent* defaults to *n_members* so :meth:`ServiceWorkload.
    mixed_stream` covers the whole catalog.
    """
    require_positive("n_members", n_members)
    if n_absent <= 0:
        n_absent = n_members
    flows = FlowTraceGenerator(seed=seed).distinct_flows(
        n_members + n_absent)
    return ServiceWorkload(
        members=tuple(flows[:n_members]),
        absent=tuple(flows[n_members:]),
        seed=seed,
    )


def preloaded(spec, n_members: int, seed: int = 0):
    """A fresh store built from *spec* (a :class:`~repro.store.
    StoreSpec`) holding the first *n_members* of the seeded catalog:
    the ``--preload`` of every serving CLI and mpserve writer."""
    store = spec.build()
    if n_members > 0:
        store.add_batch(list(build_service_workload(
            n_members, seed=seed).members))
    return store
