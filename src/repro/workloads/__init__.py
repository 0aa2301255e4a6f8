"""Query workload builders for the three set-query types.

Each builder turns the synthetic traces of :mod:`repro.traces` into the
exact query mixes the paper's experiments use:

* membership (§6.2): ``n`` members inserted, FPR probed with a large
  disjoint negative set, access/speed probed with a ``2n`` half-member
  mix;
* association (§6.3): two sets with a controlled intersection, queries
  hitting the three regions with equal probability;
* multiplicity (§6.4): a multi-set with bounded-Zipf counts, queried for
  members and non-members.

All builders are seeded and return frozen dataclasses so experiments are
reproducible by construction.
"""

from repro.workloads.association import (
    AssociationWorkload,
    build_association_workload,
)
from repro.workloads.membership import (
    MembershipWorkload,
    build_membership_workload,
    run_membership_queries,
)
from repro.workloads.multiplicity import (
    MultiplicityWorkload,
    build_multiplicity_workload,
)
from repro.workloads.service import (
    ServiceWorkload,
    build_service_workload,
    chop_requests,
)
from repro.workloads.sharded import partition_by_shard, shard_load_factors
from repro.workloads.ttl import TTLWorkload, build_ttl_workload

__all__ = [
    "AssociationWorkload",
    "MembershipWorkload",
    "MultiplicityWorkload",
    "ServiceWorkload",
    "TTLWorkload",
    "build_association_workload",
    "build_membership_workload",
    "build_multiplicity_workload",
    "build_service_workload",
    "build_ttl_workload",
    "chop_requests",
    "partition_by_shard",
    "run_membership_queries",
    "shard_load_factors",
]
