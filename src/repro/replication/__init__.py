"""Primary→standby replication and client-side failover.

The fourth layer of the architecture — ``core`` filters → ``store``
fleets → ``service`` network serving → **``replication``** high
availability — built entirely on the serving layer's wire protocol:

* :mod:`repro.replication.replicator` —
  :class:`ReplicatedFilterService` keeps warm standbys current with a
  full persistence snapshot on attach (SUBSCRIBE) and shard-wise deltas
  (DELTA) thereafter, paced by :class:`ReplicationConfig`;
* :mod:`repro.replication.failover` — :class:`FailoverClient` retries
  reads on a standby when the primary sheds or dies, routes writes
  only to the primary role, and drives PROMOTE after a failover;
* ``python -m repro.replication`` — ``serve`` / ``serve-pair`` /
  ``probe`` / ``verify`` / ``drill``, the operator entry points for
  the kill-primary failover drill (see ``docs/OPERATIONS.md``).

The consistency contract (and the property the tests assert): a
standby's verdicts are bit-identical to the primary's for every key
acknowledged before the last shipped delta, and after a quiesce its
SNAPSHOT blob is byte-identical to the primary's.
"""

from repro.replication.failover import FailoverClient, parse_endpoint
from repro.replication.replicator import (
    ReplicatedFilterService,
    ReplicationConfig,
    StandbyLink,
)

__all__ = [
    "FailoverClient",
    "ReplicatedFilterService",
    "ReplicationConfig",
    "StandbyLink",
    "parse_endpoint",
]
