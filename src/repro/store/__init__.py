"""Fleet-scale filter serving: sharded stores with batch routing.

One filter object is a data structure; production set-query serving is
a *fleet* of them.  This subpackage turns the library's filters into a
horizontally partitioned store:

* :class:`~repro.store.router.ShardRouter` — deterministic, seeded
  element → shard hashing, vectorised for whole batches;
* :class:`~repro.store.slots.SlotStore` — the base both stores share:
  a tuple of slot filters with the aggregate views, the replication
  slot operations and the container snapshot written once;
* :class:`~repro.store.sharded.ShardedFilterStore` — N shard filters
  behind one router, with batch-routed inserts/queries, aggregated
  access accounting, shard rotation for capacity growth, shard-wise
  union merges, and whole-store snapshot/restore through
  :mod:`repro.persistence`'s container format;
* :class:`~repro.store.generational.GenerationalStore` — time-decaying
  membership: a ring of G generation filters rotated on a time or
  cardinality trigger, writes into the head, queries OR'd across the
  live window, with atomic rotation publication and the ``SHBG``
  snapshot container;
* :class:`~repro.store.spec.StoreSpec` — the one recipe every serving
  entry point builds its hosted structure from.
"""

from repro.store.generational import (
    GenerationalStore,
    GenerationStats,
    RotationEvent,
)
from repro.store.router import ShardRouter
from repro.store.sharded import (
    ShardAccessReport,
    ShardedFilterStore,
    StoreAccessReport,
)
from repro.store.spec import StoreSpec

__all__ = [
    "GenerationStats",
    "GenerationalStore",
    "RotationEvent",
    "ShardAccessReport",
    "ShardRouter",
    "ShardedFilterStore",
    "StoreAccessReport",
    "StoreSpec",
]
