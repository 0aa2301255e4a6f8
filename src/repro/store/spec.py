"""StoreSpec: the one builder of served structures.

Every serving entry point — the service, replication, mpserve and
cluster CLIs, and the drills' reference stores — builds from a spec,
so a served ShBF answers exactly like the in-process one built from
the same geometry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.association import ShiftingAssociationFilter
from repro.core.membership import ShiftingBloomFilter
from repro.errors import ConfigurationError
from repro.hashing.family import FAMILY_KINDS, SERVING_FAMILY, make_family
from repro.store.generational import GenerationalStore
from repro.store.router import ShardRouter
from repro.store.sharded import ShardedFilterStore

__all__ = ["STRUCTURES", "StoreSpec"]

#: ``structure`` name -> the filter class of every shard/generation.
STRUCTURES = {
    "membership": ShiftingBloomFilter,
    "association": ShiftingAssociationFilter,
}


@dataclass(frozen=True)
class StoreSpec:
    """Geometry and shape of a hosted structure (frozen, picklable).

    ``shards`` filters of ``m`` bits and ``k`` hashes each (``0``: one
    plain filter), or with ``generations > 0`` a
    :class:`~repro.store.GenerationalStore` ring of that many filters
    rotated by ``rotate_items`` / ``rotate_seconds`` (0: off).
    ``family`` is resolved once at seed 0 and shared by every filter;
    ``structure`` picks ShBF_M (``"membership"``) or ShBF_A
    (``"association"``).

    Raises:
        ConfigurationError: at construction, for an unregistered family
            or structure — before any process is spawned around it.
    """

    shards: int = 4
    m: int = 262144
    k: int = 8
    family: str = SERVING_FAMILY
    generations: int = 0
    rotate_items: int = 0
    rotate_seconds: float = 0.0
    structure: str = "membership"

    def __post_init__(self) -> None:
        if self.family not in FAMILY_KINDS:
            raise ConfigurationError(
                "unknown hash family kind %r (registered: %s)"
                % (self.family, ", ".join(FAMILY_KINDS)))
        if self.structure not in STRUCTURES:
            raise ConfigurationError(
                "unknown structure %r (choose from %s)"
                % (self.structure, ", ".join(STRUCTURES)))

    def build(self, router: Optional[ShardRouter] = None):
        """A fresh, empty structure; *router* pins a sharded store's
        routing (a cluster node routes by its shard map)."""
        cls = STRUCTURES[self.structure]
        family = make_family(self.family, seed=0)

        def factory(_slot: int):
            return cls(m=self.m, k=self.k, family=family)

        if self.generations > 0:
            return GenerationalStore(
                factory, generations=self.generations,
                rotate_after_items=self.rotate_items,
                rotate_after_s=self.rotate_seconds)
        if self.shards <= 0:
            return factory(0)
        return ShardedFilterStore(factory, n_shards=self.shards,
                                  router=router)
