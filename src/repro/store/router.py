"""Hash-based shard routing for the sharded filter store.

A fleet of filters only behaves like one big filter if every element is
routed to the *same* shard on insert and on query, on every node, for
the lifetime of the deployment.  :class:`ShardRouter` pins that mapping
to a seeded routing hash — any registered family kind, the vetted
vectorised ``vector64`` mixers by default (statistically screened
against BLAKE2b by the hash-vetting harness; see ``BENCH_hash.json``):
``shard(e) = h_route(e) % n_shards``, with the routing hash
drawn from its **own** family so routing decisions stay statistically
independent of the probe positions inside each shard.

That independence matters: the default filter families also use seed 0,
and if the router shared their seed *and* hash index, every element of
shard ``s`` would satisfy ``h_0(e) ≡ s (mod n_shards)`` — whenever
``n_shards`` divides ``m`` the first probe positions inside a shard
would then be confined to a ``1/n_shards`` slice of the array, skewing
occupancy and FPR.  A distinct default seed removes the correlation.
"""

from __future__ import annotations

import numpy as np

from repro._util import ElementLike, require_non_negative, require_positive
from repro._vector import group_indices, mod_int64
from repro.hashing.family import SERVING_FAMILY, make_family

__all__ = ["ShardRouter"]

#: Default routing seed, deliberately different from the filter
#: families' default seed 0 (see the module docstring).
DEFAULT_ROUTER_SEED = 0x5A17


class ShardRouter:
    """Deterministic element → shard mapping via a seeded routing hash.

    Args:
        n_shards: number of shards in the store.
        seed: routing-family seed.  Two routers with equal
            ``(n_shards, family_kind, seed)`` route identically — the
            compatibility unit for store merges and snapshot restores.
        family_kind: registered hash-family kind for the routing hash
            (:data:`repro.hashing.FAMILY_KINDS`); the fully vectorised
            ``"vector64"`` mixers by default, ``"blake2b"`` for the
            cryptographic lanes.  Persisted in ``SHBS`` containers so
            restored stores route identically (legacy blobs without
            the field default to ``"blake2b"``).

    Example:
        >>> router = ShardRouter(n_shards=4)
        >>> router.route(b"10.0.0.1:443") in range(4)
        True
    """

    def __init__(self, n_shards: int, seed: int = DEFAULT_ROUTER_SEED,
                 family_kind: str = SERVING_FAMILY):
        require_positive("n_shards", n_shards)
        require_non_negative("seed", seed)
        self._n_shards = n_shards
        self._seed = seed
        self._family_kind = family_kind
        self._family = make_family(family_kind, seed)

    @property
    def n_shards(self) -> int:
        """Number of shards this router distributes over."""
        return self._n_shards

    @property
    def seed(self) -> int:
        """The routing-family seed (part of the compatibility key)."""
        return self._seed

    @property
    def family_kind(self) -> str:
        """The routing-family kind (part of the compatibility key)."""
        return self._family_kind

    @property
    def name(self) -> str:
        """Compatibility label: routers with equal names route equally."""
        return "%s%%%d" % (self._family.name, self._n_shards)

    def route(self, element: ElementLike) -> int:
        """The shard index owning *element*."""
        return self._family.hash(0, element) % self._n_shards

    @property
    def family(self):
        """The routing hash family instance."""
        return self._family

    def route_batch(self, elements) -> np.ndarray:
        """Vectorised :meth:`route`: an ``(n,)`` int64 shard-id array."""
        elements = list(elements)
        if not elements:
            return np.zeros(0, dtype=np.int64)
        values = self._family.values_batch(elements, 1)[:, 0]
        return mod_int64(values, self._n_shards)

    def group(self, elements):
        """Yield ``(shard_id, index_array)`` per non-empty shard bucket.

        Index arrays preserve input order within a bucket, so per-shard
        batch results scatter back with ``out[indices] = result``.
        """
        return group_indices(self.route_batch(elements), self._n_shards)

    def histogram(self, elements) -> np.ndarray:
        """Element count per shard — the load-balance diagnostic."""
        return np.bincount(
            self.route_batch(elements), minlength=self._n_shards)

    def is_compatible(self, other: "ShardRouter") -> bool:
        """Whether *other* routes every element identically."""
        return (self._n_shards == other._n_shards
                and self._seed == other._seed
                and self._family_kind == other._family_kind)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "ShardRouter(n_shards=%d, seed=%d, family_kind=%r)" % (
            self._n_shards, self._seed, self._family_kind)
