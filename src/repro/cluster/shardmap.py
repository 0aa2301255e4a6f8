"""The versioned shard map: an epoch-stamped ownership table.

A cluster is N service nodes each owning a subset of the global shard
ids.  :class:`ShardMap` is the single source of truth for that
ownership: a frozen ``shard id -> endpoint`` table stamped with a
monotonically increasing **epoch**.  Every node installs a copy, every
:class:`~repro.cluster.client.ClusterClient` routes against a copy, and
a live reshard is nothing but publishing a successor map with
``epoch + 1`` — the flip is atomic because each node switches tables in
one event-loop tick, and a client still holding the predecessor gets
:class:`~repro.errors.WrongOwnerError` (refused, never misrouted) until
it refreshes.

Three structural invariants hold by construction and are re-validated
on every deserialisation (the property suite in
``tests/cluster/test_shard_map.py`` exercises them across randomized
split/merge sequences):

* **total partition** — every shard id has exactly one owner; the union
  of all nodes' shard sets is the full id range and the sets are
  pairwise disjoint;
* **forward-only epochs** — :meth:`move` always returns a successor
  with ``epoch + 1``; nodes refuse installs at or below their current
  epoch (:class:`~repro.errors.StaleShardMapError` — identical
  same-epoch maps are acked idempotently);
* **routing pin** — the map carries the router's ``(seed, family)`` so
  every party derives the identical
  :class:`~repro.store.router.ShardRouter`; two maps that disagree on
  geometry can never be confused for versions of one cluster.

The map serialises to a small JSON document (:meth:`to_json` /
:meth:`from_json`), which doubles as the static bootstrap-file format
read by ``python -m repro.cluster serve --map``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Iterable, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.hashing.family import SERVING_FAMILY
from repro.replication.failover import parse_endpoint
from repro.store.router import DEFAULT_ROUTER_SEED, ShardRouter

__all__ = ["ShardMap", "bootstrap_map"]


@dataclass(frozen=True)
class ShardMap:
    """Epoch-stamped ``shard id -> owning endpoint`` table.

    Attributes:
        epoch: map version; successors always carry ``epoch + 1``.
        assignments: one endpoint string (``"host:port"``) per shard
            id — index *is* the shard id, so the table is a total
            partition by construction.
        router_seed: the cluster-wide routing seed (every node and
            client must route identically; see
            :class:`~repro.store.router.ShardRouter`).
        router_family: the routing hash-family kind.
    """

    epoch: int
    assignments: Tuple[str, ...]
    router_seed: int = DEFAULT_ROUTER_SEED
    router_family: str = SERVING_FAMILY

    def __post_init__(self) -> None:
        if self.epoch < 1:
            raise ConfigurationError(
                "shard map epoch must be >= 1, got %r" % (self.epoch,))
        if not self.assignments:
            raise ConfigurationError(
                "shard map must assign at least one shard")
        object.__setattr__(
            self, "assignments", tuple(str(a) for a in self.assignments))
        for endpoint in self.assignments:
            parse_endpoint(endpoint)  # raises ProtocolError on bad form

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        """Number of shards the map partitions."""
        return len(self.assignments)

    def owner(self, shard_id: int) -> str:
        """The endpoint owning *shard_id*."""
        if not 0 <= shard_id < self.n_shards:
            raise ConfigurationError(
                "shard_id %d out of range for %d shards"
                % (shard_id, self.n_shards))
        return self.assignments[shard_id]

    def nodes(self) -> Tuple[str, ...]:
        """Every owning endpoint, in first-appearance order."""
        seen: Dict[str, None] = {}
        for endpoint in self.assignments:
            seen.setdefault(endpoint)
        return tuple(seen)

    def shards_of(self, endpoint: str) -> Tuple[int, ...]:
        """The shard ids *endpoint* owns (possibly empty)."""
        return tuple(i for i, owner in enumerate(self.assignments)
                     if owner == endpoint)

    def make_router(self) -> ShardRouter:
        """The cluster-wide router this map pins."""
        return ShardRouter(self.n_shards, seed=self.router_seed,
                           family_kind=self.router_family)

    def same_cluster(self, other: "ShardMap") -> bool:
        """Whether *other* versions the same cluster (geometry match).

        Maps of one cluster share shard count and routing spec; only
        epoch and ownership differ between versions.  A node refuses to
        install a map that fails this check — it belongs to a different
        deployment, not to this cluster's history.
        """
        return (self.n_shards == other.n_shards
                and self.router_seed == other.router_seed
                and self.router_family == other.router_family)

    # ------------------------------------------------------------------
    # Evolution
    # ------------------------------------------------------------------
    def move(self, shard_ids: Iterable[int], endpoint: str) -> "ShardMap":
        """The successor map with *shard_ids* owned by *endpoint*.

        This is the only evolution primitive — a split (part of a
        node's shards move away), a merge (a node's last shards move
        and it drops out of :meth:`nodes`) and a whole-node drain are
        all ``move`` calls.  The successor carries ``epoch + 1``; the
        partition invariant is preserved because assignment is by
        index.
        """
        parse_endpoint(endpoint)
        shard_ids = list(shard_ids)
        table = list(self.assignments)
        for shard_id in shard_ids:
            if not 0 <= shard_id < self.n_shards:
                raise ConfigurationError(
                    "shard_id %d out of range for %d shards"
                    % (shard_id, self.n_shards))
            table[shard_id] = endpoint
        return ShardMap(
            epoch=self.epoch + 1,
            assignments=tuple(table),
            router_seed=self.router_seed,
            router_family=self.router_family,
        )

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_json(self) -> str:
        """The map as a JSON document (also the bootstrap-file format)."""
        return json.dumps({
            "type": "shard_map",
            "epoch": self.epoch,
            "router_seed": self.router_seed,
            "router_family": self.router_family,
            "assignments": list(self.assignments),
        }, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ShardMap":
        """Invert :meth:`to_json`, re-validating every invariant."""
        try:
            doc = json.loads(text)
        except ValueError as exc:
            raise ConfigurationError(
                "shard map is not valid JSON: %s" % exc) from exc
        if not isinstance(doc, dict) or doc.get("type") != "shard_map":
            raise ConfigurationError(
                "shard map JSON must be an object with type='shard_map'")
        try:
            epoch = int(doc["epoch"])
            seed = int(doc["router_seed"])
            family = str(doc["router_family"])
            assignments = doc["assignments"]
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(
                "shard map JSON is missing or mistypes a field: %s"
                % exc) from exc
        if (not isinstance(assignments, list)
                or not all(isinstance(a, str) for a in assignments)):
            raise ConfigurationError(
                "shard map assignments must be a list of endpoint strings")
        return cls(epoch=epoch, assignments=tuple(assignments),
                   router_seed=seed, router_family=family)

    def to_bytes(self) -> bytes:
        """UTF-8 JSON — the SHARD_MAP wire payload."""
        return self.to_json().encode("utf-8")

    @classmethod
    def from_bytes(cls, blob: bytes) -> "ShardMap":
        """Invert :meth:`to_bytes`."""
        return cls.from_json(blob.decode("utf-8", "replace"))


def bootstrap_map(
    n_shards: int,
    endpoints: Sequence[str],
    router_seed: int = DEFAULT_ROUTER_SEED,
    router_family: str = SERVING_FAMILY,
) -> ShardMap:
    """An epoch-1 map distributing *n_shards* round-robin over nodes.

    The static-bootstrap path: write this to a file, hand the file to
    every ``python -m repro.cluster serve`` and to the client — no
    coordinator process needed until the first reshard.
    """
    if n_shards < 1:
        raise ConfigurationError(
            "n_shards must be >= 1, got %r" % (n_shards,))
    endpoints = [str(e) for e in endpoints]
    if not endpoints:
        raise ConfigurationError("bootstrap needs at least one endpoint")
    if len(set(endpoints)) != len(endpoints):
        raise ConfigurationError(
            "bootstrap endpoints must be distinct, got %r" % (endpoints,))
    for endpoint in endpoints:
        parse_endpoint(endpoint)
    return ShardMap(
        epoch=1,
        assignments=tuple(endpoints[i % len(endpoints)]
                          for i in range(n_shards)),
        router_seed=router_seed,
        router_family=router_family,
    )
