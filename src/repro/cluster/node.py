"""Cluster-side state of one service node: ownership + migration.

:class:`ClusterState` turns a plain :class:`~repro.service.server.
FilterService` into a cluster member.  Attached via :meth:`attach`, it

* enforces the **ownership contract**: every ADD / ADD_IDEM / QUERY /
  QUERY_MULTI batch is routed (one vectorised pass) and refused with
  :class:`~repro.errors.WrongOwnerError` if any element lands on a
  shard this node does not own under its installed
  :class:`~repro.cluster.shardmap.ShardMap` — a stale client is
  *refused, never misrouted*;
* answers the SHARD_MAP op: get returns the installed map, install
  accepts strictly newer epochs (idempotent ack for the identical
  current map, :class:`~repro.errors.StaleShardMapError` below it);
* drives the node's half of the MIGRATE protocol (see
  :mod:`repro.cluster.coordinator` for the whole dance): the source
  side journals writes from the moment of the ``BEGIN`` snapshot —
  reusing the service's replication write hook — and drains them as
  exact per-write batches; the target side installs the shipped blob
  with ``replace_shard`` and replays catch-up batches through the
  shard's own ``add_batch``, so item counts stay exact (no union
  double-count, no lost write).

The node hosts a **full-width** :class:`~repro.store.sharded.
ShardedFilterStore` (every global shard id present, unowned shards
empty).  That keeps every existing fleet primitive — ``replace_shard``,
``snapshot``, per-shard blobs — working with global shard ids, at the
cost of a few empty filters per node; the ownership check guarantees
the empty shards are never read or written.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import persistence
from repro.cluster.shardmap import ShardMap
from repro.obs import names as metric_names
from repro.obs.metrics import MetricsRegistry
from repro.errors import (
    ConfigurationError,
    StaleShardMapError,
    UnsupportedOperationError,
    WrongOwnerError,
)
from repro.service import protocol
from repro.store.sharded import ShardedFilterStore

__all__ = ["ClusterState"]

#: One journalled write: the flushed batch's elements and its counts
#: vector (or ``None``), filtered to a single migrating shard.
_JournalEntry = Tuple[List[bytes], Optional[List[int]]]


class ClusterState:
    """Shard-map awareness and migration state for one service node.

    Args:
        shard_map: the node's starting map (bootstrap file or a
            coordinator's publish).
        self_endpoint: this node's advertised ``"host:port"`` — the
            string the map names it by.  Owning zero shards is legal
            (a fresh node about to receive its first migration).
    """

    def __init__(self, shard_map: ShardMap, self_endpoint: str):
        self.map = shard_map
        self.self_endpoint = str(self_endpoint)
        self._owned_mask = self._mask_for(shard_map)
        self._journals: Dict[int, List[_JournalEntry]] = {}
        self._service = None
        self.counters = {
            "wrong_owner_rejections": 0,
            "maps_installed": 0,
            "migrations_begun": 0,
            "migrations_shipped": 0,
            "shards_installed": 0,
            "elements_caught_up": 0,
        }
        # Re-resolved against the hosting service's registry in
        # :meth:`attach`; null instruments until then.
        _null = MetricsRegistry(enabled=False)
        self._m_wrong_owner = _null.counter(metric_names.NODE_WRONG_OWNER)
        self._m_maps_installed = _null.counter(
            metric_names.NODE_MAPS_INSTALLED)

    def _mask_for(self, shard_map: ShardMap) -> np.ndarray:
        mask = np.zeros(shard_map.n_shards, dtype=bool)
        for shard_id in shard_map.shards_of(self.self_endpoint):
            mask[shard_id] = True
        return mask

    @property
    def owned_shards(self) -> Tuple[int, ...]:
        """The shard ids this node currently owns."""
        return tuple(int(i) for i in np.flatnonzero(self._owned_mask))

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, service) -> "ClusterState":
        """Bind to *service*: enforcement on, write journal hook chained.

        The hosted store must be a full-width sharded store routing
        exactly as the map prescribes — a geometry mismatch here would
        mean this node buckets elements differently from the rest of
        the fleet, the one unrecoverable cluster misconfiguration.
        """
        store = service.target
        if not isinstance(store, ShardedFilterStore):
            raise ConfigurationError(
                "a cluster node hosts a ShardedFilterStore, got %s"
                % type(store).__name__)
        if not store.router.is_compatible(self.map.make_router()):
            raise ConfigurationError(
                "store router %s disagrees with the shard map's routing "
                "spec (n_shards=%d seed=%d family=%s)"
                % (store.router.name, self.map.n_shards,
                   self.map.router_seed, self.map.router_family))
        self._service = service
        service.cluster = self
        self._m_wrong_owner = service.metrics.counter(
            metric_names.NODE_WRONG_OWNER)
        self._m_maps_installed = service.metrics.counter(
            metric_names.NODE_MAPS_INSTALLED)
        prior = service.on_write

        def hook(elements: Sequence[bytes],
                 counts: Optional[Sequence[int]]) -> None:
            if prior is not None:
                prior(elements, counts)
            self._journal_write(elements, counts)

        service.on_write = hook
        return self

    # ------------------------------------------------------------------
    # Ownership enforcement (the data-path hook)
    # ------------------------------------------------------------------
    def check_elements(self, elements: Sequence[bytes]) -> None:
        """Refuse the batch unless every element routes to an owned shard.

        One vectorised routing pass per request — the same family the
        store routes with, so the verdict is exact.  Raising here is
        the WRONG_OWNER signal: the error crosses the wire typed and
        tells the client to refresh its map and re-split.
        """
        if not elements:
            return
        routed = self._service.target.router.route_batch(elements)
        bad = ~self._owned_mask[routed]
        if bad.any():
            self.counters["wrong_owner_rejections"] += 1
            self._m_wrong_owner.inc()
            offending = sorted(set(int(s) for s in routed[bad]))
            raise WrongOwnerError(
                "node %s does not own shard(s) %s at map epoch %d; "
                "refresh the shard map and re-route"
                % (self.self_endpoint, offending, self.map.epoch))

    # ------------------------------------------------------------------
    # SHARD_MAP
    # ------------------------------------------------------------------
    def handle_shard_map(self, payload: bytes) -> bytes:
        """Serve one SHARD_MAP request (get or install)."""
        if not payload:
            return self.map.to_bytes()
        incoming = ShardMap.from_bytes(payload)
        if not self.map.same_cluster(incoming):
            raise ConfigurationError(
                "shard map install belongs to a different cluster "
                "(n_shards/router spec mismatch)")
        if incoming.epoch < self.map.epoch:
            raise StaleShardMapError(
                "refusing shard map epoch %d: node %s already at epoch %d"
                % (incoming.epoch, self.self_endpoint, self.map.epoch))
        if incoming.epoch == self.map.epoch:
            if incoming == self.map:
                return self.map.to_bytes()  # idempotent re-publish
            raise StaleShardMapError(
                "conflicting shard map at epoch %d: ownership differs "
                "from the installed map (split-brain publish?)"
                % incoming.epoch)
        self.map = incoming
        self._owned_mask = self._mask_for(incoming)
        self.counters["maps_installed"] += 1
        self._m_maps_installed.inc()
        return incoming.to_bytes()

    # ------------------------------------------------------------------
    # MIGRATE
    # ------------------------------------------------------------------
    def handle_migrate(self, payload: bytes) -> bytes:
        """Serve one MIGRATE request (either side of a shard move)."""
        action, shard_id, body = protocol.MIGRATE.decode(payload)
        service = self._service
        store = service.target
        if not 0 <= shard_id < store.n_shards:
            raise ConfigurationError(
                "shard_id %d out of range for %d shards"
                % (shard_id, store.n_shards))

        if action == protocol.MIGRATE_BEGIN:
            if not self._owned_mask[shard_id]:
                raise WrongOwnerError(
                    "node %s cannot source a migration of shard %d it "
                    "does not own (map epoch %d)"
                    % (self.self_endpoint, shard_id, self.map.epoch))
            if shard_id in self._journals:
                raise ConfigurationError(
                    "shard %d is already migrating off this node"
                    % shard_id)
            # Journal-on and snapshot happen in one synchronous stretch
            # on the event loop: no write can land between them, so the
            # blob plus the journal is exactly the shard's write
            # history — the exactness anchor of the whole protocol.
            blob = persistence.dumps(store.shards[shard_id])
            self._journals[shard_id] = []
            self.counters["migrations_begun"] += 1
            return blob

        if action == protocol.MIGRATE_DELTA:
            journal = self._require_journal(shard_id)
            service.flush_pending()
            drained, self._journals[shard_id] = journal, []
            return protocol.JOURNAL.pack(drained)

        if action == protocol.MIGRATE_KEYS:
            return protocol.IDEM_KEYS.pack(service.idempotency.entries())

        if action == protocol.MIGRATE_END:
            self._require_journal(shard_id)
            # Flush both directions before retiring the local copy:
            # queued writes drain into the journal we are about to hand
            # over, and queued reads (admitted pre-flip) answer from
            # the still-complete copy.
            service.flush_pending()
            drained = self._journals.pop(shard_id)
            shard = store.shards[shard_id]
            empty_like = getattr(shard, "empty_like", None)
            if empty_like is None:
                raise UnsupportedOperationError(
                    "shard %d (%s) cannot be retired: no empty_like"
                    % (shard_id, type(shard).__name__))
            store.replace_shard(shard_id, empty_like())
            self.counters["migrations_shipped"] += 1
            return protocol.JOURNAL.pack(drained)

        if action == protocol.MIGRATE_INSTALL_REPLACE:
            incoming = persistence.loads(body)
            store.replace_shard(shard_id, incoming)
            self.counters["shards_installed"] += 1
            return protocol.COUNT.pack(
                int(getattr(incoming, "n_items", 0)))

        if action == protocol.MIGRATE_INSTALL_MERGE:
            shard = store.shards[shard_id]
            installed = 0
            for elements, counts in protocol.JOURNAL.decode(body):
                if not elements:
                    continue
                routed = store.router.route_batch(elements)
                if (routed != shard_id).any():
                    raise ConfigurationError(
                        "catch-up batch for shard %d contains elements "
                        "routing elsewhere; refusing a corrupting "
                        "install" % shard_id)
                if counts is None:
                    shard.add_batch(elements)
                else:
                    shard.add_batch(elements, counts)
                installed += len(elements)
            self.counters["elements_caught_up"] += installed
            return protocol.COUNT.pack(
                int(getattr(shard, "n_items", 0)))

        if action == protocol.MIGRATE_INSTALL_KEYS:
            service.idempotency.install(protocol.IDEM_KEYS.decode(body))
            return protocol.COUNT.pack(len(service.idempotency))

        raise ConfigurationError(
            "unhandled MIGRATE action %d" % action)  # pragma: no cover

    def _require_journal(self, shard_id: int) -> List[_JournalEntry]:
        journal = self._journals.get(shard_id)
        if journal is None:
            raise ConfigurationError(
                "shard %d has no active migration journal on this node "
                "(MIGRATE_BEGIN first)" % shard_id)
        return journal

    # ------------------------------------------------------------------
    # Write journal (chained behind FilterService.on_write)
    # ------------------------------------------------------------------
    def _journal_write(self, elements: Sequence[bytes],
                       counts: Optional[Sequence[int]]) -> None:
        """Record the slice of a flushed write touching migrating shards."""
        if not self._journals or not elements:
            return
        routed = self._service.target.router.route_batch(elements)
        for shard_id, journal in self._journals.items():
            hits = np.flatnonzero(routed == shard_id)
            if not hits.size:
                continue
            chunk = [elements[i] for i in hits]
            chunk_counts = (None if counts is None
                            else [counts[i] for i in hits])
            journal.append((chunk, chunk_counts))

    # ------------------------------------------------------------------
    # Observability (merged into STATS)
    # ------------------------------------------------------------------
    def stats_dict(self) -> dict:
        """The ``cluster`` object served under STATS."""
        return {
            "self": self.self_endpoint,
            "epoch": self.map.epoch,
            "n_shards": self.map.n_shards,
            "owned_shards": list(self.owned_shards),
            "migrating_shards": sorted(self._journals),
            "journalled_batches": sum(
                len(j) for j in self._journals.values()),
            "counters": dict(self.counters),
        }
