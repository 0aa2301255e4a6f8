"""Primary-side replication: ship state to warm standbys.

:class:`ReplicatedFilterService` wraps a primary
:class:`~repro.service.FilterService` and keeps any number of standby
services warm over the wire protocol's replication ops:

* **attach** (:meth:`~ReplicatedFilterService.attach_standby`) sends a
  SUBSCRIBE frame carrying a full persistence snapshot, flipping
  the peer into the read-only standby role at the current epoch;
* **steady state** ships shard-wise DELTA frames: the write journal
  (fed by the service's ``on_write`` hook) is grouped per shard, each
  dirty shard's new writes are applied to an ``empty_like`` clone of
  the shard, and the standby unions the clone in via the store's
  ``merge_shard`` — bits *and* ``n_items`` land exactly as if the
  writes had happened there;
* **rotations and restores** are detected by object identity: a slot
  swapped by ``rotate_shard`` or a ring rotation ships as a
  replace-mode entry (its whole authoritative blob), a target swapped
  by RESTORE forces a full snapshot ship;
* **failures self-heal**: any send error marks the link
  ``needs_full``, and the next cycle reconnects and resyncs with a
  full snapshot rather than risking a gap.

Ship cadence is governed by :class:`ReplicationConfig`: a periodic
timer (``interval_ms``), an immediate wake-up once
``max_staleness_batches`` write batches have accumulated since the
last ship (the bounded staleness window the consistency tests assert),
and a forced full-snapshot resync every ``full_snapshot_every`` ships
as belt-and-braces against silent divergence.

Consistency contract: a standby's verdicts are bit-identical to the
primary's for every key acknowledged before the last shipped delta,
and after a quiesce (writes stopped, one final :meth:`ship`) the
standby's SNAPSHOT blob is **byte-identical** to the primary's.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro import persistence
from repro.errors import ConfigurationError
from repro.obs import names as metric_names
from repro.service import protocol
from repro.service.client import ServiceClient
from repro.service.server import FilterService
from repro.store.slots import SlotStore

__all__ = ["ReplicatedFilterService", "ReplicationConfig", "StandbyLink"]


@dataclass(frozen=True)
class ReplicationConfig:
    """Shipping cadence and staleness bounds for a primary.

    Attributes:
        interval_ms: periodic ship cadence in milliseconds; every tick
            ships pending writes (no-op when nothing changed).
        max_staleness_batches: once this many write batches have
            executed since the last ship, a ship is triggered
            immediately instead of waiting for the timer — the bound on
            how many acknowledged batches a standby can lag.
        full_snapshot_every: every Nth ship sends a full snapshot
            instead of shard deltas (0 disables forced full ships);
            a periodic self-healing resync.
    """

    interval_ms: int = 500
    max_staleness_batches: int = 64
    full_snapshot_every: int = 0

    def __post_init__(self) -> None:
        if self.interval_ms < 1:
            raise ConfigurationError(
                "interval_ms must be >= 1, got %d" % self.interval_ms)
        if self.max_staleness_batches < 1:
            raise ConfigurationError(
                "max_staleness_batches must be >= 1, got %d"
                % self.max_staleness_batches)
        if self.full_snapshot_every < 0:
            raise ConfigurationError(
                "full_snapshot_every must be >= 0, got %d"
                % self.full_snapshot_every)


@dataclass
class StandbyLink:
    """One attached standby: its connection and stream position."""

    host: str
    port: int
    client: Optional[ServiceClient] = None
    #: Last epoch this standby acknowledged.
    epoch_acked: int = 0
    #: Next contact must be a full snapshot (initial attach failure,
    #: send error, or a standby-reported epoch gap).
    needs_full: bool = False
    #: Write batches recorded since the last successful ship to this
    #: link, as ``(elements, counts)`` tuples in arrival order.
    pending: List[Tuple[Sequence[bytes], Optional[Sequence[int]]]] = field(
        default_factory=list)
    deltas_sent: int = 0
    full_snapshots_sent: int = 0
    bytes_sent: int = 0
    #: Version of the primary's idempotency window this standby last
    #: acknowledged (see ``ReplicatedFilterService._idem_version``).
    keys_version_acked: int = 0
    keys_sent: int = 0
    last_error: Optional[str] = None

    def stats_dict(self) -> dict:
        return {
            "endpoint": "%s:%d" % (self.host, self.port),
            "epoch_acked": self.epoch_acked,
            "needs_full": self.needs_full,
            "pending_batches": len(self.pending),
            "deltas_sent": self.deltas_sent,
            "full_snapshots_sent": self.full_snapshots_sent,
            "bytes_sent": self.bytes_sent,
            "keys_sent": self.keys_sent,
            "last_error": self.last_error,
        }


class ReplicatedFilterService:
    """A primary :class:`~repro.service.FilterService` plus its
    replication loop.

    Args:
        service: the primary service; its ``on_write`` hook and
            ``replication_extra`` STATS provider are claimed by this
            wrapper.
        config: shipping cadence and staleness bounds.

    Example::

        primary = FilterService(store)
        repl = ReplicatedFilterService(primary, ReplicationConfig(
            interval_ms=200, max_staleness_batches=32))
        server = await repl.start(port=4000)
        await repl.attach_standby("10.0.0.2", 4001)
        ...
        await repl.close()
    """

    def __init__(
        self,
        service: FilterService,
        config: Optional[ReplicationConfig] = None,
    ):
        self.service = service
        self.config = config if config is not None else ReplicationConfig()
        self._links: List[StandbyLink] = []
        self._epoch = 0
        self._ships = 0
        self._write_batches = 0
        self._shipped = self._identities(service.target)
        self._wakeup = asyncio.Event()
        self._ship_lock = asyncio.Lock()
        self._task: Optional[asyncio.Task] = None
        self.last_ship_error: Optional[str] = None
        #: Bumped on every newly applied ADD_IDEM; links whose
        #: ``keys_version_acked`` lags this version receive the current
        #: dedup window as a ``MODE_IDEM`` entry with their next shard
        #: delta, so retried writes stay exactly-once across failover.
        self._idem_version = 0
        service.on_write = self._on_write
        service.on_idempotent = self._on_idempotent
        service.replication_extra = self._extra_stats
        # Replication telemetry lands in the wrapped service's registry,
        # so one METRICS scrape of the primary covers its links too.
        registry = service.metrics
        self._m_ships_full = registry.counter(
            metric_names.REPLICATION_SHIPS, kind="full")
        self._m_ships_shards = registry.counter(
            metric_names.REPLICATION_SHIPS, kind="shards")

    def _register_link_metrics(self, link: StandbyLink) -> None:
        """Lag gauge + bytes counter for one standby endpoint.

        The lag gauge is scrape-time evaluated (shipped epoch minus the
        link's acknowledged epoch), so it can never go stale; a detached
        link's gauge freezes at its last reading.
        """
        endpoint = "%s:%d" % (link.host, link.port)
        self.service.metrics.gauge(
            metric_names.REPLICATION_LAG, standby=endpoint,
        ).set_fn(lambda: self._epoch - link.epoch_acked)

    def _m_bytes(self, link: StandbyLink):
        return self.service.metrics.counter(
            metric_names.REPLICATION_BYTES,
            standby="%s:%d" % (link.host, link.port))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        """The last shipped replication epoch."""
        return self._epoch

    @property
    def standbys(self) -> Tuple[StandbyLink, ...]:
        """The attached standby links."""
        return tuple(self._links)

    def _extra_stats(self) -> dict:
        return {
            # The primary's ReplicaState.epoch never advances (it
            # applies no deltas); STATS must report the *shipped*
            # epoch or the standby-vs-primary staleness probe would
            # compare against a constant 0.
            "epoch": self._epoch,
            "ships": self._ships,
            "pending_write_batches": self._write_batches,
            "last_ship_error": self.last_ship_error,
            "standbys": [link.stats_dict() for link in self._links],
        }

    # ------------------------------------------------------------------
    # Write journal (service hook)
    # ------------------------------------------------------------------
    def _on_write(
        self,
        elements: Sequence[bytes],
        counts: Optional[Sequence[int]],
    ) -> None:
        """Journal one executed write batch for the next delta ship."""
        if not self._links:
            return
        self._write_batches += 1
        record = (list(elements),
                  None if counts is None else list(counts))
        for link in self._links:
            link.pending.append(record)
        if self._write_batches >= self.config.max_staleness_batches:
            self._wakeup.set()

    def _on_idempotent(self, client_id: int, write_id: int,
                       result: int) -> None:
        """Mark the dedup window dirty after a newly applied ADD_IDEM."""
        if self._links:
            self._idem_version += 1

    # ------------------------------------------------------------------
    # Snapshot / delta construction
    # ------------------------------------------------------------------
    def _snapshot_blob(self) -> bytes:
        return persistence.dumps(self.service.target)

    @staticmethod
    def _identities(target) -> tuple:
        """``(target, slot filters or None)`` as of a ship.

        The objects themselves are held, not their ``id()``: a retired
        filter kept alive until the next ship cannot hand its address
        to a fresh one, so a swap is never mistaken for no change.
        """
        return target, (target.shards if isinstance(target, SlotStore)
                        else None)

    def _swapped_slots(self, target) -> set:
        """Slots whose filter object changed since the last ship."""
        shipped_target, shipped = self._shipped
        if target is not shipped_target or shipped is None:
            return set()
        return {slot for slot, (now, then)
                in enumerate(zip(target.shards, shipped)) if now is not then}

    @staticmethod
    def _build_entries(
        store: SlotStore,
        pending: Sequence[Tuple[Sequence[bytes], Optional[Sequence[int]]]],
        swapped: set,
    ) -> List[Tuple[int, int, bytes]]:
        """Slot-delta entries for one link's journalled writes.

        The store's :meth:`~repro.store.slots.SlotStore.write_slots`
        says which slot each journalled write landed in.  Each slot
        written or swapped since the last ship becomes either a
        merge-mode entry — its new writes applied to an ``empty_like``
        clone, unioned in on the standby — or a replace-mode entry
        carrying the slot's whole authoritative blob when a merge
        cannot be exact: the slot was swapped (a ``rotate_shard``, or a
        ring rotation, which shifts every slot), its writes carry
        per-element counts (multiplicity filters have no union), or it
        exposes no ``empty_like``.  An untouched slot ships nothing.
        """
        buckets: dict = {}
        for elements, counts in pending:
            for slot, idx in store.write_slots(elements):
                buckets.setdefault(int(slot), []).append((
                    [elements[i] for i in idx],
                    None if counts is None else [counts[i] for i in idx]))
        entries: List[Tuple[int, int, bytes]] = []
        for slot in sorted(set(buckets) | swapped):
            filt = store.shards[slot]
            groups = buckets.get(slot, ())
            if (slot in swapped or not hasattr(filt, "empty_like")
                    or any(c is not None for _, c in groups)):
                entries.append((slot, protocol.MODE_REPLACE,
                                persistence.dumps(filt)))
                continue
            delta = filt.empty_like()
            for chunk, _ in groups:
                delta.add_batch(chunk)
            entries.append((slot, protocol.MODE_MERGE,
                            persistence.dumps(delta)))
        return entries

    # ------------------------------------------------------------------
    # Standby management
    # ------------------------------------------------------------------
    async def attach_standby(self, host: str, port: int) -> StandbyLink:
        """Connect a standby and bring it current with a full snapshot.

        The link starts journalling writes *before* the snapshot is
        taken — both happen in one synchronous stretch, so no write can
        fall between them: everything up to the snapshot is in the
        blob, everything after is in the journal.  Raises
        :class:`~repro.errors.UnsupportedSnapshotError` for targets
        that cannot snapshot (counting variants), leaving no link
        behind.
        """
        client = await ServiceClient.connect(host, port)
        link = StandbyLink(host=host, port=port, client=client)
        self._links.append(link)
        try:
            blob = self._snapshot_blob()
            await client.subscribe(self._epoch, blob)
        except BaseException:
            self._links.remove(link)
            await client.close()
            raise
        link.epoch_acked = self._epoch
        link.full_snapshots_sent += 1
        link.bytes_sent += len(blob)
        self._register_link_metrics(link)
        self._m_ships_full.inc()
        self._m_bytes(link).inc(len(blob))
        return link

    async def detach_standby(self, link: StandbyLink) -> None:
        """Drop a standby link and close its connection."""
        if link in self._links:
            self._links.remove(link)
        if link.client is not None:
            await link.client.close()
            link.client = None

    # ------------------------------------------------------------------
    # Shipping
    # ------------------------------------------------------------------
    def _dirty(self) -> bool:
        target = self.service.target
        shipped_target, slots = self._shipped
        if target is not shipped_target or self._swapped_slots(target):
            return True
        if (slots is not None
                and self._idem_version
                and any(link.keys_version_acked != self._idem_version
                        for link in self._links)):
            return True
        return any(link.pending or link.needs_full
                   for link in self._links)

    async def ship(self, force_full: bool = False) -> dict:
        """Run one replication round now; returns a summary dict.

        No-ops (without consuming an epoch) when nothing changed since
        the last round and no standby needs attention.  Otherwise every
        link receives this round's epoch — as shard deltas, or as a
        full snapshot when forced, periodic, first-contact or
        recovering from an earlier failure.

        Rounds are serialised: a manual ``ship()`` (e.g. a quiesce)
        overlapping a timer-driven one would otherwise put two epochs
        in flight on the same pipelined connection, where out-of-order
        delivery reads as an epoch gap and forces a pointless resync.
        """
        async with self._ship_lock:
            return await self._ship_locked(force_full)

    async def _ship_locked(self, force_full: bool) -> dict:
        self._write_batches = 0
        if not self._links:
            # Nobody to miss a swap: stop holding retired filters.
            self._shipped = self._identities(self.service.target)
        if not self._links or (not force_full and not self._dirty()):
            return {"epoch": self._epoch, "shipped": 0}
        target = self.service.target
        prior = (self._shipped, self._ships, self._epoch)
        swapped = self._swapped_slots(target)
        target_changed = target is not self._shipped[0]
        self._shipped = self._identities(target)
        self._ships += 1
        self._epoch += 1
        epoch = self._epoch
        full_due = bool(
            force_full or target_changed
            or not isinstance(target, SlotStore)
            or (self.config.full_snapshot_every
                and self._ships % self.config.full_snapshot_every == 0))
        # Build every link's payload before the first send so a failure
        # (e.g. an unsnapshotable shard) leaves no coroutine un-awaited
        # and no journal half-consumed: on error, everything taken is
        # put back and the round is rolled back as if never attempted.
        full_blob: Optional[bytes] = None
        plans = []  # (link, entries, full_blob, keys_version, keys_count)
        taken = []
        # Journalled records are shared objects appended to every link,
        # so links that saw the same write stream get the same pending
        # list — build (and serialise) those entries once, not once per
        # standby.
        memo_key: Optional[List[int]] = None
        memo_entries = None
        idem_version = self._idem_version
        idem_window: Optional[List[Tuple[int, int, int]]] = None
        idem_blob: Optional[bytes] = None
        try:
            for link in list(self._links):
                pending, link.pending = link.pending, []
                taken.append((link, pending))
                if full_due or link.needs_full or link.client is None:
                    if full_blob is None:
                        full_blob = self._snapshot_blob()
                    plans.append((link, None, full_blob, None, 0))
                else:
                    key = [id(record) for record in pending]
                    if key != memo_key:
                        memo_key = key
                        memo_entries = self._build_entries(
                            target, pending, swapped)
                    link_entries = memo_entries
                    keys_version = None
                    keys_count = 0
                    if (idem_version
                            and link.keys_version_acked != idem_version):
                        if idem_blob is None:
                            idem_window = (
                                self.service.idempotency.entries())
                            idem_blob = protocol.IDEM_KEYS.pack(idem_window)
                        keys_version = idem_version
                        if idem_window:
                            keys_count = len(idem_window)
                            link_entries = list(memo_entries) + [
                                (0, protocol.MODE_IDEM, idem_blob)]
                    plans.append((link, link_entries, None,
                                  keys_version, keys_count))
        except BaseException:
            for link, pending in taken:
                link.pending = pending + link.pending
            self._shipped, self._ships, self._epoch = prior
            raise
        results = await asyncio.gather(
            *(self._send(link, epoch, entries=entries, full_blob=blob,
                         keys_version=kv, keys_count=kc)
              for link, entries, blob, kv, kc in plans))
        shipped = sum(1 for ok in results if ok)
        return {"epoch": epoch, "shipped": shipped,
                "standbys": len(results)}

    async def _send(
        self,
        link: StandbyLink,
        epoch: int,
        entries: Optional[List[Tuple[int, int, bytes]]] = None,
        full_blob: Optional[bytes] = None,
        keys_version: Optional[int] = None,
        keys_count: int = 0,
    ) -> bool:
        """Deliver one delta to one standby; never raises.

        Any failure — transport death, an epoch gap the standby
        refuses, a dead connection that cannot be re-established —
        marks the link ``needs_full`` so the next round resyncs it from
        scratch.
        """
        try:
            if link.client is None:
                link.client = await ServiceClient.connect(
                    link.host, link.port)
            if full_blob is not None:
                await link.client.subscribe(epoch, full_blob)
                link.full_snapshots_sent += 1
                link.bytes_sent += len(full_blob)
                self._m_ships_full.inc()
                self._m_bytes(link).inc(len(full_blob))
            else:
                await link.client.delta(epoch, entries=entries)
                link.deltas_sent += 1
                sent = sum(len(blob) for _, _, blob in entries)
                link.bytes_sent += sent
                self._m_ships_shards.inc()
                self._m_bytes(link).inc(sent)
        except Exception as exc:  # noqa: BLE001 - recorded, self-heals
            link.needs_full = True
            link.last_error = "%s: %s" % (type(exc).__name__, exc)
            if link.client is not None:
                client, link.client = link.client, None
                try:
                    await client.close()
                except Exception:  # pragma: no cover - best effort
                    pass
            return False
        link.epoch_acked = epoch
        link.needs_full = False
        link.last_error = None
        if keys_version is not None:
            link.keys_version_acked = keys_version
            link.keys_sent += keys_count
        return True

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self, host: str = "127.0.0.1",
                    port: int = 0) -> asyncio.AbstractServer:
        """Start the wrapped service and the background shipping loop."""
        server = await self.service.start(host, port)
        self._task = asyncio.ensure_future(self._run())
        return server

    async def _run(self) -> None:
        interval = self.config.interval_ms / 1e3
        while True:
            try:
                await asyncio.wait_for(self._wakeup.wait(),
                                       timeout=interval)
            except asyncio.TimeoutError:
                pass
            self._wakeup.clear()
            try:
                await self.ship()
                self.last_ship_error = None
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # noqa: BLE001 - keep shipping
                # E.g. an UnsupportedSnapshotError after a counting
                # filter was rotated in: surfaced via STATS rather than
                # silently killing the loop.
                self.last_ship_error = "%s: %s" % (
                    type(exc).__name__, exc)

    async def close(self) -> None:
        """Stop the shipping loop and close every standby link."""
        if self._task is not None:
            self._task.cancel()
            await asyncio.gather(self._task, return_exceptions=True)
            self._task = None
        for link in list(self._links):
            await self.detach_standby(link)
