"""The shard-map-aware cluster client.

:class:`ClusterClient` makes N nodes look like one filter service: a
batch is routed client-side with the map's own
:class:`~repro.store.router.ShardRouter` (one vectorised pass), split
into per-owner sub-batches via the router's grouping, fanned out
concurrently over pipelined per-node connections, and the answers are
scattered back into request order — coalescing, framing and pipelining
all reuse :class:`~repro.service.client.ServiceClient` per node.

Staleness is handled by contract, not by luck: a node refuses any batch
touching shards it does not own (:class:`~repro.errors.
WrongOwnerError`), so a client holding a predecessor map can never be
silently served wrong verdicts.  On that error the client refreshes its
map (highest epoch any reachable node publishes), **re-splits the
refused sub-batch** under the new ownership — after a migration the
sub-batch may now span several owners — and retries with seeded
backoff, bounding the client-visible stall of an ownership flip to the
flip window itself.

Writes go through ADD_IDEM with a per-client ``(client_id, write_id)``
key per sub-batch.  A WRONG_OWNER refusal happens *before* application,
so the re-dispatched sub-batch takes fresh keys; the keys exist to make
user-level retries after lost responses safe, and they survive
migration because the coordinator ships the source's dedup window to
the target before the flip.
"""

from __future__ import annotations

import asyncio
import itertools
import random
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro._util import ElementLike, to_bytes_batch
from repro.cluster.shardmap import ShardMap
from repro.core.association_types import AssociationAnswer
from repro.errors import WrongOwnerError
from repro.obs import names as metric_names
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer, maybe_span
from repro.replication.failover import parse_endpoint
from repro.retry import BackoffPolicy
from repro.service.client import (
    DEFAULT_CONNECT_TIMEOUT,
    DEFAULT_OP_TIMEOUT,
    ServiceClient,
)

__all__ = ["ClusterClient"]

#: Distinct default client ids per process, so two default-constructed
#: clients never collide on ADD_IDEM keys.
_next_client_id = itertools.count(1)


class ClusterClient:
    """One logical connection to a whole shard-mapped cluster.

    Args:
        shard_map: the starting map (bootstrap file content or a
            node's SHARD_MAP answer); refreshed automatically on
            WRONG_OWNER.
        client_id: ADD_IDEM client identity; defaults to a
            process-unique counter value.
        connect_timeout / op_timeout: per-node connection bounds,
            passed through to every :class:`ServiceClient`.
        max_map_refreshes: retry budget per sub-batch across ownership
            flips (each retry refreshes the map first).
        backoff: delay policy between those retries.
        seed: seeds the backoff jitter for replayable retry timing.
        metrics: a :class:`~repro.obs.MetricsRegistry` to count requests,
            retries and map refreshes in (``None`` = don't measure; the
            plain ``counters`` dict is always maintained).
        tracer: a :class:`~repro.obs.Tracer`; when set, every public
            call mints a trace id, stamps it into each sub-request's
            wire frames and emits ``client.request`` /
            ``client.sub_request`` spans, so the whole fan-out is
            reconstructable from span logs.
    """

    def __init__(
        self,
        shard_map: ShardMap,
        client_id: Optional[int] = None,
        connect_timeout: Optional[float] = DEFAULT_CONNECT_TIMEOUT,
        op_timeout: Optional[float] = DEFAULT_OP_TIMEOUT,
        max_map_refreshes: int = 8,
        backoff: Optional[BackoffPolicy] = None,
        seed: int = 0,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ):
        self._map = shard_map
        self._router = shard_map.make_router()
        self._client_id = (client_id if client_id is not None
                           else next(_next_client_id))
        self._connect_timeout = connect_timeout
        self._op_timeout = op_timeout
        self._max_map_refreshes = max_map_refreshes
        self._backoff = backoff if backoff is not None else BackoffPolicy(
            base=0.02, cap=0.5, max_attempts=max(1, max_map_refreshes))
        self._rng = random.Random(seed)
        self._conns: Dict[str, ServiceClient] = {}
        self._write_seq = itertools.count(1)
        self._refresh_lock = asyncio.Lock()
        self.counters = {
            "wrong_owner_retries": 0,
            "map_refreshes": 0,
            "sub_requests": 0,
        }
        registry = metrics if metrics is not None else MetricsRegistry(
            enabled=False)
        self.metrics = registry
        self.tracer = tracer
        self._m_reads = registry.counter(
            metric_names.CLIENT_REQUESTS, kind="read")
        self._m_writes = registry.counter(
            metric_names.CLIENT_REQUESTS, kind="write")
        self._m_subs = registry.counter(
            metric_names.CLIENT_REQUESTS, kind="sub_request")
        self._m_wrong_owner = registry.counter(
            metric_names.CLIENT_RETRIES, reason="wrong_owner")
        self._m_map_refreshes = registry.counter(
            metric_names.CLIENT_MAP_REFRESHES)

    # ------------------------------------------------------------------
    # Map and connections
    # ------------------------------------------------------------------
    @property
    def shard_map(self) -> ShardMap:
        """The map currently routing this client."""
        return self._map

    async def _conn(self, endpoint: str) -> ServiceClient:
        client = self._conns.get(endpoint)
        if client is not None:
            return client
        host, port = parse_endpoint(endpoint)
        client = await ServiceClient.connect(
            host, port, connect_timeout=self._connect_timeout,
            op_timeout=self._op_timeout)
        # Pipelined requests can race here; keep the first connection
        # and retire the duplicate instead of leaking its read loop.
        existing = self._conns.get(endpoint)
        if existing is not None:
            await client.close()
            return existing
        self._conns[endpoint] = client
        return client

    async def _drop_conn(self, endpoint: str) -> None:
        client = self._conns.pop(endpoint, None)
        if client is not None:
            await client.close()

    async def refresh_map(self) -> ShardMap:
        """Adopt the highest-epoch map any reachable node publishes.

        Serialised under a lock so concurrent sub-batches refused in the
        same flip trigger one fetch wave, not a stampede.
        """
        async with self._refresh_lock:
            best = self._map
            last_error: Optional[Exception] = None
            reached = 0
            for endpoint in self._map.nodes():
                try:
                    conn = await self._conn(endpoint)
                    fetched = ShardMap.from_bytes(await conn.shard_map())
                except Exception as exc:
                    last_error = exc
                    await self._drop_conn(endpoint)
                    continue
                reached += 1
                if (fetched.epoch > best.epoch
                        and best.same_cluster(fetched)):
                    best = fetched
            if not reached:
                raise last_error if last_error is not None else (
                    ConnectionError("no cluster node reachable"))
            self.counters["map_refreshes"] += 1
            self._m_map_refreshes.inc()
            self._map = best
            return best

    # ------------------------------------------------------------------
    # Telemetry helpers
    # ------------------------------------------------------------------
    def _new_trace(self) -> Optional[int]:
        """A trace id for one public call (``None`` when untraced)."""
        if self.tracer is None:
            return None
        return self.tracer.new_trace_id()

    # ------------------------------------------------------------------
    # Fan-out core
    # ------------------------------------------------------------------
    def _group_by_owner(
        self, pairs: Sequence[Tuple[int, bytes]],
    ) -> Dict[str, List[Tuple[int, bytes]]]:
        """Split ``(slot, element)`` pairs per owning endpoint."""
        routed = self._router.route_batch([e for _, e in pairs])
        groups: Dict[str, List[Tuple[int, bytes]]] = {}
        assignments = self._map.assignments
        for pair, shard_id in zip(pairs, routed):
            groups.setdefault(assignments[shard_id], []).append(pair)
        return groups

    async def _scatter(self, pairs, submit, out, attempt: int = 0,
                       trace_id: Optional[int] = None) -> None:
        """Fan ``pairs`` out per owner; re-split and retry on staleness.

        *submit(conn, elements, trace_id)* returns one result per
        element; results land in ``out`` at each pair's slot, so the
        caller reassembles request order for free.  A WRONG_OWNER
        refusal of a sub-batch refreshes the map and recurses on just
        that sub-batch — other owners' work is never repeated.
        """
        groups = self._group_by_owner(pairs)

        async def run(owner: str, group) -> None:
            self.counters["sub_requests"] += 1
            self._m_subs.inc()
            try:
                with maybe_span(self.tracer, "client.sub_request", trace_id,
                                owner=owner, n_elements=len(group),
                                attempt=attempt):
                    conn = await self._conn(owner)
                    results = await submit(
                        conn, [e for _, e in group], trace_id)
            except WrongOwnerError:
                if attempt >= self._max_map_refreshes:
                    raise
                self.counters["wrong_owner_retries"] += 1
                self._m_wrong_owner.inc()
                await asyncio.sleep(
                    self._backoff.delay(attempt, self._rng))
                await self.refresh_map()
                await self._scatter(group, submit, out, attempt + 1,
                                    trace_id)
                return
            for (slot, _), value in zip(group, results):
                out[slot] = value

        await asyncio.gather(
            *(run(owner, group) for owner, group in groups.items()))

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    async def query(self, elements: Sequence[ElementLike]) -> np.ndarray:
        """Batch verdicts across the fleet, in request order."""
        data = to_bytes_batch(elements)
        if not data:
            return np.zeros(0, dtype=bool)
        out: List[object] = [None] * len(data)

        async def submit(conn: ServiceClient, chunk, trace_id):
            return list(await conn.query(chunk, trace_id=trace_id))

        self._m_reads.inc()
        trace_id = self._new_trace()
        with maybe_span(self.tracer, "client.request", trace_id, kind="query",
                        n_elements=len(data)):
            await self._scatter(list(enumerate(data)), submit, out,
                                trace_id=trace_id)
        first = out[0]
        if isinstance(first, (bool, np.bool_)):
            return np.asarray(out, dtype=bool)
        return np.asarray(out, dtype=np.int64)

    async def query_multi(
        self, elements: Sequence[ElementLike],
    ) -> List[AssociationAnswer]:
        """ShBF_A association answers across the fleet, request order."""
        data = to_bytes_batch(elements)
        out: List[object] = [None] * len(data)

        async def submit(conn: ServiceClient, chunk, trace_id):
            return await conn.query_multi(chunk, trace_id=trace_id)

        self._m_reads.inc()
        trace_id = self._new_trace()
        with maybe_span(self.tracer, "client.request", trace_id,
                        kind="query_multi", n_elements=len(data)):
            await self._scatter(list(enumerate(data)), submit, out,
                                trace_id=trace_id)
        return out  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    async def add(self, elements: Sequence[ElementLike],
                  counts: Optional[Sequence[int]] = None) -> int:
        """Insert a batch across its owners; returns elements applied.

        Each per-owner sub-batch is one ADD_IDEM with its own write id.
        A WRONG_OWNER refusal re-splits under the refreshed map and
        retries with fresh keys — safe because refusal precedes
        application, always.
        """
        data = to_bytes_batch(elements)
        if not data:
            return 0
        count_by_slot = None if counts is None else dict(
            zip(range(len(data)), counts))
        applied: List[object] = [None] * len(data)
        self._m_writes.inc()
        trace_id = self._new_trace()
        # Writes need per-sub-batch idempotency keys and count slices,
        # so they use a dedicated scatter instead of `_scatter`.
        with maybe_span(self.tracer, "client.request", trace_id, kind="add",
                        n_elements=len(data)):
            await self._scatter_write(
                list(enumerate(data)), count_by_slot, applied, 0,
                trace_id)
        return sum(1 for v in applied if v is not None)

    async def _scatter_write(self, pairs, count_by_slot, applied,
                             attempt: int,
                             trace_id: Optional[int] = None) -> None:
        groups = self._group_by_owner(pairs)

        async def run(owner: str, group) -> None:
            self.counters["sub_requests"] += 1
            self._m_subs.inc()
            chunk = [e for _, e in group]
            chunk_counts = None if count_by_slot is None else [
                count_by_slot[slot] for slot, _ in group]
            write_id = next(self._write_seq)
            try:
                with maybe_span(self.tracer, "client.sub_request", trace_id,
                                owner=owner, n_elements=len(group),
                                attempt=attempt):
                    conn = await self._conn(owner)
                    await conn.add_idem(
                        self._client_id, write_id, chunk, chunk_counts,
                        trace_id=trace_id)
            except WrongOwnerError:
                if attempt >= self._max_map_refreshes:
                    raise
                self.counters["wrong_owner_retries"] += 1
                self._m_wrong_owner.inc()
                await asyncio.sleep(
                    self._backoff.delay(attempt, self._rng))
                await self.refresh_map()
                await self._scatter_write(
                    group, count_by_slot, applied, attempt + 1, trace_id)
                return
            for slot, _ in group:
                applied[slot] = True

        await asyncio.gather(
            *(run(owner, group) for owner, group in groups.items()))

    # ------------------------------------------------------------------
    # Observability and lifecycle
    # ------------------------------------------------------------------
    async def stats(self) -> Dict[str, dict]:
        """Per-node STATS, keyed by endpoint (unreachable nodes omitted)."""
        out: Dict[str, dict] = {}
        for endpoint in self._map.nodes():
            try:
                conn = await self._conn(endpoint)
                out[endpoint] = await conn.stats()
            except (ConnectionError, OSError):
                await self._drop_conn(endpoint)
        return out

    async def close(self) -> None:
        """Close every per-node connection."""
        conns, self._conns = list(self._conns.values()), {}
        await asyncio.gather(
            *(c.close() for c in conns), return_exceptions=True)

    async def __aenter__(self) -> "ClusterClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()
