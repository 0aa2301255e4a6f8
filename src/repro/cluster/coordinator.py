"""The reshard coordinator: drives a live shard move, then flips epochs.

A migration is a conversation between exactly three parties — the
source node, the target node, and this coordinator — built entirely
from primitives the fleet already has: SHBF persistence blobs
(``snapshot``/``replace_shard``), the replication write journal, and
the idempotency dedup window.  The order of operations is what makes it
exact and quiesce-free:

1. ``MIGRATE BEGIN`` on the source: journal on + shard blob, atomically
   (one event-loop tick, so blob + journal = the complete write
   history of the shard from here on).
2. ``MIGRATE INSTALL_REPLACE`` on the target: the blob becomes the
   target's copy.  Unowned, so no client can read it yet.
3. Catch-up loop: ``DELTA`` drains the source journal, ``INSTALL_MERGE``
   replays it element-for-element through ``add_batch`` on the target.
   Repeats until a drain comes back empty or the round budget is spent
   (under a heavy write stream the tail is finished in step 6).
4. **Flip the source**: install the successor map (``epoch + 1``,
   shard owned by the target) on the *source only*.  The stall window
   opens — the source now refuses the shard's traffic with
   WRONG_OWNER, and no new writes can enter its journal.
5. ``KEYS`` → ``INSTALL_KEYS``: ship the source's idempotency window.
   Taken inside the stall, it is complete — a client retrying a write
   that was applied pre-flip will be deduplicated by the target.
6. ``MIGRATE END`` on the source: final flush + residual journal +
   retire the local copy.  ``INSTALL_MERGE`` the residual on the
   target.  The target's copy is now bit-identical to what a single
   node would hold.
7. **Flip the target**: install the successor map on the target.  The
   stall window closes — the shard is served again, by its new owner.
8. Broadcast the successor map to every remaining node.

Clients never pause: a WRONG_OWNER during the window (steps 4-7) makes
them refresh and retry, so the client-visible stall is bounded by the
window itself — which contains only the residual drain, sized by the
coalescer flush, not by the shard.  The migration drill
(:mod:`repro.cluster.drill`) measures exactly that bound.
"""

from __future__ import annotations

import asyncio
import time
from typing import Dict, List, Optional, Tuple

from repro.cluster.shardmap import ShardMap
from repro.errors import ClusterError, ConfigurationError
from repro.obs import names as metric_names
from repro.obs.metrics import MetricsRegistry
from repro.replication.failover import parse_endpoint
from repro.service import protocol
from repro.service.client import (
    DEFAULT_CONNECT_TIMEOUT,
    DEFAULT_OP_TIMEOUT,
    ServiceClient,
)

__all__ = [
    "cluster_status",
    "fetch_live_map",
    "install_map",
    "migrate_shard",
]

#: Catch-up rounds before proceeding to the flip regardless; the
#: residual journal is drained inside the stall window either way, so
#: this bounds pre-flip copying, not correctness.
DEFAULT_CATCHUP_ROUNDS = 8


async def _connect(endpoint: str, connect_timeout: Optional[float],
                   op_timeout: Optional[float]) -> ServiceClient:
    host, port = parse_endpoint(endpoint)
    return await ServiceClient.connect(
        host, port, connect_timeout=connect_timeout,
        op_timeout=op_timeout)


def _batch_elements(blob: bytes) -> int:
    """Total elements in an encoded element-batches payload."""
    return sum(len(elements)
               for elements, _ in protocol.JOURNAL.decode(blob))


async def fetch_live_map(
    shard_map: ShardMap,
    connect_timeout: Optional[float] = DEFAULT_CONNECT_TIMEOUT,
    op_timeout: Optional[float] = DEFAULT_OP_TIMEOUT,
) -> ShardMap:
    """The highest-epoch map the fleet currently holds.

    A bootstrap file goes stale the moment anyone reshards; operator
    commands poll every node named by the (possibly stale) starting map
    and adopt the newest epoch before acting, so a coordinator never
    publishes a conflicting same-epoch successor (which nodes would —
    rightly — refuse as split-brain).
    """
    best = shard_map
    last_error: Optional[Exception] = None
    reached = 0
    for endpoint in shard_map.nodes():
        try:
            conn = await _connect(endpoint, connect_timeout, op_timeout)
            try:
                fetched = ShardMap.from_bytes(await conn.shard_map())
            finally:
                await conn.close()
        except Exception as exc:
            last_error = exc
            continue
        reached += 1
        if best.same_cluster(fetched) and fetched.epoch > best.epoch:
            best = fetched
    if not reached:
        raise ClusterError(
            "no node of the %d-shard map reachable (last: %s)"
            % (shard_map.n_shards, last_error)) from last_error
    return best


async def migrate_shard(
    shard_map: ShardMap,
    shard_id: int,
    target: str,
    connect_timeout: Optional[float] = DEFAULT_CONNECT_TIMEOUT,
    op_timeout: Optional[float] = DEFAULT_OP_TIMEOUT,
    catchup_rounds: int = DEFAULT_CATCHUP_ROUNDS,
    metrics: Optional[MetricsRegistry] = None,
) -> Tuple[ShardMap, dict]:
    """Move *shard_id* to *target* live; returns (successor map, report).

    The caller supplies the current map (from a bootstrap file or any
    node's SHARD_MAP answer); the successor — epoch + 1, the shard
    owned by *target* — is installed fleet-wide before returning.  The
    report records per-phase element counts and the measured ownership
    flip window.  With *metrics*, the flip window lands in the
    ``repro_migration_stall_seconds`` histogram and the completed move
    bumps ``repro_migration_moves_total``.
    """
    parse_endpoint(target)
    source = shard_map.owner(shard_id)
    if source == target:
        raise ConfigurationError(
            "shard %d already lives on %s; nothing to migrate"
            % (shard_id, target))
    if catchup_rounds < 1:
        raise ConfigurationError(
            "catchup_rounds must be >= 1, got %r" % (catchup_rounds,))

    src = await _connect(source, connect_timeout, op_timeout)
    dst = await _connect(target, connect_timeout, op_timeout)
    try:
        started = time.monotonic()
        # 1-2: snapshot + journal on, blob installed on the target.
        blob = await src.migrate(protocol.MIGRATE_BEGIN, shard_id)
        await dst.migrate(
            protocol.MIGRATE_INSTALL_REPLACE, shard_id, blob)

        # 3: catch-up until a drain is empty (or the budget is spent).
        rounds = 0
        caught_up = 0
        while rounds < catchup_rounds:
            rounds += 1
            delta = await src.migrate(protocol.MIGRATE_DELTA, shard_id)
            moved = _batch_elements(delta)
            if not moved:
                break
            caught_up += moved
            await dst.migrate(
                protocol.MIGRATE_INSTALL_MERGE, shard_id, delta)

        successor = shard_map.move([shard_id], target)

        # 4: flip the source — the stall window opens here.
        flip_open = time.monotonic()
        await src.shard_map(successor.to_bytes())

        # 5: the dedup window, complete now that the source refuses.
        keys = await src.migrate(protocol.MIGRATE_KEYS, shard_id)
        await dst.migrate(
            protocol.MIGRATE_INSTALL_KEYS, shard_id, keys)

        # 6: final residual, then the source's copy is retired.
        residual = await src.migrate(protocol.MIGRATE_END, shard_id)
        residual_n = _batch_elements(residual)
        await dst.migrate(
            protocol.MIGRATE_INSTALL_MERGE, shard_id, residual)

        # 7: flip the target — the stall window closes here.
        await dst.shard_map(successor.to_bytes())
        flip_closed = time.monotonic()

        # 8: everyone else.
        await install_map(
            successor,
            endpoints=[e for e in successor.nodes()
                       if e not in (source, target)],
            connect_timeout=connect_timeout, op_timeout=op_timeout)

        if metrics is not None:
            metrics.histogram(metric_names.MIGRATION_STALL).observe(
                flip_closed - flip_open)
            metrics.counter(metric_names.MIGRATION_MOVES).inc()
        report = {
            "shard_id": shard_id,
            "source": source,
            "target": target,
            "from_epoch": shard_map.epoch,
            "to_epoch": successor.epoch,
            "snapshot_bytes": len(blob),
            "catchup_rounds": rounds,
            "catchup_elements": caught_up,
            "residual_elements": residual_n,
            "flip_window_s": flip_closed - flip_open,
            "total_s": flip_closed - started,
        }
        return successor, report
    finally:
        await asyncio.gather(
            src.close(), dst.close(), return_exceptions=True)


async def install_map(
    shard_map: ShardMap,
    endpoints: Optional[List[str]] = None,
    connect_timeout: Optional[float] = DEFAULT_CONNECT_TIMEOUT,
    op_timeout: Optional[float] = DEFAULT_OP_TIMEOUT,
) -> Dict[str, int]:
    """Install *shard_map* on nodes; returns each node's epoch after.

    Defaults to every owning node.  Nodes already at the epoch ack
    idempotently, so re-publishing after a partial broadcast is safe.
    """
    targets = list(endpoints) if endpoints is not None else (
        list(shard_map.nodes()))
    epochs: Dict[str, int] = {}
    for endpoint in targets:
        conn = await _connect(endpoint, connect_timeout, op_timeout)
        try:
            answer = await conn.shard_map(shard_map.to_bytes())
            epochs[endpoint] = ShardMap.from_bytes(answer).epoch
        finally:
            await conn.close()
    return epochs


async def cluster_status(
    shard_map: ShardMap,
    connect_timeout: Optional[float] = DEFAULT_CONNECT_TIMEOUT,
    op_timeout: Optional[float] = DEFAULT_OP_TIMEOUT,
) -> Dict[str, dict]:
    """Per-node STATS keyed by endpoint; unreachable nodes get an error.

    The ``cluster`` object inside each answer carries epoch, owned
    shards and migration counters — the operator's one-look health
    view, surfaced by ``python -m repro.cluster status``.
    """
    out: Dict[str, dict] = {}
    for endpoint in shard_map.nodes():
        try:
            conn = await _connect(endpoint, connect_timeout, op_timeout)
        except Exception as exc:
            out[endpoint] = {"error": str(exc)}
            continue
        try:
            out[endpoint] = await conn.stats()
        except Exception as exc:
            out[endpoint] = {"error": str(exc)}
        finally:
            await conn.close()
    return out
