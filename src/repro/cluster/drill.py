"""The migration drill: a live reshard proven exact under load.

The headline drill of the cluster layer, a scenario of the drill
harness (:mod:`repro.workloads.drill`).  A seeded drill boots a
cluster (in-process nodes on ephemeral ports, or external processes via
``endpoints``), drives a continuous read+write stream through a
:class:`~repro.cluster.client.ClusterClient`, migrates a hot shard
*while the stream runs*, and replays every acknowledged write into the
harness's oracle: a single-node store built from the same
:class:`~repro.store.StoreSpec` as the nodes — the map's shard count,
router and family, and the filter geometry one node's SNAPSHOT header
declares.  Because cluster and oracle hash identically, every verdict —
false positives included — must match **bit for bit**; any divergence
is a real protocol bug, not noise.

These invariants must hold for ``report["ok"]`` (the report's
``contract`` lists them check by check):

* ``zero_wrong_verdicts`` — every read during the drill and a full
  post-drill sweep over the whole universe agree with the oracle;
* ``zero_lost_or_duplicate_writes`` — after the move, the summed
  ``n_items`` across the fleet equals the oracle's exactly (a lost
  delta batch shows up low, a double-applied one high);
* ``bounded_stall`` — no operation overlapping the migration window
  took longer than the stall budget: the ownership flip may slow
  clients (WRONG_OWNER → refresh → retry), never park them;
* ``epoch_advanced`` — every node ends past the starting epoch.

Run it from the CLI as ``python -m repro.cluster drill`` (in-process)
or ``--external`` against live nodes; CI's ``cluster-smoke`` job runs
the cross-process variant.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import persistence
from repro.cluster.client import ClusterClient
from repro.cluster.coordinator import fetch_live_map, migrate_shard
from repro.cluster.node import ClusterState
from repro.cluster.shardmap import ShardMap, bootstrap_map
from repro.errors import ConfigurationError
from repro.hashing.family import SERVING_FAMILY
from repro.obs import names as metric_names
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer
from repro.replication.failover import parse_endpoint
from repro.service.client import ServiceClient
from repro.service.server import CoalescerConfig, FilterService
from repro.store.router import DEFAULT_ROUTER_SEED
from repro.store.spec import StoreSpec
from repro.workloads.drill import Contract, Op, Oracle, drive
from repro.workloads.service import build_service_workload, chop_requests

__all__ = [
    "ClusterDrillConfig",
    "LocalCluster",
    "run_cluster_drill",
    "run_cluster_drill_async",
    "start_local_cluster",
]


@dataclass(frozen=True)
class ClusterDrillConfig:
    """Everything a drill run depends on, seeded and explicit.

    Attributes:
        n_nodes / n_shards / m / k / family: the in-process cluster's
            shape, per-shard ShBF_M geometry and hash family (router and
            probe side).  Ignored when external ``endpoints`` are given:
            the reference store then takes them from the live fleet.
        n_members: catalog size; half is preloaded, half written live.
        n_ops: request batches driven during the drill.
        per_request: elements per batch.
        write_fraction: probability an op is a write while unwritten
            catalog remains.
        migrate_after_ops: ops completed before the migration launches.
        stall_budget_s: bound on any op latency overlapping the window.
        seed: seeds the workload, the op schedule and retry jitter.
        endpoints: when set, drill these live nodes (cross-process
            mode) instead of booting an in-process cluster.
    """

    n_nodes: int = 3
    n_shards: int = 8
    m: int = 1 << 15
    k: int = 4
    family: str = SERVING_FAMILY
    router_seed: int = DEFAULT_ROUTER_SEED
    n_members: int = 3000
    n_ops: int = 80
    per_request: int = 64
    write_fraction: float = 0.35
    migrate_after_ops: int = 20
    stall_budget_s: float = 5.0
    seed: int = 0
    endpoints: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if self.endpoints is None and self.n_nodes < 2:
            raise ConfigurationError(
                "a migration drill needs >= 2 nodes, got %d"
                % self.n_nodes)
        if not 0.0 <= self.write_fraction <= 1.0:
            raise ConfigurationError(
                "write_fraction must be in [0, 1], got %r"
                % (self.write_fraction,))
        if self.stall_budget_s <= 0:
            raise ConfigurationError(
                "stall_budget_s must be > 0, got %r"
                % (self.stall_budget_s,))


@dataclass
class LocalCluster:
    """An in-process cluster: N services, their servers, and the map."""

    shard_map: ShardMap
    services: List[FilterService]
    servers: List[asyncio.AbstractServer]
    states: List[ClusterState] = field(default_factory=list)

    @property
    def endpoints(self) -> Tuple[str, ...]:
        return self.shard_map.nodes()

    async def close(self) -> None:
        for server, service in zip(self.servers, self.services):
            await service.kill(server)


async def start_local_cluster(
    config: ClusterDrillConfig,
    coalescer: Optional[CoalescerConfig] = None,
    trace_sink=None,
) -> LocalCluster:
    """Boot ``config.n_nodes`` services on ephemeral localhost ports.

    Every node hosts a full-width store (unowned shards empty) and gets
    a :class:`ClusterState` attached; the returned map is the epoch-1
    bootstrap over the actual bound ports.  With *trace_sink* (any
    :class:`~repro.obs.Tracer` sink) every node emits span records
    there, components named by endpoint.
    """
    # Ports are unknown until bind, so boot first, then map, then
    # attach cluster state (services refuse nothing until attached).
    services: List[FilterService] = []
    servers: List[asyncio.AbstractServer] = []
    endpoints: List[str] = []
    prototype = bootstrap_map(
        config.n_shards, ["127.0.0.1:1"],
        router_seed=config.router_seed, router_family=config.family)
    spec = StoreSpec(shards=config.n_shards, m=config.m, k=config.k,
                     family=config.family)
    for _ in range(config.n_nodes):
        store = spec.build(router=prototype.make_router())
        service = FilterService(target=store, config=coalescer)
        server = await service.start("127.0.0.1", 0)
        services.append(service)
        servers.append(server)
        endpoint = "127.0.0.1:%d" % server.sockets[0].getsockname()[1]
        endpoints.append(endpoint)
        if trace_sink is not None:
            # The component name needs the bound port, so the tracer is
            # attached after start; the service reads it per request.
            service.tracer = Tracer(
                component="node:%s" % endpoint, sink=trace_sink)
    shard_map = bootstrap_map(
        config.n_shards, endpoints,
        router_seed=config.router_seed, router_family=config.family)
    states = [
        ClusterState(shard_map, endpoint).attach(service)
        for endpoint, service in zip(endpoints, services)
    ]
    return LocalCluster(shard_map=shard_map, services=services,
                        servers=servers, states=states)


async def _fetch_map(endpoints: Sequence[str]) -> ShardMap:
    """The live map from external nodes (newest epoch wins)."""
    last_error: Optional[Exception] = None
    for endpoint in endpoints:
        host, port = parse_endpoint(endpoint)
        try:
            conn = await ServiceClient.connect(host, port)
            try:
                fetched = ShardMap.from_bytes(await conn.shard_map())
            finally:
                await conn.close()
        except Exception as exc:
            last_error = exc
            continue
        # The first answer names the fleet; poll the rest for a newer
        # epoch so a drill after a reshard starts current.
        return await fetch_live_map(fetched)
    raise last_error if last_error is not None else ConfigurationError(
        "no external endpoints given")


async def _fleet_spec(shard_map: ShardMap) -> StoreSpec:
    """The spec the nodes were built from: shard count and family from
    the map, ``m`` and ``k`` from the first node's SNAPSHOT header.

    Raises:
        ConfigurationError: when no spec rebuilds that node's filters
            (another ``w_bar``, say), so no reference could agree.
    """
    host, port = parse_endpoint(shard_map.nodes()[0])
    conn = await ServiceClient.connect(host, port)
    try:
        node = persistence.load_target(await conn.snapshot()).shards[0]
    finally:
        await conn.close()
    spec = StoreSpec(shards=shard_map.n_shards, m=node.m, k=node.k,
                     family=shard_map.router_family)
    header = {**persistence.filter_header(node), "n_items": 0}
    if persistence.filter_header(
            replace(spec, shards=0).build()) != header:
        raise ConfigurationError(
            "no StoreSpec builds the filters of node %s: %r"
            % (shard_map.nodes()[0], header))
    return spec


def _pick_migration(shard_map: ShardMap,
                    members: Sequence[bytes]) -> Tuple[int, str]:
    """The hottest shard (by member load) and its destination node.

    Destination is the lightest-loaded *other* node — the move an
    operator resharding a hot spot would make.
    """
    router = shard_map.make_router()
    per_shard = np.bincount(router.route_batch(list(members)),
                            minlength=shard_map.n_shards)
    hot = int(per_shard.argmax())
    source = shard_map.owner(hot)
    candidates = [e for e in shard_map.nodes() if e != source]
    load = {e: sum(int(per_shard[s]) for s in shard_map.shards_of(e))
            for e in candidates}
    return hot, min(candidates, key=lambda e: load[e])


def _op_stream(config: ClusterDrillConfig, members: List[bytes],
               absent: List[bytes], rng: random.Random):
    """The drill's seeded ops: ``(preload, stream, drain)``.

    Half the catalog is preloaded; the stream writes the other half
    (an op is a write with probability ``write_fraction`` while any is
    left) between reads that mix written members with absent elements;
    the drain writes what the stream left.
    """
    split = len(members) // 2
    writes = chop_requests(members[split:], config.per_request)
    written = members[:split]
    stream: List[Op] = []
    for _ in range(config.n_ops):
        if writes and rng.random() < config.write_fraction:
            stream.append(("add", writes.pop(0)))
            written.extend(stream[-1][1])
        else:
            stream.append(("query", [
                rng.choice(written) if rng.random() < 0.5
                else rng.choice(absent)
                for _ in range(config.per_request)]))
    preload = chop_requests(members[:split], config.per_request)
    return ([("add", b) for b in preload], stream,
            [("add", b) for b in writes])


async def run_cluster_drill_async(
    config: ClusterDrillConfig,
    span_sink: Optional[List[dict]] = None,
) -> dict:
    """Run one seeded migration drill; returns the invariant report.

    With *span_sink* (a list), every span record of the drill — the
    client's, and in in-process mode every node's — is appended to it,
    so a caller can :func:`~repro.obs.reconstruct` any request's full
    client → node → coalescer path after the run.
    """
    spans: List[dict] = span_sink if span_sink is not None else []
    local: Optional[LocalCluster] = None
    if config.endpoints is None:
        local = await start_local_cluster(config, trace_sink=spans)
        shard_map = local.shard_map
        mode = "in-process"
    else:
        shard_map = await _fetch_map(config.endpoints)
        mode = "external"

    spec = await _fleet_spec(shard_map)
    contract = Contract(Oracle(spec, router=shard_map.make_router()))
    workload = build_service_workload(config.n_members, seed=config.seed)
    members = list(workload.members)
    absent = list(workload.absent)
    preload, stream, drain = _op_stream(
        config, members, absent, random.Random(config.seed))
    sweep = [("query", b) for b in chop_requests(members + absent, 512)]

    registry = MetricsRegistry()
    tracer = Tracer(component="client", sink=spans, seed=config.seed)
    client = ClusterClient(shard_map, seed=config.seed,
                           metrics=registry, tracer=tracer)
    migration_task: Optional[asyncio.Task] = None
    migration_window: List[float] = []  # [opened, closed]
    migration_report: Dict[str, object] = {}

    async def run_migration() -> None:
        shard_id, target = _pick_migration(client.shard_map, members)
        migration_window.append(time.perf_counter())
        try:
            _, report = await migrate_shard(
                client.shard_map, shard_id, target, metrics=registry)
            migration_report.update(report)
        finally:
            migration_window.append(time.perf_counter())

    def launch_migration() -> None:
        nonlocal migration_task
        if migration_task is None:
            migration_task = asyncio.ensure_future(run_migration())

    async def migrate_after(i: int, _answer) -> None:
        if i + 1 == config.migrate_after_ops:
            launch_migration()

    try:
        # The preload goes through the cluster and the oracle alike.
        runs = [(preload, await drive([client], preload))]
        if config.migrate_after_ops <= 0:
            launch_migration()
        live = await drive([client], stream, after=migrate_after)
        launch_migration()  # n_ops < migrate_after_ops
        await migration_task
        # Drain any catalog remainder post-move, then the full sweep.
        runs += [(stream, live), (drain, await drive([client], drain)),
                 (sweep, await drive([client], sweep))]
        stats = await client.stats()
        contract.items(sum(s["n_items"] for s in stats.values()))
        epochs = {endpoint: s["cluster"]["epoch"]
                  for endpoint, s in stats.items()}
        final_map = client.shard_map
    finally:
        if migration_task is not None and not migration_task.done():
            migration_task.cancel()
        await client.close()
        if local is not None:
            await local.close()

    wrong = [contract.replay(ops, run) for ops, run in runs]
    opened, closed = migration_window[0], migration_window[-1]
    latencies = live.latencies()
    overlapping = [end - start for start, end in live.spans
                   if end > opened and start < closed]
    max_stall = max(overlapping, default=0.0)

    # The report's latency sections share the live METRICS histogram
    # format, so drill artifacts merge/compare with scrape tooling.
    op_latency = registry.histogram(
        metric_names.DRILL_OP_LATENCY, drill="cluster")
    for dur in latencies:
        op_latency.observe(dur)
    stall_latency = registry.histogram(
        metric_names.DRILL_STALL, drill="cluster")
    for dur in overlapping:
        stall_latency.observe(dur)

    contract.check("bounded_stall", max_stall <= config.stall_budget_s,
                   "client stall %.4fs <= budget %.1fs during the "
                   "migration" % (max_stall, config.stall_budget_s))
    contract.check("epoch_advanced", all(
        epoch >= shard_map.epoch + 1 for epoch in epochs.values()),
        "every node past epoch %d" % shard_map.epoch)
    report = contract.report()
    held = {c["name"]: c["ok"] for c in report["checks"]}
    reads = sum(1 for kind, _ in stream if kind == "query")
    return {
        "ok": report["ok"],
        "mode": mode,
        "invariants": {
            "zero_wrong_verdicts": contract.wrong_verdicts == 0,
            "zero_lost_or_duplicate_writes": (
                held["no_lost_writes"] and held["no_duplicate_writes"]),
            "bounded_stall": held["bounded_stall"],
            "epoch_advanced": held["epoch_advanced"],
        },
        "contract": report,
        "migration": migration_report,
        "ops": {
            "reads": reads,
            "writes": len(stream) - reads + len(drain),
            "wrong_verdicts_live": wrong[1],
            "wrong_verdicts_sweep": wrong[3],
            "max_op_latency_s": max(latencies, default=0.0),
            "max_stall_op_latency_s": max_stall,
            "ops_overlapping_migration": len(overlapping),
        },
        "writes_accounting": {
            "cluster_n_items": contract.served_items,
            "reference_n_items": int(contract.oracle.n_items),
        },
        "op_latency": op_latency.to_dict(),
        "stall_latency": stall_latency.to_dict(),
        "tracing": {
            "spans_recorded": len(spans),
            "traces": len({r.get("trace") for r in spans}),
        },
        "epochs": epochs,
        "final_epoch": final_map.epoch,
        "client_counters": dict(client.counters),
        # The requested config, with the fleet's shape as drilled.
        "config": {**asdict(config), "mode": mode,
                   "n_nodes": len(shard_map.nodes()),
                   "n_shards": shard_map.n_shards, "m": spec.m,
                   "k": spec.k, "family": spec.family},
    }


def run_cluster_drill(config: Optional[ClusterDrillConfig] = None) -> dict:
    """Synchronous wrapper: one fresh event loop per drill."""
    return asyncio.run(run_cluster_drill_async(
        config if config is not None else ClusterDrillConfig()))
