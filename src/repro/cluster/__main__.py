"""Operate a shard-mapped filter cluster from the command line.

Subcommands::

    bootstrap  write an epoch-1 shard-map JSON file for a fresh fleet
    serve      host one cluster node (ownership-enforcing service)
    status     per-node STATS across the whole map
    reshard    migrate one shard live to a new owner (epoch + 1)
    drill      run the seeded migration-invariant drill

A minimal 2-node cluster, by hand::

    python -m repro.cluster bootstrap --shards 8 \\
        --node 127.0.0.1:4100 --node 127.0.0.1:4101 --output map.json
    python -m repro.cluster serve --map map.json --self 127.0.0.1:4100 &
    python -m repro.cluster serve --map map.json --self 127.0.0.1:4101 &
    python -m repro.cluster status --map map.json
    python -m repro.cluster reshard --map map.json --shard 3 \\
        --target 127.0.0.1:4101

``reshard`` rewrites the map file with the successor map on success, so
the file stays the fleet's bootstrap source of truth.  ``drill`` boots
its own in-process cluster by default; with ``--external`` it drives
the live nodes named by the map file instead (CI's cluster-smoke job
does exactly that across real processes).
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.cli import (
    add_coalescer_args,
    add_family_arg,
    add_preload_args,
    add_store_args,
    add_timeout_args,
    add_trace_log_arg,
    coalescer_from_args,
    from_args,
    run,
    spec_from_args,
    tracer_from_args,
)
from repro.cluster.coordinator import (
    cluster_status,
    fetch_live_map,
    migrate_shard,
)
from repro.cluster.drill import ClusterDrillConfig, run_cluster_drill
from repro.cluster.node import ClusterState
from repro.cluster.shardmap import ShardMap, bootstrap_map
from repro.errors import ReproError
from repro.replication.failover import parse_endpoint
from repro.service.server import FilterService
from repro.store.router import DEFAULT_ROUTER_SEED
from repro.store.sharded import ShardedFilterStore
from repro.store.spec import STRUCTURES
from repro.workloads.drill import print_checks
from repro.workloads.service import build_service_workload
from repro.workloads.sharded import partition_by_shard


def _read_map(path: str) -> ShardMap:
    with open(path, "r", encoding="utf-8") as handle:
        return ShardMap.from_json(handle.read())


def _write_map(path: str, shard_map: ShardMap) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(shard_map.to_json() + "\n")


def _bootstrap(args: argparse.Namespace) -> int:
    shard_map = bootstrap_map(
        args.shards, args.node,
        router_seed=args.router_seed, router_family=args.family)
    if args.output:
        _write_map(args.output, shard_map)
        print("wrote %s: epoch 1, %d shards over %d nodes"
              % (args.output, shard_map.n_shards,
                 len(shard_map.nodes())))
    else:
        print(shard_map.to_json())
    return 0


def _preload_owned(store: ShardedFilterStore, args: argparse.Namespace,
                   owned) -> None:
    """Insert the slice of the seeded catalog routing to *owned* shards."""
    members = list(build_service_workload(
        args.preload, seed=args.seed).members)
    parts = partition_by_shard(members, store.router)
    # Association shards alternate members between the two sets so
    # QUERY_MULTI exercises every answer region.
    in_second = set(members[::2])
    for shard_id in owned:
        part = parts[shard_id]
        if args.structure == "association":
            store.shards[shard_id].build_batch(
                part, [e for e in part if e in in_second])
        elif part:
            store.shards[shard_id].add_batch(part)


async def _serve(args: argparse.Namespace) -> int:
    shard_map = _read_map(args.map)
    parse_endpoint(args.self)
    if args.self not in shard_map.assignments and not args.standby:
        print("endpoint %s owns no shard in %s; pass --standby to host "
              "an empty node awaiting its first migration"
              % (args.self, args.map), file=sys.stderr)
        return 2
    # One spec rules the fleet: every node takes its shard count and
    # probe family from the map, so shards migrate between nodes as-is.
    store = spec_from_args(
        args, shards=shard_map.n_shards,
        family=shard_map.router_family,
    ).build(router=shard_map.make_router())
    if args.preload > 0:
        _preload_owned(store, args, shard_map.shards_of(args.self))
    service = FilterService(
        store, coalescer_from_args(args),
        tracer=tracer_from_args(args, "node:%s" % args.self))
    ClusterState(shard_map, args.self).attach(service)
    host, port = parse_endpoint(args.self)
    server = await service.start(host, port)
    bound = server.sockets[0].getsockname()[1]
    print("repro.cluster node %s listening on %s:%d (epoch %d, owns %s, "
          "%s, n_items=%d)"
          % (args.self, host, bound, shard_map.epoch,
             list(service.cluster.owned_shards), args.structure,
             store.n_items), flush=True)
    async with server:
        await server.serve_forever()
    return 0


async def _status(args: argparse.Namespace) -> int:
    shard_map = _read_map(args.map)
    stats = await cluster_status(
        shard_map, connect_timeout=args.connect_timeout,
        op_timeout=args.op_timeout)
    summary = {
        "map_epoch": shard_map.epoch,
        "n_shards": shard_map.n_shards,
        "nodes": stats,
    }
    print(json.dumps(summary, indent=2, sort_keys=True, default=str))
    return 0 if all("error" not in s for s in stats.values()) else 1


async def _reshard(args: argparse.Namespace) -> int:
    # The file is a bootstrap hint; the fleet's live epoch wins (a
    # prior reshard may have advanced past what the file records).
    shard_map = await fetch_live_map(
        _read_map(args.map), connect_timeout=args.connect_timeout,
        op_timeout=args.op_timeout)
    successor, report = await migrate_shard(
        shard_map, args.shard, args.target,
        connect_timeout=args.connect_timeout,
        op_timeout=args.op_timeout,
        catchup_rounds=args.catchup_rounds)
    print(json.dumps(report, indent=2, sort_keys=True))
    _write_map(args.map, successor)
    print("map %s now at epoch %d (shard %d -> %s)"
          % (args.map, successor.epoch, args.shard, args.target))
    return 0


def _drill(args: argparse.Namespace) -> int:
    endpoints = None
    if args.external:
        endpoints = _read_map(args.map).nodes()
    config = from_args(
        ClusterDrillConfig, args, n_nodes=args.nodes, n_shards=args.shards,
        n_members=args.members, n_ops=args.ops,
        migrate_after_ops=args.migrate_after,
        stall_budget_s=args.stall_budget, endpoints=endpoints)
    report = run_cluster_drill(config)
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    print(text)
    if not print_checks(report["contract"]["checks"]):
        print("drill FAIL", file=sys.stderr)
        return 1
    print("drill OK")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cluster", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    boot = sub.add_parser(
        "bootstrap", help="write an epoch-1 shard-map file")
    boot.add_argument("--shards", type=int, default=8,
                      help="global shard count the map partitions")
    boot.add_argument("--node", action="append", required=True,
                      help="owning endpoint host:port (repeat per node)")
    boot.add_argument("--router-seed", type=int,
                      default=DEFAULT_ROUTER_SEED,
                      help="cluster-wide routing seed pinned in the map")
    add_family_arg(boot, help="hash-family kind pinned in the map: the "
                              "routing hash and every node's probe hash")
    boot.add_argument("--output", default="",
                      help="map file path (prints to stdout if omitted)")

    serve = sub.add_parser("serve", help="host one cluster node")
    serve.add_argument("--map", required=True,
                       help="shard-map JSON file (bootstrap output)")
    serve.add_argument("--self", required=True,
                       help="this node's endpoint as the map names it")
    serve.add_argument("--standby", action="store_true",
                       help="allow serving with zero owned shards "
                            "(a fresh node awaiting a migration)")
    serve.add_argument("--structure", default="membership",
                       choices=tuple(STRUCTURES),
                       help="shard filter type: ShBF_M membership or "
                            "ShBF_A association (QUERY_MULTI)")
    # Shard count and family come from the map.
    add_store_args(serve, shards=False, family=False)
    add_preload_args(serve)
    add_coalescer_args(serve)
    add_trace_log_arg(serve)

    status = sub.add_parser(
        "status", help="per-node STATS across the map")
    status.add_argument("--map", required=True)
    add_timeout_args(status)

    reshard = sub.add_parser(
        "reshard", help="migrate one shard live to a new owner")
    reshard.add_argument("--map", required=True,
                         help="map file; rewritten with the successor "
                              "map on success")
    reshard.add_argument("--shard", type=int, required=True,
                         help="shard id to move")
    reshard.add_argument("--target", required=True,
                         help="destination endpoint host:port")
    reshard.add_argument("--catchup-rounds", type=int, default=8,
                         help="pre-flip journal drain rounds before "
                              "flipping ownership regardless")
    add_timeout_args(reshard)

    drill = sub.add_parser(
        "drill", help="seeded migration drill with invariant checks")
    drill.add_argument("--external", action="store_true",
                       help="drive the live nodes in --map instead of "
                            "booting an in-process cluster")
    drill.add_argument("--map", default="",
                       help="map file naming the external nodes")
    drill.add_argument("--nodes", type=int, default=3,
                       help="in-process node count")
    add_store_args(drill)
    drill.set_defaults(shards=8, m=1 << 15, k=4)
    drill.add_argument("--members", type=int, default=3000,
                       help="catalog size (half preloaded, half "
                            "written live during the drill)")
    drill.add_argument("--ops", type=int, default=80,
                       help="request batches driven during the drill")
    drill.add_argument("--per-request", type=int, default=64)
    drill.add_argument("--write-fraction", type=float, default=0.35)
    drill.add_argument("--migrate-after", type=int, default=20,
                       help="ops completed before the migration starts")
    drill.add_argument("--stall-budget", type=float, default=5.0,
                       help="max tolerated op latency overlapping the "
                            "ownership flip, in seconds")
    drill.add_argument("--seed", type=int, default=0)
    drill.add_argument("--output", default="",
                       help="also write the JSON report to this file")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "drill" and args.external and not args.map:
        build_parser().error("--external requires --map")
    try:
        return run(args, {
            "bootstrap": _bootstrap, "serve": _serve, "status": _status,
            "reshard": _reshard, "drill": _drill})
    except ReproError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
