"""Command-line entry points for replication and failover drills.

Five subcommands::

    python -m repro.replication serve --port 4001 --role standby
    python -m repro.replication serve --port 4000 --role primary \\
        --standby 127.0.0.1:4001 --interval-ms 100
    python -m repro.replication serve-pair --primary-port 4000 \\
        --standby-port 4001 --kill-primary-after 30
    python -m repro.replication probe --port 4000 --n 2000 --seed 11 \\
        --write --sync 127.0.0.1:4001 --out primary_verdicts.json
    python -m repro.replication verify \\
        --endpoints 127.0.0.1:4000,127.0.0.1:4001 --n 2000 --seed 11 \\
        --expected primary_verdicts.json --promote

``serve`` hosts one node of a replicated pair (a primary that attaches
and ships to its standbys, or a bare standby awaiting SUBSCRIBE);
``serve-pair`` hosts both in one process for local experiments and can
script the primary's death; ``probe`` writes a seeded
:func:`~repro.workloads.service.build_service_workload` stream up to
its kill point through the primary, waits until the standby has caught
up, and records the primary's verdicts; ``verify`` checks that the
record names the same script, then replays its read mix through a
:class:`~repro.replication.FailoverClient` — surviving a dead primary,
optionally promoting a standby — and exits non-zero unless every
verdict is bit-identical to the recorded ones; ``drill`` runs the
whole kill-primary exercise end-to-end in one process, checks every
verdict and the promoted standby's ``n_items`` against the drill
harness's oracle (:mod:`repro.workloads.drill`), and reports the
measured failover latency.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from typing import List

from repro.cli import (
    add_coalescer_args,
    add_endpoint_args,
    add_preload_args,
    add_store_args,
    add_timeout_args,
    coalescer_from_args,
    connect,
    from_args,
    run,
    spec_from_args,
)
from repro.errors import FailoverExhaustedError
from repro.replication.failover import FailoverClient, parse_endpoint
from repro.replication.pair import (
    attach_with_retries,
    failover_script,
    start_pair,
)
from repro.replication.replicator import (
    ReplicatedFilterService,
    ReplicationConfig,
)
from repro.service.client import ServiceClient
from repro.service.server import FilterService
from repro.workloads.drill import Contract, Oracle, drive, print_checks
from repro.workloads.service import (
    build_service_workload,
    chop_requests,
    preloaded,
)


def _add_replication_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--interval-ms", type=int, default=200,
                        help="periodic delta ship cadence")
    parser.add_argument("--max-staleness-batches", type=int, default=32,
                        help="write batches that trigger an early ship")
    parser.add_argument("--full-snapshot-every", type=int, default=0,
                        help="every Nth ship resyncs with a full "
                             "snapshot (0 = never force)")


def _add_workload_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, default=2000,
                        help="write-stream length")
    parser.add_argument("--failover-at", type=int, default=-1,
                        help="kill point in the write stream "
                             "(default: 3/4 of --n)")
    parser.add_argument("--per-batch", type=int, default=64,
                        help="elements per write/read request")
    parser.add_argument("--seed", type=int, default=0)


def _script(args: argparse.Namespace):
    """The kill-primary script the workload flags name."""
    return failover_script(build_service_workload(args.n, seed=args.seed),
                           args.failover_at, args.per_batch)


# ----------------------------------------------------------------------
# serve / serve-pair
# ----------------------------------------------------------------------
async def _serve(args: argparse.Namespace) -> int:
    # Only a primary preloads: a standby's state arrives by SUBSCRIBE.
    service = FilterService(preloaded(
        spec_from_args(args), args.preload if args.role == "primary" else 0,
        args.seed), coalescer_from_args(args))
    if args.role == "standby":
        server = await service.start(args.host, args.port)
        port = server.sockets[0].getsockname()[1]
        print("repro.replication standby on %s:%d (awaiting SUBSCRIBE)"
              % (args.host, port), flush=True)
        async with server:
            await server.serve_forever()
        return 0
    repl = ReplicatedFilterService(
        service, from_args(ReplicationConfig, args))
    server = await repl.start(args.host, args.port)
    port = server.sockets[0].getsockname()[1]
    for spec in args.standby:
        host, standby_port = parse_endpoint(spec)
        await attach_with_retries(
            repl, host, standby_port,
            args.attach_retries, args.attach_delay)
        print("attached standby %s:%d (full snapshot shipped)"
              % (host, standby_port), flush=True)
    print("repro.replication primary on %s:%d (n_items=%d, "
          "interval_ms=%d, standbys=%d)"
          % (args.host, port, service.target.n_items,
             args.interval_ms, len(repl.standbys)), flush=True)
    try:
        async with server:
            await server.serve_forever()
    finally:
        await repl.close()
    return 0


async def _serve_pair(args: argparse.Namespace) -> int:
    pair = await start_pair(
        preloaded(spec_from_args(args), args.preload, args.seed),
        spec_from_args(args).build(),
        host=args.host, primary_port=args.primary_port,
        standby_port=args.standby_port,
        config=from_args(ReplicationConfig, args),
        coalescer=coalescer_from_args(args))
    print("repro.replication pair: primary %s:%d -> standby %s:%d "
          "(n_items=%d, interval_ms=%d)"
          % (args.host, pair.primary_port, args.host, pair.standby_port,
             pair.primary_service.target.n_items, args.interval_ms),
          flush=True)

    async def kill_primary_later() -> None:
        await asyncio.sleep(args.kill_primary_after)
        await pair.repl.ship()  # last delta: everything acknowledged
        await pair.kill_primary()
        print("primary killed after %.1f s; standby %s:%d still "
              "serving (PROMOTE it to accept writes)"
              % (args.kill_primary_after, args.host, pair.standby_port),
              flush=True)

    killer = None
    if args.kill_primary_after > 0:
        killer = asyncio.ensure_future(kill_primary_later())
    try:
        await pair.standby_server.serve_forever()
    finally:
        if killer is not None:
            killer.cancel()
        await pair.close()
    return 0


# ----------------------------------------------------------------------
# probe / verify
# ----------------------------------------------------------------------
async def _wait_synced(primary: ServiceClient, standby_spec: str,
                       timeout: float) -> None:
    """Poll until the standby's epoch and item count match the primary."""
    host, port = parse_endpoint(standby_spec)
    standby = await ServiceClient.connect(host, port)
    try:
        deadline = time.perf_counter() + timeout
        while True:
            p = await primary.stats()
            s = await standby.stats()
            if (s["n_items"] == p["n_items"]
                    and s["replication"]["epoch"]
                    >= p["replication"]["epoch"]):
                return
            if time.perf_counter() > deadline:
                raise TimeoutError(
                    "standby %s not synced after %.0f s (items %d/%d, "
                    "epoch %d/%d)" % (
                        standby_spec, timeout, s["n_items"],
                        p["n_items"], s["replication"]["epoch"],
                        p["replication"]["epoch"]))
            await asyncio.sleep(0.05)
    finally:
        await standby.close()


async def _query_all(client, mix: List[bytes], per_batch: int) -> list:
    return [int(v) for batch in chop_requests(mix, per_batch)
            for v in await client.query(batch)]


async def _probe(args: argparse.Namespace) -> int:
    at, pre, _, mix = _script(args)
    client = await connect(args)
    try:
        if args.write:
            for batch in pre:
                await client.add(batch)
            print("wrote %d acknowledged elements in %d batches"
                  % (at, len(pre)))
        if args.sync:
            await _wait_synced(client, args.sync, args.sync_timeout)
            print("standby %s synced" % args.sync)
        verdicts = await _query_all(client, mix, args.per_batch)
    finally:
        await client.close()
    record = {"n": args.n, "seed": args.seed, "failover_at": at,
              "verdicts": verdicts}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh)
        print("recorded %d verdicts to %s" % (len(verdicts), args.out))
    return 0


async def _verify(args: argparse.Namespace) -> int:
    at, _, _, mix = _script(args)
    recorded = None
    if args.expected:
        with open(args.expected) as fh:
            recorded = json.load(fh)
        # Another script's record would "lose" never-written members.
        for field, mine in (("n", args.n), ("seed", args.seed),
                            ("failover_at", at)):
            if recorded.get(field) != mine:
                print("FAIL: %s records %s=%s, verify resolved %s=%d "
                      "(pass the probe's --n/--seed/--failover-at)"
                      % (args.expected, field, recorded.get(field),
                         field, mine), file=sys.stderr)
                return 1
    endpoints = [spec for spec in args.endpoints.split(",") if spec]
    client = FailoverClient(endpoints, op_timeout=args.op_timeout,
                            connect_timeout=args.connect_timeout)
    try:
        health = await client.health()
        for entry in health:
            print("endpoint %s: %s" % (
                entry["endpoint"],
                "role=%s epoch=%d n_items=%d" % (
                    entry["role"], entry["epoch"], entry["n_items"])
                if entry["alive"] else "DOWN (%s)" % entry["error"]))
        if args.promote and not any(
                e["alive"] and e["role"] == "primary" for e in health):
            banner = await client.promote()
            print("promoted: %s" % banner)
        verdicts = await _query_all(client, mix, args.per_batch)
        print("queried %d elements (%d failovers)"
              % (len(verdicts), client.failovers))
    finally:
        await client.close()
    # The mix interleaves the acknowledged members with absent ones.
    contract = Contract(Oracle())
    contract.oracle.add(mix[0::2])
    contract.verdicts(mix, verdicts)
    if contract.false_negatives:
        print("FAIL: %d acknowledged members answered False"
              % contract.false_negatives, file=sys.stderr)
        return 1
    if recorded is not None:
        mismatches = sum(
            1 for mine, theirs in zip(verdicts, recorded["verdicts"])
            if mine != theirs)
        if mismatches or len(verdicts) != len(recorded["verdicts"]):
            print("FAIL: %d verdicts diverge from %s"
                  % (mismatches, args.expected), file=sys.stderr)
            return 1
        print("OK: all %d verdicts bit-identical to %s"
              % (len(verdicts), args.expected))
        return 0
    print("OK: every acknowledged member answered True")
    return 0


# ----------------------------------------------------------------------
# drill: the whole exercise in one process
# ----------------------------------------------------------------------
async def _drill(args: argparse.Namespace) -> int:
    at, pre, post, mix = _script(args)
    in_flight = [e for batch in post for e in batch]

    spec = spec_from_args(args)
    contract = Contract(Oracle(spec))
    pair = await start_pair(
        spec.build(), spec.build(), host=args.host,
        config=from_args(ReplicationConfig, args),
        coalescer=coalescer_from_args(args))
    print("pair up: primary :%d -> standby :%d"
          % (pair.primary_port, pair.standby_port))
    client = FailoverClient([(args.host, pair.primary_port),
                             (args.host, pair.standby_port)],
                            op_timeout=args.op_timeout,
                            connect_timeout=args.connect_timeout)
    try:
        # --- acknowledged phase: write, replicate, record verdicts ----
        writes = [("add", batch) for batch in pre]
        contract.replay(writes, await drive([client], writes))
        await pair.repl.ship()
        primary_verdicts = await client.query(mix)
        contract.verdicts(mix, primary_verdicts)
        print("acknowledged %d writes; primary verdicts recorded "
              "(epoch %d)" % (at, pair.repl.epoch))

        # --- kill the primary -----------------------------------------
        await pair.kill_primary()
        killed_at = time.perf_counter()
        print("primary killed")

        # --- failover reads: must be bit-identical ---------------------
        standby_verdicts = await client.query(mix)
        failover_ms = (time.perf_counter() - killed_at) * 1e3
        contract.verdicts(mix, standby_verdicts)
        identical = bool(
            (standby_verdicts == primary_verdicts).all())
        print("standby answered %d queries %.1f ms after the kill "
              "(%d failovers); bit-identical: %s"
              % (len(mix), failover_ms, client.failovers, identical))

        # --- writes must be refused until a PROMOTE --------------------
        try:
            await client.add(in_flight[:1])
            print("FAIL: un-promoted standby accepted a write",
                  file=sys.stderr)
            return 1
        except FailoverExhaustedError:
            pass
        banner = await client.promote()
        print("promoted: %s" % banner)
        writes = [("add", batch) for batch in post]
        contract.replay(writes, await drive([client], writes))
        contract.verdicts(in_flight, await client.query(in_flight))
        contract.items(pair.standby_service.target.n_items)
        print("replayed %d in-flight writes on the new primary"
              % len(in_flight))
    finally:
        await client.close()
        await pair.close()
    if not print_checks(contract.report()["checks"]):
        return 1
    print("DRILL OK (failover read latency %.1f ms)" % failover_ms)
    return 0


# ----------------------------------------------------------------------
# Parser and entry point
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.replication", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="host one node of a pair")
    add_endpoint_args(serve)
    serve.add_argument("--role", choices=("primary", "standby"),
                       default="primary")
    serve.add_argument("--standby", action="append", default=[],
                       metavar="HOST:PORT",
                       help="standby endpoint to attach (repeatable)")
    add_preload_args(serve)
    serve.add_argument("--attach-retries", type=int, default=20)
    serve.add_argument("--attach-delay", type=float, default=0.25)
    add_store_args(serve)
    add_coalescer_args(serve)
    _add_replication_args(serve)

    pair = sub.add_parser(
        "serve-pair", help="host primary and standby in one process")
    add_endpoint_args(pair, port=False)
    pair.add_argument("--primary-port", type=int, default=4000)
    pair.add_argument("--standby-port", type=int, default=4001)
    add_preload_args(pair)
    pair.add_argument("--kill-primary-after", type=float, default=0,
                      help="seconds until the primary is killed "
                           "(0 = never); the standby keeps serving")
    add_store_args(pair)
    add_coalescer_args(pair)
    _add_replication_args(pair)

    probe = sub.add_parser(
        "probe", help="write the acknowledged stream, record verdicts")
    add_endpoint_args(probe)
    add_timeout_args(probe)
    probe.add_argument("--write", action="store_true",
                       help="write the pre-failover stream first")
    probe.add_argument("--sync", metavar="HOST:PORT", default=None,
                       help="wait until this standby matches the "
                            "primary's epoch and item count")
    probe.add_argument("--sync-timeout", type=float, default=30.0)
    probe.add_argument("--out", default=None,
                       help="write the verdict record to this JSON file")
    _add_workload_args(probe)

    verify = sub.add_parser(
        "verify", help="replay the read mix through a failover client")
    verify.add_argument("--endpoints", required=True,
                        help="comma-separated host:port list, primary "
                             "first")
    verify.add_argument("--expected", default=None,
                        help="probe's verdict record to compare "
                             "bit-for-bit")
    verify.add_argument("--promote", action="store_true",
                        help="promote a standby if no primary is alive")
    add_timeout_args(verify)
    verify.set_defaults(op_timeout=5.0)
    _add_workload_args(verify)

    drill = sub.add_parser(
        "drill", help="full kill-primary failover drill in one process")
    add_endpoint_args(drill, port=False)
    add_timeout_args(drill)
    drill.set_defaults(op_timeout=5.0, connect_timeout=2.0)
    _add_workload_args(drill)
    add_store_args(drill)
    add_coalescer_args(drill)
    _add_replication_args(drill)
    return parser


def main(argv=None) -> int:
    return run(build_parser().parse_args(argv), {
        "serve": _serve, "serve-pair": _serve_pair, "probe": _probe,
        "verify": _verify, "drill": _drill})


if __name__ == "__main__":
    sys.exit(main())
