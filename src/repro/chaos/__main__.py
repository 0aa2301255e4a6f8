"""Command-line entry points for the chaos layer.

Two subcommands::

    python -m repro.chaos serve --listen-port 4999 \\
        --upstream 127.0.0.1:4000 \\
        --fault latency:delay_ms=30,jitter_ms=20,op=QUERY,count=none \\
        --fault reset:op=ADD,after=10
    python -m repro.chaos drill --n 400 --seed 7 --report chaos.json

``serve`` runs a standalone :class:`~repro.chaos.ChaosProxy` in front
of any ``repro.service`` / ``repro.replication`` node, applying the
``--fault`` specs in order (first eligible spec fires per frame) and
printing an injection report on shutdown; ``drill`` runs the full
seeded chaos drill of :mod:`repro.chaos.drill` — replicated pair,
fault storm, hardened :class:`~repro.replication.FailoverClient`
workload — prints the drill harness's contract checks and exits
non-zero if any fails (a wrong verdict, a lost or twice-applied write,
an op over its budget).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys

from repro.chaos.drill import DrillConfig, run_drill
from repro.chaos.faults import FaultSchedule
from repro.chaos.proxy import ChaosProxy
from repro.cli import add_store_args, add_timeout_args, from_args, run
from repro.replication.failover import parse_endpoint
from repro.workloads.drill import print_checks, render


async def _serve(args: argparse.Namespace) -> int:
    host, port = parse_endpoint(args.upstream)
    schedule = FaultSchedule.parse(args.fault, seed=args.seed)
    proxy = ChaosProxy(host, port, schedule)
    await proxy.start(args.listen_host, args.listen_port)
    print("repro.chaos proxying %s:%d -> %s:%d (%d faults, seed=%d)"
          % (proxy.host, proxy.port, host, port, len(schedule.specs),
             args.seed), flush=True)
    try:
        while True:
            await asyncio.sleep(3600)
    finally:
        report = proxy.report()
        await proxy.close()
        print(json.dumps(report, indent=2))
    return 0


async def _drill(args: argparse.Namespace) -> int:
    faults = (FaultSchedule.parse(args.fault, seed=args.seed)
              if args.fault else None)
    report = await run_drill(from_args(DrillConfig, args, faults=faults))
    if args.report:
        with open(args.report, "w") as fh:
            json.dump(report, fh, indent=2)
        print("report written to %s" % args.report)
    print("\n".join(render(report)))
    if not print_checks(report["contract"]["checks"]):
        print("DRILL FAILED", file=sys.stderr)
        return 1
    print("DRILL OK")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.chaos", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser(
        "serve", help="fault-injecting proxy in front of a service")
    serve.add_argument("--listen-host", default="127.0.0.1")
    serve.add_argument("--listen-port", type=int, default=4999)
    serve.add_argument("--upstream", required=True, metavar="HOST:PORT",
                       help="the real service endpoint to forward to")
    serve.add_argument("--fault", action="append", default=[],
                       metavar="KIND:K=V,...",
                       help="fault spec, repeatable; e.g. "
                            "latency:delay_ms=30,op=QUERY,count=none "
                            "(kinds: latency, throttle, stall, "
                            "truncate, corrupt, reset, blackhole)")
    serve.add_argument("--seed", type=int, default=0,
                       help="seeds the schedule's jitter")

    drill = sub.add_parser(
        "drill", help="seeded fault storm with invariant checking")
    drill.add_argument("--n", type=int, default=400,
                       help="members written over the drill")
    drill.add_argument("--per-batch", type=int, default=40)
    drill.add_argument("--seed", type=int, default=7)
    add_timeout_args(drill)
    drill.add_argument("--failover-budget", type=float, default=3.0,
                       help="extra seconds an op may spend failing "
                            "over before the hang invariant trips")
    drill.add_argument("--max-passes", type=int, default=3,
                       help="client endpoint walks per op")
    add_store_args(drill, family=False)
    drill.set_defaults(op_timeout=0.75, connect_timeout=0.5, m=16384)
    drill.add_argument("--fault", action="append", default=[],
                       metavar="KIND:K=V,...",
                       help="override the default schedule "
                            "(repeatable, same syntax as serve)")
    drill.add_argument("--report", default=None,
                       help="write the full JSON report here")
    return parser


def main(argv=None) -> int:
    return run(build_parser().parse_args(argv),
               {"serve": _serve, "drill": _drill})


if __name__ == "__main__":
    sys.exit(main())
