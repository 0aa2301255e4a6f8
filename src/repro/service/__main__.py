"""Command-line entry points for the set-query service.

Three subcommands::

    python -m repro.service serve --port 4000 --shards 4 --preload 20000
    python -m repro.service ping  --port 4000 --retries 20
    python -m repro.service bench --port 4000 --clients 32

``serve`` hosts a ShBF_M-backed :class:`~repro.store.ShardedFilterStore`
(or a single filter with ``--shards 0``) behind the micro-batching
coalescer and prints one readiness line; ``ping`` retries until the
server answers (its exit code is the CI liveness gate); ``bench`` drives
a seeded member/absent mix through N concurrent clients with the drill
harness's driver, **verifies every member verdict** (the
no-false-negative clause of :mod:`repro.workloads.drill`), and exits
non-zero on any mismatch or transport failure — a smoke test that
happens to print throughput, not just a stopwatch.
"""

from __future__ import annotations

import argparse
import asyncio
import random
import sys
import time

from repro.cli import (
    add_coalescer_args,
    add_endpoint_args,
    add_generation_args,
    add_preload_args,
    add_store_args,
    add_timeout_args,
    add_trace_log_arg,
    coalescer_from_args,
    connect,
    from_args,
    run,
    spec_from_args,
    tracer_from_args,
)
from repro.errors import ReproError
from repro.retry import BackoffPolicy
from repro.service.server import FilterService
from repro.store.generational import GenerationalStore
from repro.workloads.drill import Contract, Oracle, drive
from repro.workloads.service import build_service_workload, preloaded


async def _rotation_poker(service: FilterService,
                          interval: float) -> None:
    """Poke the hosted ring's time trigger between writes.

    Rotation triggers are evaluated at write entry, so a ring serving a
    pure-read workload would never expire without this.  Pokes run on
    the event loop between request executions, and only while this
    server is the writable primary — a standby's ring mutates through
    the replication stream alone.
    """
    while True:
        await asyncio.sleep(interval)
        target = service.target
        if (service.replica.role == "primary"
                and isinstance(target, GenerationalStore)):
            target.maybe_rotate()


async def _serve(args: argparse.Namespace) -> int:
    if args.workers > 0:
        # Multi-process mode: delegate to the mpserve supervisor — one
        # writer owning the mutable store, N read workers answering
        # queries from shared read-only generation snapshots.
        for flag, value in (("--generations", args.generations > 0),
                            ("--trace-log", args.trace_log)):
            if value:
                print("%s is not supported with --workers (the mpserve "
                      "fleet hosts no TTL ring and writes no span log)"
                      % flag, file=sys.stderr)
                return 2
        from repro.mpserve.__main__ import run_supervisor
        from repro.mpserve.supervisor import SupervisorConfig

        return await run_supervisor(from_args(
            SupervisorConfig, args, store=spec_from_args(args),
            coalescer=coalescer_from_args(args)))
    target = preloaded(spec_from_args(args), args.preload, args.seed)
    tracer = tracer_from_args(args, "service:%s:%d" % (args.host, args.port))
    service = FilterService(target, coalescer_from_args(args), tracer=tracer)
    server = await service.start(args.host, args.port)
    port = server.sockets[0].getsockname()[1]
    print("repro.service listening on %s:%d (%s, n_items=%d, "
          "max_batch=%d, max_delay_us=%d)"
          % (args.host, port, type(target).__name__, target.n_items,
             args.max_batch, args.max_delay_us), flush=True)
    poker = None
    if args.generations > 0 and args.rotate_seconds > 0:
        poker = asyncio.ensure_future(_rotation_poker(
            service, max(0.05, args.rotate_seconds / 4.0)))
    try:
        async with server:
            await server.serve_forever()
    finally:
        if poker is not None:
            poker.cancel()
    return 0


async def _ping(args: argparse.Namespace) -> int:
    backoff = BackoffPolicy(base=args.retry_delay, cap=args.retry_cap,
                            max_attempts=max(args.retries, 1))
    rng = random.Random(args.seed)
    last_error: Exception = ConnectionError("no attempt made")
    for attempt in range(args.retries):
        try:
            start = time.perf_counter()
            client = await connect(args)
            try:
                banner = await client.ping()
            finally:
                await client.close()
            rtt_ms = (time.perf_counter() - start) * 1e3
            print("PONG in %.2f ms: %s" % (rtt_ms, banner))
            return 0
        except (ConnectionError, OSError, ReproError) as exc:
            last_error = exc
            if attempt + 1 < args.retries:
                await asyncio.sleep(backoff.delay(attempt, rng))
    print("ping failed after %d attempts: %s" % (args.retries, last_error),
          file=sys.stderr)
    return 1


async def _bench(args: argparse.Namespace) -> int:
    workload = build_service_workload(args.n, seed=args.seed)
    # The server's geometry is unknown here, so the oracle only knows
    # the catalog: enough for the no-false-negative clause.
    contract = Contract(Oracle())
    loader = await connect(args)
    try:
        members = list(workload.members)
        acked = await loader.add(members)
        contract.oracle.add(members)
        # Against a multi-process fleet an acknowledged ADD becomes
        # visible at the next generation publish, not instantly.  One
        # ADD frame is applied and published atomically, so polling
        # the last-loaded member is an exact barrier for the whole
        # batch; the classic server answers True on the first probe.
        # Only a *fully acknowledged* load earns the wait — anything
        # short of that must fall through to the member-verdict check,
        # which is the failure this bench exists to detect.
        if acked == len(members):
            deadline = time.perf_counter() + 10.0
            while not (await loader.query(members[-1:]))[0]:
                if time.perf_counter() > deadline:
                    print("bench: loaded members not visible after "
                          "10 s; querying anyway", file=sys.stderr)
                    break
                await asyncio.sleep(0.01)
        ops = [("query", batch) for batch in
               workload.request_stream(args.elements_per_request)]
        clients = [await connect(args) for _ in range(args.clients)]
        try:
            run = await drive(clients, ops)
        finally:
            for client in clients:
                await client.close()
        stats = await loader.stats()
    finally:
        await loader.close()

    contract.replay(ops, run)
    print("bench: %d clients, %d queries in %.3f s -> %d elements/s"
          % (args.clients, contract.compared, run.elapsed_s,
             round(contract.compared / run.elapsed_s)
             if run.elapsed_s > 0 else 0))
    print("server: batches_executed=%d coalesced_requests=%d "
          "queue peak=%d overloads=%d"
          % (stats["counters"]["batches_executed"],
             stats["counters"]["coalesced_requests"],
             stats["counters"]["peak_queue_depth"],
             stats["counters"]["overload_rejections"]))
    if contract.false_negatives:
        print("FAIL: %d member queries answered False"
              % contract.false_negatives, file=sys.stderr)
        return 1
    print("OK: every member verdict True")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="host a filter store")
    add_endpoint_args(serve)
    add_store_args(serve)
    add_coalescer_args(serve, shedding=True)
    add_preload_args(serve)
    serve.add_argument("--workers", type=int, default=0,
                       help="serve multi-process: N read workers + one "
                            "writer via repro.mpserve (0: classic "
                            "single-process server)")
    add_generation_args(serve)
    add_trace_log_arg(serve)

    ping = sub.add_parser("ping", help="liveness probe with retries")
    add_endpoint_args(ping)
    add_timeout_args(ping)
    ping.add_argument("--retries", type=int, default=1)
    ping.add_argument("--retry-delay", type=float, default=0.25,
                      help="base delay of the capped-exponential "
                           "full-jitter backoff between attempts")
    ping.add_argument("--retry-cap", type=float, default=2.0,
                      help="backoff delay ceiling in seconds")
    ping.add_argument("--seed", type=int, default=0,
                      help="seeds the backoff jitter for replayable "
                           "retry timing")

    bench = sub.add_parser(
        "bench", help="drive a verified query mix through N clients")
    add_endpoint_args(bench)
    add_timeout_args(bench)
    bench.add_argument("--clients", type=int, default=8)
    bench.add_argument("--n", type=int, default=2000,
                       help="member count (query mix is 2n)")
    bench.add_argument("--elements-per-request", type=int, default=16)
    bench.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None) -> int:
    return run(build_parser().parse_args(argv),
               {"serve": _serve, "ping": _ping, "bench": _bench})


if __name__ == "__main__":
    sys.exit(main())
