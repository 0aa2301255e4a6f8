"""Chaos-hardening benchmark: deadline/retry overhead plus a drill.

Two sections:

* **overhead** — the cost of the hardened client path when nothing is
  failing.  The same seeded query stream is driven through (a) a bare
  :class:`~repro.service.ServiceClient` with deadlines disabled
  (``op_timeout=None`` — the pre-hardening wire path, no timer armed
  per request) and (b) a :class:`~repro.replication.FailoverClient`
  with its default deadline, breaker and health-scoring machinery
  live.  The acceptance bar (``--check``) is that the hardened path
  costs at most 5% throughput: resilience must be a fault-time
  feature, not an always-on tax;
* **drill** — one seeded chaos drill
  (:func:`repro.chaos.drill.run_drill`), whose invariant verdicts and
  resilience counters land in the report for trend tracking.

Run directly::

    PYTHONPATH=src python benchmarks/bench_chaos.py
    PYTHONPATH=src python benchmarks/bench_chaos.py --smoke

Writes ``BENCH_chaos.json`` (``.smoke.json`` for smoke runs) at the
repo root.  ``--check`` exits non-zero if the overhead bar or any
drill invariant fails.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import pathlib
import sys
import time

from repro.chaos.drill import DrillConfig, run_drill
from repro.replication.failover import FailoverClient
from repro.service.client import ServiceClient
from repro.service.server import CoalescerConfig, FilterService
from repro.store.spec import StoreSpec
from repro.workloads.service import build_service_workload

DEFAULT_N = 4000
DEFAULT_SHARDS = 4
DEFAULT_M_PER_SHARD = 65536
DEFAULT_K = 8
DEFAULT_PER_REQUEST = 32
MAX_OVERHEAD_PCT = 5.0


async def _drive(call, requests, pipeline: int) -> float:
    """Pipelined query stream through one client; wall-clock seconds."""
    window = asyncio.Semaphore(pipeline)

    async def one(batch) -> None:
        try:
            await call(batch)
        finally:
            window.release()

    tasks = []
    start = time.perf_counter()
    for batch in requests:
        await window.acquire()
        tasks.append(asyncio.ensure_future(one(batch)))
    await asyncio.gather(*tasks)
    return time.perf_counter() - start


async def _bench_overhead(args) -> dict:
    workload = build_service_workload(args.n, seed=args.seed)
    store = StoreSpec(shards=args.shards, m=args.m_per_shard, k=args.k,
                      family="blake2b").build()
    store.add_batch(list(workload.members))
    service = FilterService(store, CoalescerConfig())
    server = await service.start(port=0)
    port = server.sockets[0].getsockname()[1]
    requests = workload.request_stream(args.per_request)
    n_queries = sum(len(r) for r in requests)

    async def time_baseline() -> float:
        client = await ServiceClient.connect(port=port, op_timeout=None)
        try:
            return await _drive(client.query, requests, args.pipeline)
        finally:
            await client.close()

    async def time_hardened() -> float:
        client = FailoverClient([("127.0.0.1", port)])
        try:
            return await _drive(client.query, requests, args.pipeline)
        finally:
            await client.close()

    try:
        baseline = hardened = float("inf")
        # Alternate the two paths so drift (cache warmth, GC) hits both.
        for _ in range(args.repeats):
            baseline = min(baseline, await time_baseline())
            hardened = min(hardened, await time_hardened())
    finally:
        server.close()
        await server.wait_closed()

    base_eps = n_queries / baseline if baseline > 0 else 0.0
    hard_eps = n_queries / hardened if hardened > 0 else 0.0
    overhead_pct = (100.0 * (base_eps - hard_eps) / base_eps
                    if base_eps else 0.0)
    return {
        "n_queries": n_queries * args.repeats,
        "baseline_elements_per_s": round(base_eps),
        "hardened_elements_per_s": round(hard_eps),
        "overhead_pct": round(overhead_pct, 2),
        "max_overhead_pct": MAX_OVERHEAD_PCT,
    }


async def bench(args) -> dict:
    overhead = await _bench_overhead(args)
    drill = await run_drill(DrillConfig(
        n=args.drill_n, per_batch=args.drill_per_batch, seed=args.seed))
    return {"overhead": overhead, "drill": drill}


def render(results: dict) -> str:
    o = results["overhead"]
    d = results["drill"]
    lines = [
        "overhead: baseline %d elems/s, hardened %d elems/s "
        "-> %.2f%% (bar %.1f%%)" % (
            o["baseline_elements_per_s"], o["hardened_elements_per_s"],
            o["overhead_pct"], o["max_overhead_pct"]),
        "drill: ok=%s %s" % (
            d["ok"],
            " ".join("%s=%s" % (k, v)
                     for k, v in d["invariants"].items())),
        "drill client: %s" % (d["client"],),
    ]
    return "\n".join(lines)


def check(results: dict) -> bool:
    ok = True
    overhead = results["overhead"]["overhead_pct"]
    if overhead > MAX_OVERHEAD_PCT:
        print("FAIL: hardened client costs %.2f%% throughput "
              "(bar %.1f%%)" % (overhead, MAX_OVERHEAD_PCT))
        ok = False
    else:
        print("OK: hardened client overhead %.2f%% <= %.1f%%"
              % (overhead, MAX_OVERHEAD_PCT))
    if not results["drill"]["ok"]:
        print("FAIL: drill invariants violated: %s"
              % results["drill"]["invariants"])
        ok = False
    else:
        print("OK: all drill invariants held")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=DEFAULT_N)
    parser.add_argument("--shards", type=int, default=DEFAULT_SHARDS)
    parser.add_argument("--m-per-shard", type=int,
                        default=DEFAULT_M_PER_SHARD)
    parser.add_argument("--k", type=int, default=DEFAULT_K)
    parser.add_argument("--per-request", type=int,
                        default=DEFAULT_PER_REQUEST)
    parser.add_argument("--pipeline", type=int, default=4,
                        help="requests the client keeps in flight")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--drill-n", type=int, default=400,
                        help="members written during the drill section")
    parser.add_argument("--drill-per-batch", type=int, default=40)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny workload, single repeat (CI run)")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero on the overhead bar or a "
                             "drill invariant failure")
    parser.add_argument("--output", type=pathlib.Path, default=None)
    args = parser.parse_args(argv)

    if args.smoke:
        args.n = min(args.n, 800)
        args.drill_n = min(args.drill_n, 400)
        args.repeats = 1
    if args.output is None:
        name = ("BENCH_chaos.smoke.json" if args.smoke
                else "BENCH_chaos.json")
        args.output = pathlib.Path(__file__).resolve().parent.parent / name

    results = asyncio.run(bench(args))
    print(render(results))

    payload = {
        "config": {
            "n": args.n, "shards": args.shards,
            "m_per_shard": args.m_per_shard, "k": args.k,
            "per_request": args.per_request, "pipeline": args.pipeline,
            "repeats": args.repeats, "seed": args.seed,
            "drill_n": args.drill_n,
            "drill_per_batch": args.drill_per_batch,
            "smoke": args.smoke,
        },
        "results": results,
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print("\nwrote %s" % args.output)

    if args.check:
        return 0 if check(results) else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
