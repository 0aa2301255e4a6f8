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
repo root through the drill harness's
:func:`~repro.workloads.drill.bench_main`.  ``--check`` exits non-zero
if the overhead bar or any check of the drill's contract fails.
"""

from __future__ import annotations

import asyncio
import sys

from repro.chaos.drill import DrillConfig, run_drill
from repro.replication.failover import FailoverClient
from repro.service.client import ServiceClient
from repro.service.server import CoalescerConfig, FilterService
from repro.store.spec import StoreSpec
from repro.workloads.drill import Contract, bench_main, drive
from repro.workloads.service import build_service_workload

MAX_OVERHEAD_PCT = 5.0


async def _bench_overhead(args) -> dict:
    workload = build_service_workload(args.n, seed=args.seed)
    store = StoreSpec(shards=args.shards, m=args.m_per_shard, k=args.k,
                      family="blake2b").build()
    store.add_batch(list(workload.members))
    service = FilterService(store, CoalescerConfig())
    server = await service.start(port=0)
    port = server.sockets[0].getsockname()[1]
    ops = [("query", r) for r in workload.request_stream(args.per_request)]
    n_queries = sum(len(batch) for _, batch in ops)

    async def timed(client) -> float:
        try:
            return (await drive([client], ops, args.pipeline)).elapsed_s
        finally:
            await client.close()

    try:
        baseline = hardened = float("inf")
        # Alternate the two paths so drift (cache warmth, GC) hits both.
        for _ in range(args.repeats):
            baseline = min(baseline, await timed(
                await ServiceClient.connect(port=port, op_timeout=None)))
            hardened = min(hardened, await timed(
                FailoverClient([("127.0.0.1", port)])))
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
    contract = Contract()
    contract.check("overhead_bar",
                   overhead["overhead_pct"] <= MAX_OVERHEAD_PCT,
                   "hardened client overhead %.2f%% <= %.1f%%"
                   % (overhead["overhead_pct"], MAX_OVERHEAD_PCT))
    contract.absorb(drill["contract"], "drill")
    return {"overhead": overhead, "drill": drill,
            "contract": contract.report()}


def _smoke(args) -> None:
    args.n = min(args.n, 800)
    args.drill_n = min(args.drill_n, 400)
    args.repeats = 1


def main(argv=None) -> int:
    return bench_main(
        "chaos", __doc__, lambda args: asyncio.run(bench(args)), _smoke,
        argv, n=4000, shards=4, m_per_shard=65536, k=8, per_request=32,
        pipeline=4, repeats=3, seed=7, drill_n=400, drill_per_batch=40)


if __name__ == "__main__":
    sys.exit(main())
