"""Generational TTL drill: expiry correctness under live serving.

One seeded streaming drill answers the generational-store PR's
acceptance questions end to end, over the wire:

1. **Does anything live ever expire early?**  Zipf arrivals (plus
   per-round tracer slabs) from :func:`~repro.workloads.ttl.
   build_ttl_workload` are written round by round; each round fills the
   head generation exactly to the cardinality trigger, so every round
   boundary is a rotation.  After every round, *every* element written
   inside the live window is queried — a single MAYBE-NOT among them is
   a correctness failure, counted in ``wrong_live_verdicts``.
2. **Do expired elements actually decay?**  Each round's tracer slab is
   unique to that round, so once its generation rotates out the slab is
   guaranteed absent; its positive rate is measured and compared to the
   closed-form union FPR (:func:`~repro.analysis.ttl.generational_fpr`
   over the live generations' distinct loads).
3. **Is the served ring exactly the model?**  The drill harness's
   oracle (:mod:`repro.workloads.drill`), a ring built from the same
   spec, replays the identical stream in process: every expired
   probe's verdict must equal the oracle's, the served ``n_items`` must
   match it, and at the end the served SNAPSHOT must byte-equal it.
4. **Does rotation stall serving?**  The served stack's
   ``repro_ttl_rotation_stall_seconds`` histogram is scraped and its
   max compared against ``--stall-budget-ms``.

Run directly (in-process service), or against a live server started
with ``python -m repro.service serve --generations ...``::

    PYTHONPATH=src python benchmarks/bench_ttl.py
    PYTHONPATH=src python benchmarks/bench_ttl.py --smoke --check
    PYTHONPATH=src python benchmarks/bench_ttl.py --port 4455 --check

Writes ``BENCH_ttl.json`` (``.smoke.json`` for smoke runs) at the repo
root.  ``--check`` enforces the acceptance bar: the harness's verdict
contract (zero wrong live verdicts, expired verdicts identical to the
oracle's, exact ``n_items``) across >= 3 full window turnovers,
expired positive rate inside the closed-form band, byte-identical
snapshot replay, and max rotation stall under budget.
"""

from __future__ import annotations

import asyncio
import sys

import numpy as np

from repro.analysis.ttl import generational_fpr
from repro.service.client import ServiceClient
from repro.service.server import CoalescerConfig, FilterService
from repro.store.spec import StoreSpec
from repro.workloads.drill import Contract, Oracle, bench_main, drive
from repro.workloads.service import chop_requests
from repro.workloads.ttl import build_ttl_workload


def _spec(args) -> StoreSpec:
    """The served ring's spec, built exactly like the serve CLI's target
    (one shared family instance across generations)."""
    return StoreSpec(m=args.m, k=args.k, family=args.family,
                     generations=args.generations,
                     rotate_items=args.arrivals + args.tracers)


def _scrape_ttl_metrics(snapshot: dict) -> dict:
    """Rotation count and stall stats out of a METRICS json snapshot."""
    entries = {e["name"]: e for e in snapshot.get("metrics", [])}
    stall = entries.get("repro_ttl_rotation_stall_seconds",
                        {"count": 0, "max": 0.0, "p99": 0.0})
    return {
        "rotations": int(entries.get("repro_ttl_rotations_total",
                                     {"value": 0})["value"]),
        "stall_count": int(stall["count"]),
        "stall_max_ms": round(1e3 * float(stall["max"]), 3),
        "stall_p99_ms": round(1e3 * float(stall["p99"]), 3),
    }


async def drill(args, client: ServiceClient) -> dict:
    workload = build_ttl_workload(
        n_rounds=args.rounds,
        arrivals_per_round=args.arrivals,
        tracers_per_round=args.tracers,
        skew=args.skew,
        seed=args.seed)
    contract = Contract(Oracle(_spec(args)))
    distinct = [len(set(stream)) for stream in workload.rounds]
    expired_probes = 0
    expired_positives = 0
    predicted_sum = 0.0
    predicted_rounds = 0
    query_ms = []

    async def probe(elements, member: bool) -> np.ndarray:
        run = await drive([client], [
            ("query", c) for c in chop_requests(elements, args.per_batch)])
        query_ms.extend(1e3 * s for s in run.latencies())
        verdicts = np.concatenate(run.answers)
        contract.verdicts(elements, verdicts, [member] * len(elements))
        return verdicts

    for index, stream in enumerate(workload.rounds):
        writes = [("add", c)
                  for c in chop_requests(list(stream), args.per_batch)]
        contract.replay(writes, await drive([client], writes))

        # every element in the live window must still answer MAYBE
        lo = max(0, index - args.generations + 1)
        await probe(workload.live_elements(tuple(range(lo, index + 1))),
                    True)

        # the round that just rotated out decays to the FPR band, and
        # each of its verdicts equals the oracle ring's
        dead = index - args.generations
        if dead >= 0:
            probes = workload.expired_tracers((dead,))
            expired_positives += int((await probe(probes, False)).sum())
            expired_probes += len(probes)
            predicted_sum += generational_fpr(
                args.m, args.k,
                [distinct[i] for i in range(lo, index + 1)])
            predicted_rounds += 1

    blob = await client.snapshot()
    snapshot_identical = blob == contract.oracle.store.snapshot()
    contract.items((await client.stats())["n_items"])
    ttl_metrics = _scrape_ttl_metrics(await client.metrics("json"))

    observed = round(expired_positives / expired_probes
                     if expired_probes else 0.0, 6)
    predicted = round(predicted_sum / predicted_rounds
                      if predicted_rounds else 0.0, 6)
    turnovers = ttl_metrics["rotations"] // args.generations
    band = max(args.fpr_rel_band * predicted, args.fpr_abs_floor)
    contract.check("window_turnovers", turnovers >= args.turnovers,
                   ">= %d full window turnovers" % args.turnovers)
    contract.check("expired_fpr_band",
                   abs(observed - predicted) <= band,
                   "expired positive rate %.4f within %.4f of closed "
                   "form %.4f" % (observed, band, predicted))
    contract.check("snapshot_identical", snapshot_identical,
                   "snapshot byte-identical to fault-free reference")
    contract.check("rotation_stall", ttl_metrics["stall_max_ms"]
                   <= args.stall_budget_ms,
                   "max rotation stall %.3f ms under %.1f ms budget"
                   % (ttl_metrics["stall_max_ms"], args.stall_budget_ms))
    query_ms.sort()
    return {
        "correctness": {
            "live_verdicts_checked": contract.members_checked,
            "wrong_live_verdicts": contract.false_negatives,
            "window_turnovers": turnovers,
        },
        "expiry": {
            "expired_probes": expired_probes,
            "expired_positives": expired_positives,
            "observed_fpr": observed,
            "predicted_fpr": predicted,
        },
        "replay": {
            "snapshot_bytes": len(blob),
            "snapshot_byte_identical": bool(snapshot_identical),
            "reference_rotations": contract.oracle.store.rotations,
        },
        "serving": {
            "rotations": ttl_metrics["rotations"],
            "rotation_stalls_observed": ttl_metrics["stall_count"],
            "rotation_stall_max_ms": ttl_metrics["stall_max_ms"],
            "rotation_stall_p99_ms": ttl_metrics["stall_p99_ms"],
            "query_batches": len(query_ms),
            "query_p99_ms": round(
                query_ms[int(0.99 * (len(query_ms) - 1))], 3)
                if query_ms else 0.0,
        },
        "contract": contract.report(),
    }


async def _run(args) -> dict:
    if args.port is not None:
        client = await ServiceClient.connect(
            host=args.host, port=args.port)
        try:
            await client.ping()
            return await drill(args, client)
        finally:
            await client.close()

    service = FilterService(
        _spec(args).build(),
        CoalescerConfig(max_batch=512, max_delay_us=200))
    server = await service.start(port=0)
    port = server.sockets[0].getsockname()[1]
    client = await ServiceClient.connect(port=port)
    try:
        return await drill(args, client)
    finally:
        await client.close()
        server.close()
        await server.wait_closed()


def run(args) -> dict:
    args.rounds = args.generations * args.turnovers + 1
    # The payload's config names for the ring's shape.
    args.arrivals_per_round, args.tracers_per_round = (args.arrivals,
                                                       args.tracers)
    args.rotate_after_items = args.arrivals + args.tracers
    args.external_port = args.port
    return asyncio.run(_run(args))


def _smoke(args) -> None:
    args.arrivals = min(args.arrivals, 300)
    args.tracers = min(args.tracers, 100)
    args.m = min(args.m, 8192)
    args.fpr_rel_band = max(args.fpr_rel_band, 0.5)
    args.fpr_abs_floor = max(args.fpr_abs_floor, 0.015)


def main(argv=None) -> int:
    return bench_main(
        "ttl", __doc__, run, _smoke, argv, generations=4, turnovers=3,
        arrivals=1500, tracers=500, m=16384, k=4, skew=1.0,
        family="vector64", per_batch=256, stall_budget_ms=100.0,
        fpr_rel_band=0.35, fpr_abs_floor=0.005, host="127.0.0.1",
        port=None, seed=0)


if __name__ == "__main__":
    sys.exit(main())
