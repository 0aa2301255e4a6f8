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
3. **Is the served ring exactly the model?**  A fault-free reference
   store replays the identical stream in process; at the end the served
   SNAPSHOT must byte-equal the reference's.
4. **Does rotation stall serving?**  The served stack's
   ``repro_ttl_rotation_stall_seconds`` histogram is scraped and its
   max compared against ``--stall-budget-ms``.

Run directly (in-process service), or against a live server started
with ``python -m repro.service serve --generations ...``::

    PYTHONPATH=src python benchmarks/bench_ttl.py
    PYTHONPATH=src python benchmarks/bench_ttl.py --smoke --check
    PYTHONPATH=src python benchmarks/bench_ttl.py --port 4455 --check

Writes ``BENCH_ttl.json`` (``.smoke.json`` for smoke runs) at the repo
root.  ``--check`` enforces the acceptance bar: zero wrong live
verdicts across >= 3 full window turnovers, expired positive rate
inside the closed-form band, byte-identical snapshot replay, and max
rotation stall under budget.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import pathlib
import sys
import time

from repro.analysis.ttl import generational_fpr
from repro.service.client import ServiceClient
from repro.service.server import CoalescerConfig, FilterService
from repro.store.spec import StoreSpec
from repro.workloads.service import chop_requests
from repro.workloads.ttl import build_ttl_workload

DEFAULT_GENERATIONS = 4
DEFAULT_TURNOVERS = 3
DEFAULT_ARRIVALS = 1500
DEFAULT_TRACERS = 500
DEFAULT_M = 16384
DEFAULT_K = 4
DEFAULT_SKEW = 1.0
DEFAULT_PER_BATCH = 256
DEFAULT_STALL_BUDGET_MS = 100.0


def _reference_store(args):
    """The fault-free mirror, built exactly like the serve CLI's target
    (one shared family instance across generations)."""
    return StoreSpec(m=args.m, k=args.k, family=args.family,
                     generations=args.generations,
                     rotate_items=args.arrivals + args.tracers).build()


def _scrape_ttl_metrics(snapshot: dict) -> dict:
    """Rotation count and stall stats out of a METRICS json snapshot."""
    out = {"rotations": 0, "stall_count": 0,
           "stall_max_ms": 0.0, "stall_p99_ms": 0.0}
    for entry in snapshot.get("metrics", []):
        if entry["name"] == "repro_ttl_rotations_total":
            out["rotations"] = int(entry["value"])
        elif entry["name"] == "repro_ttl_rotation_stall_seconds":
            out["stall_count"] = int(entry["count"])
            out["stall_max_ms"] = round(1e3 * float(entry["max"]), 3)
            out["stall_p99_ms"] = round(1e3 * float(entry["p99"]), 3)
    return out


async def drill(args, client: ServiceClient) -> dict:
    workload = build_ttl_workload(
        n_rounds=args.rounds,
        arrivals_per_round=args.arrivals,
        tracers_per_round=args.tracers,
        skew=args.skew,
        seed=args.seed)
    reference = _reference_store(args)
    distinct = [len(set(stream)) for stream in workload.rounds]

    wrong_live = 0
    live_checked = 0
    expired_probes = 0
    expired_positives = 0
    predicted_sum = 0.0
    predicted_rounds = 0
    query_ms = []

    async def timed_query(elements):
        verdicts = []
        for chunk in chop_requests(elements, args.per_batch):
            t0 = time.perf_counter()
            verdicts.extend((await client.query(chunk)).tolist())
            query_ms.append(1e3 * (time.perf_counter() - t0))
        return verdicts

    for index, stream in enumerate(workload.rounds):
        for chunk in chop_requests(list(stream), args.per_batch):
            await client.add(chunk)
            reference.add_batch(chunk)

        # every element in the live window must still answer MAYBE
        lo = max(0, index - args.generations + 1)
        live = workload.live_elements(tuple(range(lo, index + 1)))
        verdicts = await timed_query(live)
        wrong_live += sum(1 for v in verdicts if not v)
        live_checked += len(live)

        # the round that just rotated out decays to the FPR band
        dead = index - args.generations
        if dead >= 0:
            probes = workload.expired_tracers((dead,))
            verdicts = await timed_query(probes)
            expired_positives += sum(1 for v in verdicts if v)
            expired_probes += len(probes)
            predicted_sum += generational_fpr(
                args.m, args.k,
                [distinct[i] for i in range(lo, index + 1)])
            predicted_rounds += 1

    blob = await client.snapshot()
    snapshot_identical = blob == reference.snapshot()
    ttl_metrics = _scrape_ttl_metrics(await client.metrics("json"))

    observed = (expired_positives / expired_probes
                if expired_probes else 0.0)
    predicted = (predicted_sum / predicted_rounds
                 if predicted_rounds else 0.0)
    query_ms.sort()
    return {
        "correctness": {
            "live_verdicts_checked": live_checked,
            "wrong_live_verdicts": wrong_live,
            "window_turnovers": (ttl_metrics["rotations"]
                                 // args.generations),
        },
        "expiry": {
            "expired_probes": expired_probes,
            "expired_positives": expired_positives,
            "observed_fpr": round(observed, 6),
            "predicted_fpr": round(predicted, 6),
        },
        "replay": {
            "snapshot_bytes": len(blob),
            "snapshot_byte_identical": bool(snapshot_identical),
            "reference_rotations": reference.rotations,
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
    }


async def run(args) -> dict:
    if args.port is not None:
        client = await ServiceClient.connect(
            host=args.host, port=args.port)
        try:
            await client.ping()
            return await drill(args, client)
        finally:
            await client.close()

    service = FilterService(
        _reference_store(args),
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


def render(results: dict) -> str:
    c, e, r, s = (results["correctness"], results["expiry"],
                  results["replay"], results["serving"])
    return "\n".join([
        "correctness: %d live verdicts checked over %d window "
        "turnovers, %d wrong" % (
            c["live_verdicts_checked"], c["window_turnovers"],
            c["wrong_live_verdicts"]),
        "expiry: %d/%d expired probes positive (observed FPR %.4f, "
        "closed form predicts %.4f)" % (
            e["expired_positives"], e["expired_probes"],
            e["observed_fpr"], e["predicted_fpr"]),
        "replay: snapshot %d bytes, byte-identical to the fault-free "
        "reference: %s (%d rotations)" % (
            r["snapshot_bytes"], r["snapshot_byte_identical"],
            r["reference_rotations"]),
        "serving: %d rotations, stall max %.3f ms / p99 %.3f ms; "
        "query p99 %.3f ms over %d batches" % (
            s["rotations"], s["rotation_stall_max_ms"],
            s["rotation_stall_p99_ms"], s["query_p99_ms"],
            s["query_batches"]),
    ])


def check(results: dict, args) -> bool:
    """Acceptance: no early expiry, modelled decay, exact replay,
    bounded stall."""
    c, e, r, s = (results["correctness"], results["expiry"],
                  results["replay"], results["serving"])
    band = max(args.fpr_rel_band * e["predicted_fpr"],
               args.fpr_abs_floor)
    checks = [
        ("zero wrong verdicts for live elements",
         c["wrong_live_verdicts"] == 0),
        (">= %d full window turnovers" % args.turnovers,
         c["window_turnovers"] >= args.turnovers),
        ("expired positive rate %.4f within %.4f of closed form %.4f"
         % (e["observed_fpr"], band, e["predicted_fpr"]),
         abs(e["observed_fpr"] - e["predicted_fpr"]) <= band),
        ("snapshot byte-identical to fault-free reference",
         r["snapshot_byte_identical"]),
        ("max rotation stall %.3f ms under %.1f ms budget"
         % (s["rotation_stall_max_ms"], args.stall_budget_ms),
         s["rotation_stall_max_ms"] <= args.stall_budget_ms),
    ]
    ok = True
    for label, passed in checks:
        print("%s: %s" % ("OK" if passed else "FAIL", label))
        ok = ok and passed
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--generations", type=int,
                        default=DEFAULT_GENERATIONS)
    parser.add_argument("--turnovers", type=int,
                        default=DEFAULT_TURNOVERS,
                        help="full window turnovers the drill must "
                             "cover (rounds = generations*turnovers+1)")
    parser.add_argument("--arrivals", type=int, default=DEFAULT_ARRIVALS,
                        help="Zipf arrivals per round")
    parser.add_argument("--tracers", type=int, default=DEFAULT_TRACERS,
                        help="unique tracer elements per round")
    parser.add_argument("--m", type=int, default=DEFAULT_M)
    parser.add_argument("--k", type=int, default=DEFAULT_K)
    parser.add_argument("--skew", type=float, default=DEFAULT_SKEW)
    parser.add_argument("--family", default="vector64")
    parser.add_argument("--per-batch", type=int,
                        default=DEFAULT_PER_BATCH)
    parser.add_argument("--stall-budget-ms", type=float,
                        default=DEFAULT_STALL_BUDGET_MS)
    parser.add_argument("--fpr-rel-band", type=float, default=0.35)
    parser.add_argument("--fpr-abs-floor", type=float, default=0.005)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=None,
                        help="drill an already-running serve process "
                             "instead of an in-process service (its "
                             "--generations/--rotate-items/--m/--k/"
                             "--family must match)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny workload (CI sanity run)")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero unless the expiry drill's "
                             "acceptance bar holds")
    parser.add_argument("--output", type=pathlib.Path, default=None)
    args = parser.parse_args(argv)

    if args.smoke:
        args.arrivals = min(args.arrivals, 300)
        args.tracers = min(args.tracers, 100)
        args.m = min(args.m, 8192)
        args.fpr_rel_band = max(args.fpr_rel_band, 0.5)
        args.fpr_abs_floor = max(args.fpr_abs_floor, 0.015)
    args.rounds = args.generations * args.turnovers + 1
    if args.output is None:
        name = "BENCH_ttl.smoke.json" if args.smoke else "BENCH_ttl.json"
        args.output = pathlib.Path(__file__).resolve().parent.parent / name

    results = asyncio.run(run(args))
    print(render(results))

    payload = {
        "config": {
            "generations": args.generations,
            "turnovers": args.turnovers, "rounds": args.rounds,
            "arrivals_per_round": args.arrivals,
            "tracers_per_round": args.tracers,
            "rotate_after_items": args.arrivals + args.tracers,
            "m": args.m, "k": args.k, "skew": args.skew,
            "family": args.family, "per_batch": args.per_batch,
            "stall_budget_ms": args.stall_budget_ms,
            "fpr_rel_band": args.fpr_rel_band,
            "fpr_abs_floor": args.fpr_abs_floor,
            "external_port": args.port, "seed": args.seed,
            "smoke": args.smoke,
        },
        "results": results,
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print("wrote %s" % args.output)

    if args.check and not check(results, args):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
