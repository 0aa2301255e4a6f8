"""Replication benchmark: shipping overhead and failover latency.

Three questions, answered in one process (loopback TCP, one event
loop), all over the same seeded
:func:`~repro.workloads.service.build_service_workload` stream and its
default kill point (three quarters of the writes acknowledged):

1. **What does replication cost the primary?**  The acknowledged write
   stream plus the read mix is driven through a primary with no
   standby, then through an identical primary shipping deltas to a
   warm standby; the throughput delta is the replication overhead.
2. **What does the wire carry?**  Delta ships, full-snapshot ships and
   bytes shipped, from the replicator's link counters — the cost of
   the shard-wise delta encoding relative to whole-store snapshots.
3. **How fast is failover, and is it correct?**  The primary is killed
   (listener closed, connections aborted); the elapsed time until a
   warm :class:`~repro.replication.FailoverClient` gets its next
   verdict batch from the standby is the failover latency, the
   PROMOTE round-trip is measured separately, and every post-failover
   verdict is compared bit-for-bit against the primary's recorded
   answers.

Run directly::

    PYTHONPATH=src python benchmarks/bench_replication.py
    PYTHONPATH=src python benchmarks/bench_replication.py --smoke

Writes ``BENCH_replication.json`` (``.smoke.json`` for smoke runs) at
the repo root.  ``--check`` enforces the replication PR's acceptance
bar: failover succeeds, zero acknowledged writes are lost, and the
standby's verdicts are bit-identical to the primary's.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import pathlib
import sys
import time

from repro.replication.failover import FailoverClient
from repro.replication.pair import failover_script, start_pair
from repro.replication.replicator import ReplicationConfig
from repro.service.client import ServiceClient
from repro.service.server import CoalescerConfig, FilterService
from repro.store.spec import StoreSpec
from repro.workloads.service import build_service_workload, chop_requests

DEFAULT_N = 6000
DEFAULT_SHARDS = 4
DEFAULT_M_PER_SHARD = 131072
DEFAULT_K = 8
DEFAULT_PER_BATCH = 64
DEFAULT_CLIENTS = 4
DEFAULT_INTERVAL_MS = 50


COALESCER = CoalescerConfig(max_batch=512, max_delay_us=200,
                            max_inflight=4096)


def _store(args):
    return StoreSpec(shards=args.shards, m=args.m_per_shard, k=args.k,
                     family="blake2b").build()


async def _drive(port: int, write_batches, read_batches,
                 n_clients: int) -> float:
    """Round-robin the write then read batches over pipelined clients."""
    clients = await asyncio.gather(
        *(ServiceClient.connect(port=port) for _ in range(n_clients)))

    async def run(client_id: int) -> None:
        client = clients[client_id]
        for i in range(client_id, len(write_batches), n_clients):
            await client.add(write_batches[i])
        for i in range(client_id, len(read_batches), n_clients):
            await client.query(read_batches[i])

    start = time.perf_counter()
    await asyncio.gather(*(run(c) for c in range(n_clients)))
    elapsed = time.perf_counter() - start
    await asyncio.gather(*(c.close() for c in clients))
    return elapsed


async def bench(args) -> dict:
    _, pre, _, mix = failover_script(
        build_service_workload(args.n, seed=args.seed), -1, args.per_batch)
    read_batches = chop_requests(mix, args.per_batch)
    n_elements = sum(len(b) for b in pre) + len(mix)

    # --- 1. baseline: identical load, no replication ------------------
    solo = FilterService(_store(args), COALESCER)
    solo_server = await solo.start(port=0)
    solo_port = solo_server.sockets[0].getsockname()[1]
    solo_s = await _drive(solo_port, pre, read_batches, args.clients)
    await solo.kill(solo_server)

    # --- 2. replicated primary, same load ------------------------------
    pair = await start_pair(
        _store(args), _store(args), coalescer=COALESCER,
        config=ReplicationConfig(interval_ms=args.interval_ms,
                                 max_staleness_batches=32))
    try:
        repl_s = await _drive(pair.primary_port, pre, read_batches,
                              args.clients)
        quiesce_start = time.perf_counter()
        await pair.repl.ship()
        quiesce_ms = (time.perf_counter() - quiesce_start) * 1e3
        link = pair.repl.standbys[0]
        ship_stats = link.stats_dict()

        # --- standby equivalence after quiesce --------------------------
        probe = await ServiceClient.connect(port=pair.standby_port)
        primary_probe = await ServiceClient.connect(port=pair.primary_port)
        standby_blob = await probe.snapshot()
        primary_blob = await primary_probe.snapshot()
        snapshots_identical = standby_blob == primary_blob
        await probe.close()
        await primary_probe.close()

        # --- 3. failover: kill the primary under a warm client ---------
        client = FailoverClient([("127.0.0.1", pair.primary_port),
                                 ("127.0.0.1", pair.standby_port)])
        primary_verdicts = await client.query(mix)  # warm, on primary
        await pair.kill_primary()
        killed_at = time.perf_counter()
        standby_verdicts = await client.query(mix)
        failover_ms = (time.perf_counter() - killed_at) * 1e3
        promote_start = time.perf_counter()
        await client.promote()
        promote_ms = (time.perf_counter() - promote_start) * 1e3
        consistent = bool((standby_verdicts == primary_verdicts).all())
        false_negatives = int(
            sum(1 for v in standby_verdicts[0::2] if not v))
        await client.close()
    finally:
        await pair.close()

    return {
        "throughput": {
            "elements": n_elements,
            "solo_elements_per_s": round(n_elements / solo_s),
            "replicated_elements_per_s": round(n_elements / repl_s),
            "overhead_pct": round(100.0 * (1.0 - solo_s / repl_s), 1),
        },
        "shipping": {
            "deltas_sent": ship_stats["deltas_sent"],
            "full_snapshots_sent": ship_stats["full_snapshots_sent"],
            "bytes_sent": ship_stats["bytes_sent"],
            "snapshot_bytes": len(primary_blob),
            "quiesce_ship_ms": round(quiesce_ms, 2),
            "final_epoch": link.epoch_acked,
        },
        "failover": {
            "failover_read_ms": round(failover_ms, 2),
            "promote_ms": round(promote_ms, 2),
            "verdicts_compared": len(mix),
            "bit_identical": consistent,
            "false_negatives": false_negatives,
            "snapshots_byte_identical": bool(snapshots_identical),
        },
    }


def render(results: dict) -> str:
    t, s, f = (results["throughput"], results["shipping"],
               results["failover"])
    return "\n".join([
        "throughput: solo %d elems/s, replicated %d elems/s "
        "(overhead %.1f%%)" % (
            t["solo_elements_per_s"], t["replicated_elements_per_s"],
            t["overhead_pct"]),
        "shipping: %d deltas + %d full snapshots, %d bytes on the wire "
        "(one full snapshot: %d bytes); quiesce ship %.2f ms" % (
            s["deltas_sent"], s["full_snapshots_sent"], s["bytes_sent"],
            s["snapshot_bytes"], s["quiesce_ship_ms"]),
        "failover: next verdict batch %.2f ms after the kill, "
        "promote %.2f ms; %d verdicts bit-identical=%s "
        "false_negatives=%d snapshots_byte_identical=%s" % (
            f["failover_read_ms"], f["promote_ms"],
            f["verdicts_compared"], f["bit_identical"],
            f["false_negatives"], f["snapshots_byte_identical"]),
    ])


def check(results: dict) -> bool:
    """Acceptance: failover lost nothing and diverged nowhere."""
    f = results["failover"]
    checks = [
        ("standby verdicts bit-identical", f["bit_identical"]),
        ("no acknowledged write lost", f["false_negatives"] == 0),
        ("quiesced snapshots byte-identical",
         f["snapshots_byte_identical"]),
    ]
    ok = True
    for label, passed in checks:
        print("%s: %s" % ("OK" if passed else "FAIL", label))
        ok = ok and passed
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=DEFAULT_N)
    parser.add_argument("--shards", type=int, default=DEFAULT_SHARDS)
    parser.add_argument("--m-per-shard", type=int,
                        default=DEFAULT_M_PER_SHARD)
    parser.add_argument("--k", type=int, default=DEFAULT_K)
    parser.add_argument("--per-batch", type=int,
                        default=DEFAULT_PER_BATCH)
    parser.add_argument("--clients", type=int, default=DEFAULT_CLIENTS)
    parser.add_argument("--interval-ms", type=int,
                        default=DEFAULT_INTERVAL_MS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny workload (CI sanity run)")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero unless failover was "
                             "lossless and bit-identical")
    parser.add_argument("--output", type=pathlib.Path, default=None)
    args = parser.parse_args(argv)

    if args.smoke:
        args.n = min(args.n, 800)
        args.m_per_shard = min(args.m_per_shard, 32768)
    if args.output is None:
        name = ("BENCH_replication.smoke.json" if args.smoke
                else "BENCH_replication.json")
        args.output = pathlib.Path(__file__).resolve().parent.parent / name

    results = asyncio.run(bench(args))
    print(render(results))

    payload = {
        "config": {
            "n": args.n, "shards": args.shards,
            "m_per_shard": args.m_per_shard, "k": args.k,
            "per_batch": args.per_batch, "clients": args.clients,
            "interval_ms": args.interval_ms, "seed": args.seed,
            "smoke": args.smoke,
        },
        "results": results,
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print("wrote %s" % args.output)

    if args.check and not check(results):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
