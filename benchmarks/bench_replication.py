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
the repo root.  ``--check`` enforces the drill harness's verdict
contract (:mod:`repro.workloads.drill`) on both sides of the kill:
the primary's and the standby's verdicts on the read mix agree with an
oracle replaying the acknowledged writes (no false negatives, false
positives bit-identical), the promoted standby holds exactly the
oracle's ``n_items``, the standby's verdicts are bit-identical to the
primary's and the quiesced snapshots are byte-identical.
"""

from __future__ import annotations

import asyncio
import sys
import time

from repro.replication.failover import FailoverClient
from repro.replication.pair import failover_script, start_pair
from repro.replication.replicator import ReplicationConfig
from repro.service.client import ServiceClient
from repro.service.server import CoalescerConfig, FilterService
from repro.store.spec import StoreSpec
from repro.workloads.drill import Contract, Oracle, bench_main, drive
from repro.workloads.service import build_service_workload, chop_requests


COALESCER = CoalescerConfig(max_batch=512, max_delay_us=200,
                            max_inflight=4096)


def _spec(args) -> StoreSpec:
    return StoreSpec(shards=args.shards, m=args.m_per_shard, k=args.k,
                     family="blake2b")


async def _drive(port: int, ops, n_clients: int) -> float:
    """Round-robin *ops* over one-at-a-time clients; wall seconds."""
    clients = await asyncio.gather(
        *(ServiceClient.connect(port=port) for _ in range(n_clients)))
    try:
        return (await drive(clients, ops)).elapsed_s
    finally:
        await asyncio.gather(*(c.close() for c in clients))


async def bench(args) -> dict:
    _, pre, _, mix = failover_script(
        build_service_workload(args.n, seed=args.seed), -1, args.per_batch)
    # Each client sends its writes before its reads.
    ops = ([("add", b) for b in pre]
           + [("query", b) for b in chop_requests(mix, args.per_batch)])
    n_elements = sum(len(b) for _, b in ops)
    contract = Contract(Oracle(_spec(args)))
    for batch in pre:
        contract.oracle.add(batch)

    # --- 1. baseline: identical load, no replication ------------------
    solo = FilterService(_spec(args).build(), COALESCER)
    solo_server = await solo.start(port=0)
    solo_s = await _drive(solo_server.sockets[0].getsockname()[1], ops,
                          args.clients)
    await solo.kill(solo_server)

    # --- 2. replicated primary, same load ------------------------------
    pair = await start_pair(
        _spec(args).build(), _spec(args).build(), coalescer=COALESCER,
        config=ReplicationConfig(interval_ms=args.interval_ms,
                                 max_staleness_batches=32))
    try:
        repl_s = await _drive(pair.primary_port, ops, args.clients)
        quiesce_start = time.perf_counter()
        await pair.repl.ship()
        quiesce_ms = (time.perf_counter() - quiesce_start) * 1e3
        link = pair.repl.standbys[0]
        ship_stats = link.stats_dict()

        # --- standby equivalence after quiesce --------------------------
        blobs = []
        for port in (pair.standby_port, pair.primary_port):
            probe = await ServiceClient.connect(port=port)
            blobs.append(await probe.snapshot())
            await probe.close()
        standby_blob, primary_blob = blobs

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
        await client.close()
        contract.items(pair.standby_service.target.n_items)
    finally:
        await pair.close()

    contract.verdicts(mix, standby_verdicts)
    false_negatives = contract.false_negatives
    contract.verdicts(mix, primary_verdicts)
    consistent = bool((standby_verdicts == primary_verdicts).all())
    contract.check("standby_bit_identical", consistent,
                   "standby verdicts bit-identical")
    contract.check("snapshots_byte_identical", standby_blob == primary_blob,
                   "quiesced snapshots byte-identical")
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
            "snapshots_byte_identical": standby_blob == primary_blob,
        },
        "contract": contract.report(),
    }


def _smoke(args) -> None:
    args.n = min(args.n, 800)
    args.m_per_shard = min(args.m_per_shard, 32768)


def main(argv=None) -> int:
    return bench_main(
        "replication", __doc__, lambda args: asyncio.run(bench(args)),
        _smoke, argv, n=6000, shards=4, m_per_shard=131072, k=8,
        per_batch=64, clients=4, interval_ms=50, seed=0)


if __name__ == "__main__":
    sys.exit(main())
