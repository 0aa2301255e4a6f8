"""Cluster scale-out benchmark: 3 real node processes vs a single node.

Boots every node as its own ``python -m repro.cluster serve`` process
(real sockets, real process isolation — the same topology CI's
cluster-smoke job drives) and measures served query elements per
second over a seeded member/absent mix:

* ``single_node`` — the whole catalog on one node, the full request
  stream driven straight at it.  The scale-up ceiling.
* ``cluster_concurrent`` — the same stream through the shard-map-aware
  :class:`ClusterClient` against the 3-node fleet, fan-out and
  reassembly included.  **Read this row with care on a single-CPU
  container**: all three node processes time-share one core, so it
  measures protocol overhead, not parallel capacity.
* ``node_isolated`` (one row per node) — each node serves only the
  slice of the stream that routes to its owned shards, measured one
  node at a time while the others idle.  The sum of these rates is the
  ``aggregate`` fleet-capacity estimate: what the fleet serves when
  each node has its own core/host, which is the deployment the shard
  map exists for.

The acceptance bar (``--check``) is ``aggregate > single_node`` — a
3-way partition must buy capacity over one node — plus the verdict
contract of the drill harness (:mod:`repro.workloads.drill`): every
verdict of both fleets agrees with an oracle store preloaded with the
same catalog, false positives included, the two fleets agree bit for
bit, and the in-process migration drill holds its own contract and
stall budget.

Run directly::

    PYTHONPATH=src python benchmarks/bench_cluster.py
    PYTHONPATH=src python benchmarks/bench_cluster.py --smoke

Writes ``BENCH_cluster.json`` (``.smoke.json`` for smoke runs) at the
repo root.
"""

from __future__ import annotations

import asyncio
import os
import pathlib
import socket
import subprocess
import sys
import tempfile

import numpy as np

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.cluster.client import ClusterClient  # noqa: E402
from repro.cluster.drill import ClusterDrillConfig, run_cluster_drill  # noqa: E402
from repro.cluster.shardmap import ShardMap, bootstrap_map  # noqa: E402
from repro.mpserve.fleet import fleet_stats  # noqa: E402
from repro.retry import BackoffPolicy, call_with_retries  # noqa: E402
from repro.service.client import ServiceClient  # noqa: E402
from repro.store.spec import StoreSpec  # noqa: E402
from repro.workloads.drill import (  # noqa: E402
    Contract,
    Oracle,
    bench_main,
    drive,
)
from repro.workloads.service import build_service_workload  # noqa: E402

BOOT_RETRIES = 60
BOOT_DELAY_S = 0.25
REQUIRED_SPEEDUP = 1.0


def _free_ports(count: int) -> list:
    """Bind-and-release *count* ports so the map can name them upfront."""
    sockets = [socket.socket() for _ in range(count)]
    for sock in sockets:
        sock.bind(("127.0.0.1", 0))
    ports = [sock.getsockname()[1] for sock in sockets]
    for sock in sockets:
        sock.close()
    return ports


class NodeFleet:
    """A set of ``repro.cluster serve`` subprocesses behind one map."""

    def __init__(self, shard_map: ShardMap, map_path: pathlib.Path,
                 args) -> None:
        self.shard_map = shard_map
        self.map_path = map_path
        self.args = args
        self.procs = []

    def start(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        for endpoint in self.shard_map.nodes():
            cmd = [
                sys.executable, "-m", "repro.cluster", "serve",
                "--map", str(self.map_path), "--self", endpoint,
                "--m", str(self.args.m_per_shard),
                "--k", str(self.args.k),
                "--preload", str(self.args.members),
                "--seed", str(self.args.seed),
            ]
            self.procs.append(subprocess.Popen(
                cmd, env=env, cwd=str(REPO_ROOT),
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL))

    async def wait_ready(self) -> None:
        """Until every node answers STATS (each boots in well under
        ``BOOT_RETRIES * BOOT_DELAY_S``)."""
        for endpoint in self.shard_map.nodes():
            host, port = endpoint.rsplit(":", 1)
            await call_with_retries(
                lambda: fleet_stats(host, int(port)),
                policy=BackoffPolicy(base=BOOT_DELAY_S, cap=BOOT_DELAY_S,
                                     jitter="none",
                                     max_attempts=BOOT_RETRIES))

    def stop(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in self.procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        self.procs = []


async def _timed(clients, requests, pipeline: int, repeats: int):
    """Best wall time of *repeats* pipelined passes over *requests*,
    and the last pass's verdicts concatenated in request order."""
    ops = [("query", batch) for batch in requests]
    best = float("inf")
    try:
        for _ in range(repeats):
            run = await drive(clients, ops, pipeline)
            best = min(best, run.elapsed_s)
    finally:
        for client in clients:
            await client.close()
    return best, np.concatenate([np.asarray(a) for a in run.answers])


async def _direct(endpoint: str):
    host, port = endpoint.rsplit(":", 1)
    return [await ServiceClient.connect(host, int(port))]


def _split_by_owner(shard_map: ShardMap, requests):
    """Each request batch split into per-owner sub-batches."""
    router = shard_map.make_router()
    per_node = {endpoint: [] for endpoint in shard_map.nodes()}
    for batch in requests:
        shards = router.route_batch(batch)
        by_owner = {}
        for element, shard_id in zip(batch, shards):
            by_owner.setdefault(
                shard_map.assignments[shard_id], []).append(element)
        for endpoint, sub in by_owner.items():
            per_node[endpoint].append(sub)
    return per_node


async def bench(args, cluster_map: ShardMap, single_map: ShardMap,
                contract: Contract) -> dict:
    workload = build_service_workload(args.members, seed=args.seed)
    requests = workload.request_stream(args.per_request)
    n_queries = sum(len(r) for r in requests)
    rows = []

    # Scale-up ceiling: everything on the single node, direct.
    single_endpoint = single_map.nodes()[0]
    best, single_answers = await _timed(
        await _direct(single_endpoint), requests, args.pipeline,
        args.repeats)
    single_rate = round(n_queries / best)
    rows.append({"scenario": "single_node", "transport": "direct",
                 "endpoint": single_endpoint, "elements": n_queries,
                 "elements_per_s": single_rate})

    # The honest concurrent row: every node time-shares this one CPU.
    best, cluster_answers = await _timed(
        [ClusterClient(cluster_map) for _ in range(args.clients)],
        requests, args.pipeline, args.repeats)
    rows.append({"scenario": "cluster_concurrent",
                 "transport": "cluster_client",
                 "nodes": len(cluster_map.nodes()),
                 "elements": n_queries,
                 "elements_per_s": round(n_queries / best)})

    # Fleet capacity: each node's owned slice, one node at a time.
    per_node = _split_by_owner(cluster_map, requests)
    aggregate = 0.0
    for endpoint in cluster_map.nodes():
        slice_requests = per_node[endpoint]
        slice_n = sum(len(r) for r in slice_requests)
        best, _ = await _timed(await _direct(endpoint), slice_requests,
                               args.pipeline, args.repeats)
        rate = slice_n / best if best > 0 else 0.0
        aggregate += rate
        rows.append({"scenario": "node_isolated", "transport": "direct",
                     "endpoint": endpoint,
                     "owned_shards": list(cluster_map.shards_of(endpoint)),
                     "elements": slice_n,
                     "elements_per_s": round(rate)})

    # Equality: the fleet and the single node must agree bit-for-bit,
    # and both with the oracle.
    answers_equal = bool(
        np.array_equal(cluster_answers, single_answers))
    mix = workload.mixed_stream()
    contract.verdicts(mix, cluster_answers)
    contract.verdicts(mix, single_answers)
    speedup = round(aggregate / single_rate, 3) if single_rate else 0.0
    contract.check("aggregate_speedup", speedup > REQUIRED_SPEEDUP,
                   "aggregate fleet capacity %.3fx of single node "
                   "(bar: > %.2fx)" % (speedup, REQUIRED_SPEEDUP))
    contract.check("answers_equal_to_single_node", answers_equal,
                   "3-node answers bit-identical to single node")

    return {
        "rows": rows,
        "aggregate_elements_per_s": round(aggregate),
        "single_node_elements_per_s": single_rate,
        "aggregate_speedup_vs_single": speedup,
        "aggregate_note": (
            "sum of per-node isolated rates: the fleet's capacity when "
            "each node has its own core/host (this container has one "
            "CPU, so the concurrent row cannot show parallel speedup)"),
        "answers_equal_to_single_node": answers_equal,
    }


def _run_drill_section(args, contract: Contract) -> dict:
    """The in-process migration drill's client-visible stall numbers."""
    config = ClusterDrillConfig(
        n_nodes=args.nodes, n_shards=args.shards,
        m=args.m_per_shard, k=args.k,
        n_members=min(args.members, 2000),
        n_ops=24 if args.smoke else 60,
        per_request=args.per_request,
        migrate_after_ops=8 if args.smoke else 20,
        seed=args.seed)
    report = run_cluster_drill(config)
    contract.absorb(report["contract"], "migration")
    return {
        "ok": report["ok"],
        "flip_window_s": report["migration"]["flip_window_s"],
        "migration_total_s": report["migration"]["total_s"],
        "max_stall_op_latency_s": report["ops"]["max_stall_op_latency_s"],
        "stall_budget_s": report["config"]["stall_budget_s"],
        "wrong_verdicts": (report["ops"]["wrong_verdicts_live"]
                           + report["ops"]["wrong_verdicts_sweep"]),
    }


def run(args) -> dict:
    """Boot both fleets, measure, then run the migration drill."""
    ports = _free_ports(args.nodes + 1)
    cluster_map = bootstrap_map(
        args.shards, ["127.0.0.1:%d" % p for p in ports[:args.nodes]])
    single_map = bootstrap_map(
        args.shards, ["127.0.0.1:%d" % ports[args.nodes]])
    # Every node preloads its owned slice of the seeded catalog.
    contract = Contract(Oracle(
        StoreSpec(shards=args.shards, m=args.m_per_shard, k=args.k,
                  family=cluster_map.router_family),
        router=cluster_map.make_router(),
        preload=args.members, seed=args.seed))

    with tempfile.TemporaryDirectory(prefix="bench-cluster-") as tmp:
        cluster_path = pathlib.Path(tmp) / "cluster-map.json"
        single_path = pathlib.Path(tmp) / "single-map.json"
        cluster_path.write_text(cluster_map.to_json() + "\n")
        single_path.write_text(single_map.to_json() + "\n")

        fleet = NodeFleet(cluster_map, cluster_path, args)
        single = NodeFleet(single_map, single_path, args)
        try:
            fleet.start()
            single.start()

            async def measure() -> dict:
                await fleet.wait_ready()
                await single.wait_ready()
                return await bench(args, cluster_map, single_map,
                                   contract)

            throughput = asyncio.run(measure())
        finally:
            fleet.stop()
            single.stop()

    migration = _run_drill_section(args, contract)
    return {"throughput": throughput, "migration": migration,
            "contract": contract.report()}


def _smoke(args):
    if args.check:
        return ("--check needs the full-size run; drop --smoke (the "
                "smoke workload is too small for a stable throughput "
                "gate)")
    args.members = min(args.members, 600)
    args.m_per_shard = min(args.m_per_shard, 16384)
    args.repeats = 1
    return None


def main(argv=None) -> int:
    return bench_main(
        "cluster", __doc__, run, _smoke, argv, members=6000, nodes=3,
        shards=8, m_per_shard=65536, k=8, per_request=64, clients=4,
        pipeline=4, repeats=2, seed=0)


if __name__ == "__main__":
    sys.exit(main())
