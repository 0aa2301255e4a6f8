"""Multi-process serving benchmark: does adding workers add throughput?

Two real fleets run side by side — a **1-worker** supervisor (the
single-process coalesced serve, with the same forwarding and publish
machinery so nothing else differs) and an **N-worker** fleet (default
4).  Seeded member/absent query streams are driven by *separate client
processes* (the load generator must not share a GIL with either
contender, or it becomes the thing being measured), and every verdict
is checked against the drill harness's oracle (:mod:`repro.workloads.
drill`: a store of the fleet's spec preloaded with the same seeded
catalog) once the clock has stopped — a fleet that scales by answering
garbage fails the run, not just the gate.

Timing follows the paired-concurrent estimator this repo's benchmarks
settled on in PR 8: both fleets serve their load **at the same time**
in every round, so machine drift lands on both sides of the ratio, and
the scale factor is the geometric mean of per-round elapsed ratios.

Run directly::

    PYTHONPATH=src python benchmarks/bench_mpserve.py
    PYTHONPATH=src python benchmarks/bench_mpserve.py --smoke
    PYTHONPATH=src python benchmarks/bench_mpserve.py --check

Writes ``BENCH_mpserve.json`` (``.smoke.json`` for smoke runs) at the
repo root, always recording ``cores``.  ``--check`` enforces two bars:

* **correctness, unconditionally** — zero wrong verdicts in every
  driver of every round: no false negatives, and false positives
  bit-identical to the oracle's;
* **scaling, where physics allows** — the N-worker fleet must serve
  >= 3x the 1-worker throughput, enforced when the box has at least
  4 cores.  On smaller machines the scaling bar is reported as an
  explicit SKIP (a 1-core container cannot run 4 workers faster than
  1 no matter how good the architecture is), never silently passed
  off as a measurement.
"""

from __future__ import annotations

import asyncio
import math
import multiprocessing
import os
import sys

from repro.mpserve.supervisor import MultiWorkerSupervisor, SupervisorConfig
from repro.service.client import ServiceClient
from repro.store.spec import StoreSpec
from repro.workloads.drill import Contract, Oracle, bench_main, drive
from repro.workloads.service import build_service_workload

HOST = "127.0.0.1"
REQUIRED_SCALE = 3.0
MIN_CORES = 4


# ----------------------------------------------------------------------
# Client driver (runs in its own spawned process)
# ----------------------------------------------------------------------
async def _driver_async(port: int, driver_id: int, n_drivers: int,
                        n: int, seed: int, per_request: int,
                        n_clients: int, pipeline: int, spec: StoreSpec,
                        conn) -> None:
    requests = build_service_workload(n, seed=seed).request_stream(
        per_request)
    ops = [("query", requests[i])
           for i in range(driver_id, len(requests), n_drivers)]
    clients = []
    for _ in range(n_clients):
        clients.append(await ServiceClient.connect(
            HOST, port, connect_timeout=10.0, op_timeout=60.0))
    conn.send(("connected", driver_id))
    while not conn.poll(0.01):
        await asyncio.sleep(0.005)
    conn.recv()  # the parent's "go" — both fleets start together
    run = await drive(clients, ops, pipeline)
    for client in clients:
        await client.close()
    # Checked once the clock has stopped: the writer preloaded the
    # seeded catalog into a store of *spec*, and so does the oracle.
    contract = Contract(Oracle(spec, preload=n, seed=seed))
    contract.replay(ops, run)
    conn.send(("done", driver_id, run.elapsed_s,
               sum(len(batch) for _, batch in ops),
               contract.wrong_verdicts))


def driver_main(*args) -> None:
    """Spawn entry point for one load-generator process."""
    asyncio.run(_driver_async(*args))


# ----------------------------------------------------------------------
# Paired rounds
# ----------------------------------------------------------------------
async def _run_paired_round(ports: dict, args, spec: StoreSpec) -> dict:
    """One round: every contender's drivers run simultaneously.

    Spawns ``args.drivers`` client processes per contender, waits for
    all of them to finish connecting, releases them together, and
    returns per-contender ``(elapsed, served, mismatches)`` where
    elapsed is the slowest driver's wall clock (they run the same
    stream slices concurrently).
    """
    ctx = multiprocessing.get_context("spawn")
    procs = []  # (name, process, parent_conn)
    for name, port in ports.items():
        for driver_id in range(args.drivers):
            parent_conn, child_conn = ctx.Pipe()
            process = ctx.Process(
                target=driver_main,
                args=(port, driver_id, args.drivers, args.n, args.seed,
                      args.per_request, args.clients_per_driver,
                      args.pipeline, spec, child_conn),
                daemon=True)
            process.start()
            child_conn.close()
            procs.append((name, process, parent_conn))

    async def recv(conn):
        while not conn.poll():
            await asyncio.sleep(0.01)
        return conn.recv()

    for _name, _process, conn in procs:
        message = await recv(conn)
        assert message[0] == "connected", message
    for _name, _process, conn in procs:
        conn.send("go")

    out = {name: {"elapsed": 0.0, "served": 0, "mismatches": 0}
           for name in ports}
    for name, process, conn in procs:
        message = await recv(conn)
        assert message[0] == "done", message
        _tag, _driver_id, elapsed, served, mismatches = message
        row = out[name]
        row["elapsed"] = max(row["elapsed"], elapsed)
        row["served"] += served
        row["mismatches"] += mismatches
        process.join(timeout=10)
    return out


async def bench(args) -> dict:
    contenders = {
        "workers_1": 1,
        "workers_%d" % args.workers: args.workers,
    }
    sups = {}
    for name, workers in contenders.items():
        sups[name] = MultiWorkerSupervisor(SupervisorConfig(
            workers=workers, host=HOST, preload=args.n,
            seed=args.seed, publish_interval_ms=25.0))
        await sups[name].start()
    ports = {name: sup.serve_port for name, sup in sups.items()}
    spec = sups["workers_1"].config.store
    names = list(contenders)
    baseline, fleet = names[0], names[1]

    try:
        await _run_paired_round(ports, args, spec)  # warm-up, discarded
        best = {name: float("inf") for name in names}
        served = {name: 0 for name in names}
        mismatches = {name: 0 for name in names}
        log_ratio_sum = 0.0
        for _round in range(args.rounds):
            result = await _run_paired_round(ports, args, spec)
            for name in names:
                best[name] = min(best[name], result[name]["elapsed"])
                served[name] = result[name]["served"]
                mismatches[name] += result[name]["mismatches"]
            # Same queries on both sides: the elapsed ratio IS the
            # throughput ratio for this round.
            log_ratio_sum += math.log(
                result[baseline]["elapsed"] / result[fleet]["elapsed"])
        scale_ratio = round(math.exp(log_ratio_sum / args.rounds), 3)
        generations = {name: sup.generation()
                       for name, sup in sups.items()}
    finally:
        for sup in sups.values():
            await sup.stop()

    contract = Contract()
    for name in names:
        contract.check(
            "%s_verdicts" % name, mismatches[name] == 0,
            "%s answered %d queries with %d verdicts off the oracle"
            % (name, served[name], mismatches[name]))
    # A 1-core box cannot run N workers faster than 1: below MIN_CORES
    # the ratio is reported as a SKIP, never judged.
    cores = os.cpu_count()
    judged = cores is not None and cores >= MIN_CORES
    contract.check(
        "scaling", scale_ratio >= REQUIRED_SCALE if judged else None,
        "%s serves %.3fx the 1-worker throughput (bar: %.1fx on >= %d "
        "cores; this box has %s)" % (fleet, scale_ratio, REQUIRED_SCALE,
                                     MIN_CORES, cores))
    return {
        "cores": cores,
        "drivers": args.drivers,
        "clients_per_driver": args.clients_per_driver,
        "rounds": args.rounds,
        "rows": [{
            "contender": name,
            "workers": contenders[name],
            "elements_per_s": (round(served[name] / best[name])
                               if best[name] > 0 else 0),
            "queries": served[name],
            "mismatches": mismatches[name],
            "generation": generations[name],
        } for name in names],
        "scale_ratio": scale_ratio,
        "scale_contenders": [baseline, fleet],
        "contract": contract.report(),
    }


def _smoke(args) -> None:
    args.n = min(args.n, 600)
    args.workers = 2
    args.drivers = 1
    args.clients_per_driver = 4
    args.rounds = 1


def main(argv=None) -> int:
    return bench_main(
        "mpserve", __doc__, lambda args: asyncio.run(bench(args)), _smoke,
        argv, n=4000, workers=4, per_request=32, drivers=2,
        clients_per_driver=8, pipeline=4, rounds=3, seed=0)


if __name__ == "__main__":
    sys.exit(main())
