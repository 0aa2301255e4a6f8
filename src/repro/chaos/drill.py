"""The chaos drill: a scripted fault storm with a checkable verdict.

:func:`run_drill` stands up, in one process and one event loop, the
full serving stack the paper's deployment story implies — a sharded
primary behind a :class:`~repro.replication.ReplicatedFilterService`,
a warm standby, and a :class:`~repro.chaos.proxy.ChaosProxy` in front
of the primary — then drives a seeded write/read sequence
(:func:`op_sequence`) through a hardened
:class:`~repro.replication.FailoverClient` while the proxy injects the
scripted faults.  It is a scenario of the drill harness
(:mod:`repro.workloads.drill`): one driver runs the ops, and the
harness's contract checker replays every acknowledged write into a
fault-free oracle built from the same :class:`~repro.store.StoreSpec`.
Three invariants come out of it:

* **zero wrong verdicts** — every query answer matches the oracle
  (bit-identical by construction, so even false positives agree);
* **zero duplicate-applied writes** — the primary's ``n_items`` equals
  the oracle's, proving that every write retried across a reset or
  failover was applied exactly once by the idempotency window;
* **nothing hangs** — no single client op took longer than its
  deadline plus the failover budget.

The returned report carries the per-invariant verdicts, the
harness's check-by-check ``contract`` report, the client's resilience
counters, the server's counters and the proxy's injection summary, and
is JSON-serialisable as-is (the CLI and the CI smoke job dump it
verbatim).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, fields
from typing import Iterator, List, Optional, Tuple

from repro.chaos.faults import FaultSchedule, default_drill_schedule
from repro.chaos.proxy import ChaosProxy
from repro.obs.metrics import Histogram
from repro.replication.failover import FailoverClient
from repro.replication.pair import start_pair
from repro.replication.replicator import ReplicationConfig
from repro.retry import BackoffPolicy
from repro.store.spec import StoreSpec
from repro.workloads.drill import Contract, Oracle, drive
from repro.workloads.service import ServiceWorkload, build_service_workload

__all__ = ["DrillConfig", "op_sequence", "run_drill"]


@dataclass(frozen=True)
class DrillConfig:
    """Everything a drill run depends on, seeded and explicit.

    Attributes:
        n: members written over the whole drill.
        per_batch: elements per write batch.
        seed: seeds the workload, the fault schedule's jitter and the
            client's retry backoff — same seed, same drill.
        op_timeout: per-attempt client deadline in seconds.
        connect_timeout: bound on each client TCP connect.
        failover_budget: extra seconds an op may take beyond its
            deadline while failing over / retrying before the "nothing
            hangs" invariant is violated.
        shards: primary/standby/reference store shard count.
        m: bits per shard filter.
        k: hash functions per shard filter.
        max_passes: client endpoint walks per op (rides out windows
            where every endpoint momentarily fails).
        faults: the schedule; ``None`` means
            :func:`~repro.chaos.faults.default_drill_schedule`.
    """

    n: int = 400
    per_batch: int = 40
    seed: int = 7
    op_timeout: float = 0.75
    connect_timeout: float = 0.5
    failover_budget: float = 3.0
    shards: int = 4
    m: int = 16384
    k: int = 8
    max_passes: int = 3
    faults: Optional[FaultSchedule] = field(default=None, compare=False)

    def schedule(self) -> FaultSchedule:
        return (self.faults if self.faults is not None
                else default_drill_schedule(seed=self.seed))

    @property
    def store(self) -> StoreSpec:
        """The spec the primary, standby and reference are built from
        (the serving default family, like every other serving path)."""
        return StoreSpec(shards=self.shards, m=self.m, k=self.k)

    def as_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)
               if f.name != "faults"}
        for name in ("op_timeout", "connect_timeout", "failover_budget"):
            out[name + "_s"] = out.pop(name)
        return out


def op_sequence(workload: ServiceWorkload, per_batch: int,
                ) -> Iterator[Tuple[str, List[bytes]]]:
    """The drill's ops: ``("add", batch)`` then ``("query", mix)``.

    Each write batch is followed by one read burst interleaving the
    just-written members with as many absent elements, so every
    queried member was acknowledged before the query is issued: a
    ``False`` under faults is a real violation, not a race.
    """
    mixed = workload.mixed_stream()
    for start in range(0, len(workload.members), per_batch):
        batch = list(workload.members[start : start + per_batch])
        yield "add", batch
        yield "query", mixed[2 * start : 2 * (start + len(batch))]


async def run_drill(config: DrillConfig = DrillConfig()) -> dict:
    """Run one seeded chaos drill; see the module docstring.

    Returns the report dict; ``report["ok"]`` is the overall verdict,
    ``report["invariants"]`` the per-invariant breakdown and
    ``report["contract"]`` the harness's clause-by-clause report.
    """
    schedule = config.schedule()
    schedule.reset()
    workload = build_service_workload(config.n, seed=config.seed)
    ops = list(op_sequence(workload, config.per_batch))
    contract = Contract(Oracle(config.store))
    pair = await start_pair(
        config.store.build(), config.store.build(),
        config=ReplicationConfig(interval_ms=3_600_000))
    proxy = ChaosProxy("127.0.0.1", pair.primary_port, schedule)
    client = None

    async def ship(i: int, _answer) -> None:
        # Ship each write's delta so standby reads stay verdict-exact.
        # The ship rides inside the add's timing window: under faults
        # it is part of what the op budget must absorb.
        if ops[i][0] == "add":
            await pair.repl.ship()

    try:
        await proxy.start()
        client = FailoverClient(
            [("127.0.0.1", proxy.port), ("127.0.0.1", pair.standby_port)],
            op_timeout=config.op_timeout,
            connect_timeout=config.connect_timeout,
            max_passes=config.max_passes,
            backoff=BackoffPolicy(base=0.05, cap=0.5),
            client_id=config.seed + 1,
            rng=random.Random(config.seed),
        )
        run = await drive([client], ops, after=ship)
        contract.items(pair.primary_service.target.n_items)
        server_counters = pair.primary_service.counters.as_dict()
        standby_counters = pair.standby_service.counters.as_dict()
    finally:
        if client is not None:
            await client.close()
        await proxy.close()
        await pair.close()

    contract.replay(ops, run)
    op_budget = config.op_timeout + config.failover_budget
    latencies = run.latencies()
    # Full per-op latency distribution under faults — the report's
    # histogram shares the live METRICS format, so drill artifacts and
    # scrapes merge/compare with the same tooling.
    op_latency = Histogram()
    for seconds in latencies:
        op_latency.observe(seconds)
    slowest_op_s = max(latencies, default=0.0)
    deadline_violations = sum(1 for s in latencies if s > op_budget)
    contract.check("no_op_over_budget", deadline_violations == 0,
                   "no op over its %.3f s budget (slowest %.3f s)"
                   % (op_budget, slowest_op_s))
    report = contract.report()
    duplicate_writes = contract.served_items - contract.oracle.n_items
    invariants = {
        "zero_wrong_verdicts": contract.wrong_verdicts == 0,
        "zero_duplicate_writes": duplicate_writes == 0,
        "no_op_over_budget": deadline_violations == 0,
    }
    return {
        "config": config.as_dict(),
        "ok": report["ok"],
        "invariants": invariants,
        "contract": report,
        "totals": {
            "ops_run": len(run.acked),
            "elements_written": len(workload.members),
            "wrong_verdicts": contract.wrong_verdicts,
            "duplicate_writes": duplicate_writes,
            "deadline_violations": deadline_violations,
            "slowest_op_s": slowest_op_s,
            "op_budget_s": op_budget,
        },
        "op_latency": op_latency.to_dict(),
        "client": client.counters_dict(),
        "server": {
            "primary": server_counters,
            "standby": standby_counters,
        },
        "proxy": proxy.report(),
    }
