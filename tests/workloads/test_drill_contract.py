"""The drill harness's contract checker bites: negative controls.

Each doctored target breaks one clause of the verdict contract while
the drill driver runs the chaos drill's seeded op sequence through it,
in process and without sockets.  The honest store must pass all four
clauses; each doctored one must fail exactly the clauses its fault
breaks:

* a dropped acknowledged write shows up as a false negative and as
  ``n_items`` below the oracle's;
* a write applied twice shows up only as ``n_items`` above it;
* one absent verdict flipped to True shows up only as a false positive
  the oracle does not share.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.chaos.drill import op_sequence
from repro.store.spec import StoreSpec
from repro.workloads.drill import (
    Contract,
    Oracle,
    drive,
    print_checks,
    render,
)
from repro.workloads.service import build_service_workload

SPEC = StoreSpec(shards=4, m=16384, k=8)
CLAUSES = {"no_false_negatives", "false_positives_identical",
           "no_lost_writes", "no_duplicate_writes"}


class StoreClient:
    """A client whose ``add``/``query`` land on a local store."""

    def __init__(self):
        self.store = SPEC.build()
        self.adds = 0
        self.queries = 0

    async def add(self, batch):
        self.adds += 1
        self.store.add_batch(self.written(batch))
        return len(batch)

    async def query(self, batch):
        self.queries += 1
        return self.answered(np.asarray(self.store.query_batch(batch)))

    def written(self, batch):
        return batch

    def answered(self, verdicts):
        return verdicts


class DroppedWrite(StoreClient):
    def written(self, batch):
        return batch[1:] if self.adds == 1 else batch


class DoubledWrite(StoreClient):
    def written(self, batch):
        return batch + batch[:1] if self.adds == 1 else batch


class FlippedVerdict(StoreClient):
    def answered(self, verdicts):
        if self.queries == 1:
            verdicts = verdicts.copy()
            verdicts[np.flatnonzero(~verdicts)[0]] = True
        return verdicts


def failed_clauses(client) -> set:
    ops = list(op_sequence(build_service_workload(200, seed=7), 40))
    contract = Contract(Oracle(SPEC))
    contract.replay(ops, asyncio.run(drive([client], ops)))
    contract.items(client.store.n_items)
    report = contract.report()
    names = {c["name"] for c in report["checks"]}
    assert names == CLAUSES
    failed = {c["name"] for c in report["checks"] if not c["ok"]}
    assert report["ok"] == (not failed)
    return failed


@pytest.mark.parametrize("client,failing", [
    (StoreClient, set()),
    (DroppedWrite, {"no_false_negatives", "no_lost_writes"}),
    (DoubledWrite, {"no_duplicate_writes"}),
    (FlippedVerdict, {"false_positives_identical"}),
])
def test_each_fault_fails_its_clause(client, failing):
    assert failed_clauses(client()) == failing


def test_drive_spreads_ops_round_robin_in_order():
    class Recorder:
        def __init__(self):
            self.seen = []

        async def query(self, batch):
            self.seen.append(batch[0])
            await asyncio.sleep(0)
            return np.ones(len(batch), dtype=bool)

    clients = [Recorder(), Recorder(), Recorder()]
    ops = [("query", [i]) for i in range(10)]
    run = asyncio.run(drive(clients, ops, pipeline=2))
    assert [c.seen for c in clients] == [[0, 3, 6, 9], [1, 4, 7], [2, 5, 8]]
    assert sorted(run.acked) == list(range(10))
    assert all(end >= start for start, end in run.spans)


def test_oracle_free_contract_checks_members_only():
    contract = Contract(Oracle())
    contract.oracle.add([b"a"])
    assert contract.verdicts([b"a", b"b"], [False, True]) == 1
    assert [c["name"] for c in contract.report()["checks"]] \
        == ["no_false_negatives"]


def test_checks_print_and_render(capsys):
    contract = Contract()
    contract.check("held", True, "a bar that held")
    contract.check("broken", False, "a bar that broke")
    contract.check("unjudged", None, "a bar this box cannot judge")
    report = contract.report()
    assert not report["ok"]
    assert not print_checks(report["checks"])
    assert capsys.readouterr().out.splitlines() == [
        "OK: a bar that held", "FAIL: a bar that broke",
        "SKIP: a bar this box cannot judge"]
    assert render({"a": 1, "b": {"c": 0.5}, "rows": [{"d": "x"}],
                   "contract": report}) == [
        "results: a=1", "b: c=0.5", "rows[0]: d=x"]
