"""Cross-process bit-identity drill: the fleet vs a fault-free reference.

A real supervisor spawns one writer plus four read workers; the test
drives mixed reads and writes through :class:`ServiceClient` against
the shared serve port and replays **every** verdict against an
in-process reference built with identical parameters.  Because the
filters are deterministic, "equivalent" means *bit-identical* — the
fleet must agree with the reference on false positives too, not just
on members.  Writes route worker → writer; the drill barriers on the
writer's ``pending_writes == 0`` (publish is synchronous on the writer
loop, so that statement is exact) before reading them back.

The second scenario SIGKILLs a worker mid-stream and requires the
fleet to keep answering correctly while the supervisor restarts it —
the client reconnects past the dead worker, then queries the
replacement on its admin port, and not one verdict may differ from the
reference.
"""

from __future__ import annotations

import asyncio
import os
import signal

import pytest

from repro.mpserve.fleet import (
    fleet_stats,
    query_replacement,
    query_riding,
    wait_published,
)
from repro.mpserve.supervisor import MultiWorkerSupervisor, SupervisorConfig
from repro.service.client import ServiceClient
from repro.store.spec import StoreSpec

from tests.conftest import make_elements

HOST = "127.0.0.1"
STORE = StoreSpec(shards=4, m=65536, k=8, family="vector64")


def fleet_config(**overrides) -> SupervisorConfig:
    params = dict(
        workers=4, host=HOST, store=STORE, publish_interval_ms=5.0,
        restart_backoff_s=0.1)
    params.update(overrides)
    return SupervisorConfig(**params)


class TestFleetEquivalence:
    def test_mixed_stream_is_bit_identical_to_reference(self):
        async def drill():
            sup = MultiWorkerSupervisor(fleet_config())
            reference = STORE.build()
            wrong = 0
            try:
                await sup.start()
                clients = [
                    await ServiceClient.connect(HOST, sup.serve_port)
                    for _ in range(4)]
                writes = [make_elements(80, "round%d" % r)
                          for r in range(5)]
                absent = make_elements(600, "never-added")
                written: list[bytes] = []
                for round_no, batch in enumerate(writes):
                    acked = await clients[round_no % 4].add(batch)
                    assert acked == len(batch)
                    reference.add_batch(batch)
                    written.extend(batch)
                    await wait_published(HOST, sup.writer_port)
                    # Mixed read-back: everything written so far, a
                    # slice of never-written probes (FP-sensitive), and
                    # a preview of *future* writes which must not leak.
                    future = [e for w in writes[round_no + 1:]
                              for e in w]
                    probe = written + absent[:200] + future
                    expected = list(reference.query_batch(probe))
                    for client in clients:
                        verdicts = await client.query(probe)
                        wrong += sum(
                            1 for got, want in zip(verdicts, expected)
                            if got != want)
                assert wrong == 0, (
                    "%d verdicts differ from the fault-free reference"
                    % wrong)
                # Exact accounting: every forwarded ADD reached the
                # writer exactly once.
                stats = await fleet_stats(HOST, sup.writer_port)
                assert stats["n_items"] == reference.n_items
                for client in clients:
                    await client.close()
            finally:
                await sup.stop()

        asyncio.run(drill())

    def test_worker_kill9_mid_stream_recovers_without_wrong_answers(self):
        async def drill():
            sup = MultiWorkerSupervisor(fleet_config())
            reference = STORE.build()
            try:
                await sup.start()
                members = make_elements(150, "survivor")
                absent = make_elements(300, "ghost")
                client = await ServiceClient.connect(
                    HOST, sup.serve_port)
                assert await client.add(members) == len(members)
                await client.close()
                reference.add_batch(members)
                await wait_published(HOST, sup.writer_port)
                probe = members + absent
                expected = list(reference.query_batch(probe))

                victim = sup.stats()["workers"][0]
                os.kill(victim["pid"], signal.SIGKILL)

                # Mid-crash stream: every answered query must still be
                # bit-identical; each round connects anew, so rounds
                # spread over the workers and dead connections are
                # ridden over.
                for _ in range(20):
                    verdicts = await query_riding(
                        HOST, sup.serve_port, probe)
                    assert verdicts == expected
                    await asyncio.sleep(0.05)

                # The replacement itself, on its admin port, answers
                # identically too.
                replacement, verdicts = await query_replacement(
                    HOST, sup.control_port, victim, probe)
                assert replacement["restarts"] >= 1
                assert replacement["pid"] != victim["pid"]
                assert verdicts == expected
            finally:
                await sup.stop()

        asyncio.run(drill())
