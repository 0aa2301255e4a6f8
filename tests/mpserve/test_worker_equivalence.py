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
the client rides over the dead connection by reconnecting, and not one
verdict may differ from the reference.
"""

from __future__ import annotations

import asyncio
import os
import signal

import pytest

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


def reference_target():
    return STORE.build()


async def wait_published(sup: MultiWorkerSupervisor,
                         timeout_s: float = 10.0) -> None:
    """Barrier: every acknowledged write is in a published generation.

    ``WriterService.publish_now`` clears ``pending_writes`` in the same
    synchronous step that publishes, so "pending_writes == 0" read off
    the writer's own STATS is an exact statement, not a heuristic.
    """
    deadline = asyncio.get_running_loop().time() + timeout_s
    while True:
        try:
            client = await ServiceClient.connect(
                HOST, sup.writer_port, connect_timeout=2.0,
                op_timeout=5.0)
            try:
                stats = await client.stats()
            finally:
                await client.close()
            if stats["mpserve"]["pending_writes"] == 0:
                return
        except (ConnectionError, OSError):
            pass  # writer mid-restart; retry until the deadline
        if asyncio.get_running_loop().time() > deadline:
            raise AssertionError("writes never drained into a publish")
        await asyncio.sleep(0.02)


async def query_riding_over_crashes(sup, client, batch):
    """Query, reconnecting if the serving worker just died."""
    for _attempt in range(20):
        if client is None:
            try:
                client = await ServiceClient.connect(
                    HOST, sup.serve_port, connect_timeout=2.0,
                    op_timeout=5.0)
            except (ConnectionError, OSError):
                await asyncio.sleep(0.1)
                continue
        try:
            return await client.query(batch), client
        except (ConnectionError, OSError):
            await client.close()
            client = None
    raise AssertionError("no worker answered within 20 reconnects")


class TestFleetEquivalence:
    def test_mixed_stream_is_bit_identical_to_reference(self):
        async def drill():
            sup = MultiWorkerSupervisor(fleet_config())
            reference = reference_target()
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
                    await wait_published(sup)
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
                writer = await ServiceClient.connect(
                    HOST, sup.writer_port)
                stats = await writer.stats()
                await writer.close()
                assert stats["n_items"] == reference.n_items
                for client in clients:
                    await client.close()
            finally:
                await sup.stop()

        asyncio.run(drill())

    def test_worker_kill9_mid_stream_recovers_without_wrong_answers(self):
        async def drill():
            sup = MultiWorkerSupervisor(fleet_config())
            reference = reference_target()
            try:
                await sup.start()
                members = make_elements(150, "survivor")
                absent = make_elements(300, "ghost")
                client = await ServiceClient.connect(
                    HOST, sup.serve_port)
                assert await client.add(members) == len(members)
                reference.add_batch(members)
                await wait_published(sup)
                probe = members + absent
                expected = list(reference.query_batch(probe))

                victim = sup.stats()["workers"][0]
                os.kill(victim["pid"], signal.SIGKILL)

                # Mid-crash stream: every answered query must still be
                # bit-identical; connection failures are ridden over.
                for _ in range(20):
                    verdicts, client = await query_riding_over_crashes(
                        sup, client, probe)
                    assert list(verdicts) == expected
                    await asyncio.sleep(0.05)

                deadline = asyncio.get_running_loop().time() + 30.0
                while sup.stats()["workers_alive"] < 4:
                    assert (asyncio.get_running_loop().time()
                            < deadline), "killed worker never restarted"
                    await asyncio.sleep(0.1)
                stats = sup.stats()
                assert stats["workers"][0]["restarts"] >= 1
                assert stats["workers"][0]["pid"] != victim["pid"]
                # The replacement answers identically too.
                verdicts, client = await query_riding_over_crashes(
                    sup, client, probe)
                assert list(verdicts) == expected
                if client is not None:
                    await client.close()
            finally:
                await sup.stop()

        asyncio.run(drill())
