"""The ``python -m repro.replication`` entry points.

``drill`` is the acceptance test in CLI form, so it runs for real
(in-process pair, killed primary, promoted standby).  ``probe`` and
``verify`` are exercised against a live pair on a background thread —
the same blocking-caller shape the CI job uses across processes —
including the tampered-record failure path.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
from types import SimpleNamespace

import pytest

from repro.replication.__main__ import (
    _drill,
    _serve,
    _serve_pair,
    build_parser,
    main,
)
from repro.replication.pair import start_pair
from repro.replication.replicator import ReplicationConfig
from repro.service.client import ServiceClient
from repro.store.spec import StoreSpec


class TestParser:
    def test_subcommands_exist(self):
        parser = build_parser()
        for argv, command in [
            (["serve", "--role", "standby"], "serve"),
            (["serve-pair", "--kill-primary-after", "5"], "serve-pair"),
            (["probe", "--write"], "probe"),
            (["verify", "--endpoints", "a:1,b:2"], "verify"),
            (["drill", "--n", "100"], "drill"),
        ]:
            assert parser.parse_args(argv).command == command

    def test_defaults(self):
        args = build_parser().parse_args(["drill"])
        assert args.failover_at == -1   # 3/4 of --n
        assert args.interval_ms == 200
        assert args.shards == 4

    def test_role_is_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--role", "observer"])


class TestDrill:
    def test_drill_passes_end_to_end(self, capsys):
        args = build_parser().parse_args(
            ["drill", "--n", "400", "--seed", "3", "--m", "16384"])
        assert asyncio.run(_drill(args)) == 0
        out = capsys.readouterr().out
        assert "bit-identical: True" in out
        assert "DRILL OK" in out

    def test_drill_via_main(self):
        assert main(["drill", "--n", "200", "--m", "16384"]) == 0


@pytest.fixture
def live_pair():
    """A live attached pair on a daemon-thread event loop, for blocking
    callers — the shape probe/verify meet in the field."""
    started = threading.Event()
    box = {}

    async def serve():
        store = StoreSpec(shards=4, m=16384, k=8, family="blake2b")
        box["pair"] = await start_pair(
            store.build(), store.build(),
            config=ReplicationConfig(interval_ms=50))
        box["loop"] = asyncio.get_running_loop()
        box["stopped"] = asyncio.Event()
        started.set()
        await box["stopped"].wait()
        await box["pair"].close()

    thread = threading.Thread(
        target=lambda: asyncio.run(serve()), daemon=True)
    thread.start()
    assert started.wait(10)
    pair = box["pair"]
    yield SimpleNamespace(
        primary_port=pair.primary_port,
        standby="127.0.0.1:%d" % pair.standby_port,
        endpoints="127.0.0.1:%d,127.0.0.1:%d" % (
            pair.primary_port, pair.standby_port),
        kill_primary=lambda: asyncio.run_coroutine_threadsafe(
            pair.kill_primary(), box["loop"]).result(10))
    box["loop"].call_soon_threadsafe(box["stopped"].set)
    thread.join(10)


def _probe(live, record, *args) -> int:
    return main(["probe", "--port", str(live.primary_port), "--write",
                 "--sync", live.standby, "--out", str(record), *args])


def _verify(live, record, *args) -> int:
    return main(["verify", "--endpoints", live.endpoints,
                 "--expected", str(record), *args])


class TestProbeVerify:
    def test_probe_then_kill_then_verify(self, live_pair, tmp_path):
        record = tmp_path / "verdicts.json"
        workload = ["--n", "600", "--seed", "11"]
        assert _probe(live_pair, record, *workload) == 0
        live_pair.kill_primary()
        assert _verify(live_pair, record, "--promote", *workload) == 0

    def test_verify_catches_tampered_record(self, live_pair, tmp_path):
        record = tmp_path / "verdicts.json"
        workload = ["--n", "300", "--seed", "23"]
        assert _probe(live_pair, record, *workload) == 0
        data = json.loads(record.read_text())
        data["verdicts"][0] ^= 1  # flip one recorded verdict
        record.write_text(json.dumps(data))
        assert _verify(live_pair, record, *workload) == 1

    def test_verify_refuses_a_record_of_another_kill_point(
            self, live_pair, tmp_path, capsys):
        """A record probed with ``--failover-at 300`` names a different
        script than verify's default kill point (450 of 600): verify
        must refuse it by name before querying, not report members
        that were never written as lost."""
        record = tmp_path / "verdicts.json"
        workload = ["--n", "600", "--seed", "11"]
        assert _probe(live_pair, record, "--failover-at", "300",
                      *workload) == 0
        live_pair.kill_primary()
        capsys.readouterr()
        assert _verify(live_pair, record, "--promote", *workload) == 1
        out = capsys.readouterr()
        assert "failover_at=300" in out.err
        assert "answered False" not in out.err
        assert "promoted" not in out.out  # refused before querying
        assert _verify(live_pair, record, "--promote",
                       "--failover-at", "300", *workload) == 0


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestServeCommands:
    def test_serve_standby_then_primary_attaches(self):
        async def scenario():
            sport, pport = _free_port(), _free_port()
            standby_task = asyncio.ensure_future(_serve(
                build_parser().parse_args(
                    ["serve", "--role", "standby", "--port", str(sport),
                     "--m", "16384"])))
            primary_task = asyncio.ensure_future(_serve(
                build_parser().parse_args(
                    ["serve", "--role", "primary", "--port", str(pport),
                     "--standby", "127.0.0.1:%d" % sport,
                     "--preload", "30", "--m", "16384",
                     "--attach-delay", "0.05"])))
            try:
                for _ in range(200):
                    try:
                        standby = await ServiceClient.connect(port=sport)
                    except OSError:
                        await asyncio.sleep(0.05)
                        continue
                    stats = await standby.stats()
                    await standby.close()
                    if (stats["n_items"] == 30
                            and stats["replication"]["role"] == "standby"):
                        return True
                    await asyncio.sleep(0.05)
                return False
            finally:
                for task in (primary_task, standby_task):
                    task.cancel()
                await asyncio.gather(primary_task, standby_task,
                                     return_exceptions=True)

        assert asyncio.run(scenario())

    def test_serve_pair_with_scripted_kill(self):
        async def scenario():
            pport, sport = _free_port(), _free_port()
            task = asyncio.ensure_future(_serve_pair(
                build_parser().parse_args(
                    ["serve-pair", "--primary-port", str(pport),
                     "--standby-port", str(sport), "--preload", "50",
                     "--kill-primary-after", "0.3", "--m", "16384"])))
            try:
                client = None
                for _ in range(200):
                    try:
                        client = await ServiceClient.connect(port=pport)
                        break
                    except OSError:
                        await asyncio.sleep(0.05)
                assert client is not None
                assert (await client.stats())["n_items"] == 50
                await client.close()
                # The scripted kill must take the primary's listener
                # down while the standby keeps serving, fully synced.
                for _ in range(200):
                    try:
                        probe = await ServiceClient.connect(port=pport)
                        await probe.close()
                        await asyncio.sleep(0.05)
                    except OSError:
                        break
                else:
                    raise AssertionError("primary never died")
                standby = await ServiceClient.connect(port=sport)
                stats = await standby.stats()
                await standby.close()
                assert stats["n_items"] == 50
                assert stats["replication"]["role"] == "standby"
                return True
            finally:
                task.cancel()
                await asyncio.gather(task, return_exceptions=True)

        assert asyncio.run(scenario())
