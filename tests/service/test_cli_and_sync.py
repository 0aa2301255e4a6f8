"""CLI subcommands and the blocking client wrapper.

The CLI's ``ping`` and ``bench`` are CI gates (exit codes matter), so
they are tested in-process against a live ephemeral server rather than
mocked; ``serve`` is exercised down to the server-start boundary via
the store spec its flags build and its parser defaults.
"""

from __future__ import annotations

import asyncio
import threading

import numpy as np
import pytest

from repro.core.membership import ShiftingBloomFilter
from repro.cli import spec_from_args
from repro.service.__main__ import (
    _bench,
    _ping,
    build_parser,
)
from repro.service.client import SyncServiceClient
from repro.service.server import CoalescerConfig, FilterService
from repro.store.sharded import ShardedFilterStore
from repro.store.spec import StoreSpec


def start_background_server(target, config=None):
    """A FilterService on its own daemon-thread event loop.

    Returns ``(port, stop)``; tests drive it from plain blocking code,
    exactly how the sync client and CLI are used in the field.
    """
    started = threading.Event()
    box = {}

    async def main():
        service = FilterService(target, config)
        server = await service.start(port=0)
        box["port"] = server.sockets[0].getsockname()[1]
        box["loop"] = asyncio.get_running_loop()
        box["stopped"] = asyncio.Event()
        started.set()
        async with server:
            await box["stopped"].wait()

    thread = threading.Thread(
        target=lambda: asyncio.run(main()), daemon=True)
    thread.start()
    assert started.wait(10)

    def stop():
        box["loop"].call_soon_threadsafe(box["stopped"].set)
        thread.join(10)

    return box["port"], stop


class TestParserAndTargets:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve", "--port", "0"])
        assert args.command == "serve"
        assert args.shards == 4
        assert args.max_batch == 512
        args = build_parser().parse_args(
            ["bench", "--clients", "16", "--n", "100"])
        assert args.clients == 16
        assert args.elements_per_request == 16

    def test_build_target_shapes(self):
        store = StoreSpec(shards=3, m=4096, k=6).build()
        assert isinstance(store, ShardedFilterStore)
        assert store.n_shards == 3
        solo = StoreSpec(shards=0, m=4096, k=6).build()
        assert isinstance(solo, ShiftingBloomFilter)
        assert solo.m == 4096

    def test_serve_flags_build_the_spec(self):
        args = build_parser().parse_args(
            ["serve", "--shards", "3", "--m", "4096", "--k", "6",
             "--family", "blake2b", "--generations", "2",
             "--rotate-items", "50"])
        assert spec_from_args(args) == StoreSpec(
            shards=3, m=4096, k=6, family="blake2b", generations=2,
            rotate_items=50)
        assert spec_from_args(
            build_parser().parse_args(["serve"])) == StoreSpec()


class TestServe:
    def test_serve_preloads_and_answers(self, capsys):
        from repro.service.__main__ import _serve
        from repro.service.client import ServiceClient

        async def main():
            args = build_parser().parse_args(
                ["serve", "--port", "0", "--shards", "2",
                 "--m", "16384", "--preload", "100", "--seed", "9"])
            serve_task = asyncio.ensure_future(_serve(args))
            # Wait for the readiness banner (printed once bound).
            for _ in range(100):
                await asyncio.sleep(0.01)
                out = capsys.readouterr().out
                if "listening on" in out:
                    break
            else:  # pragma: no cover - diagnosis aid
                raise AssertionError("server never reported readiness")
            port = int(out.split(":")[-1].split(" ")[0].strip("()"))
            client = await ServiceClient.connect(port=port)
            try:
                stats = await client.stats()
            finally:
                await client.close()
            serve_task.cancel()
            await asyncio.gather(serve_task, return_exceptions=True)
            return stats

        stats = asyncio.run(main())
        assert stats["n_items"] == 100
        assert stats["n_shards"] == 2


class TestServeWorkers:
    """``serve --workers N`` hands the fleet every serving flag."""

    def run_serve(self, argv, monkeypatch):
        import repro.mpserve.__main__ as mpserve_main
        from repro.service.__main__ import _serve

        launched = []

        async def fake_run_supervisor(config):
            launched.append(config)
            return 0

        monkeypatch.setattr(mpserve_main, "run_supervisor",
                            fake_run_supervisor)
        code = asyncio.run(_serve(build_parser().parse_args(
            ["serve", "--workers", "2"] + argv)))
        return code, launched

    def test_shedding_flags_reach_the_fleet(self, monkeypatch):
        code, launched = self.run_serve(
            ["--adaptive-shed", "--shed-ratio", "0.5", "--max-batch", "64",
             "--shards", "2", "--m", "8192", "--family", "blake2b"],
            monkeypatch)
        assert code == 0
        config = launched[0]
        assert config.workers == 2
        assert config.coalescer == CoalescerConfig(
            max_batch=64, adaptive_shed=True, shed_ratio=0.5)
        assert config.store == StoreSpec(shards=2, m=8192,
                                         family="blake2b")

    @pytest.mark.parametrize("argv,flag", [
        (["--trace-log", "spans.jsonl"], "--trace-log"),
        (["--generations", "3"], "--generations"),
    ])
    def test_unsupported_flags_are_refused(self, argv, flag, monkeypatch,
                                           capsys):
        code, launched = self.run_serve(argv, monkeypatch)
        assert code == 2
        assert launched == []
        assert "%s is not supported with --workers" % flag in (
            capsys.readouterr().err)


class TestPingAndBench:
    def test_ping_success(self, capsys):
        port, stop = start_background_server(
            StoreSpec(shards=2, m=8192, k=6).build())
        try:
            args = build_parser().parse_args(
                ["ping", "--port", str(port), "--retries", "5"])
            assert asyncio.run(_ping(args)) == 0
        finally:
            stop()
        assert "PONG" in capsys.readouterr().out

    def test_ping_failure_exits_nonzero(self, capsys):
        args = build_parser().parse_args(
            ["ping", "--port", "1", "--retries", "2",
             "--retry-delay", "0.01"])
        assert asyncio.run(_ping(args)) == 1
        assert "ping failed" in capsys.readouterr().err

    def test_bench_verifies_members_and_exits_zero(self, capsys):
        port, stop = start_background_server(
            StoreSpec(shards=2, m=65536, k=8).build(),
            CoalescerConfig(max_batch=128, max_delay_us=200))
        try:
            args = build_parser().parse_args(
                ["bench", "--port", str(port), "--clients", "4",
                 "--n", "200", "--seed", "3"])
            assert asyncio.run(_bench(args)) == 0
        finally:
            stop()
        out = capsys.readouterr().out
        assert "OK: every member verdict True" in out
        assert "elements/s" in out

    def test_bench_handles_odd_request_size(self, capsys):
        # With an odd --elements-per-request, batches start at odd
        # global offsets; the member check must track the stream index,
        # not the batch-local one, or healthy servers report FAIL.
        port, stop = start_background_server(
            StoreSpec(shards=2, m=65536, k=8).build(),
            CoalescerConfig(max_batch=128, max_delay_us=200))
        try:
            args = build_parser().parse_args(
                ["bench", "--port", str(port), "--clients", "3",
                 "--n", "120", "--elements-per-request", "15"])
            assert asyncio.run(_bench(args)) == 0
        finally:
            stop()
        assert "OK" in capsys.readouterr().out

    def test_bench_detects_lost_members(self, capsys, monkeypatch):
        # Sabotage the catalog load: with ADD a no-op the members are
        # never inserted, ShBF has no false negatives, so every member
        # verdict is False and bench must exit non-zero.
        from repro.service.client import ServiceClient

        async def dropped_add(self, elements, counts=None):
            return 0

        monkeypatch.setattr(ServiceClient, "add", dropped_add)
        port, stop = start_background_server(
            StoreSpec(shards=2, m=65536, k=8).build())
        try:
            args = build_parser().parse_args(
                ["bench", "--port", str(port), "--clients", "2",
                 "--n", "50", "--seed", "3"])
            assert asyncio.run(_bench(args)) == 1
        finally:
            stop()
        assert "member queries answered False" in capsys.readouterr().err


class TestSyncClient:
    def test_sync_round_trip(self):
        port, stop = start_background_server(
            StoreSpec(shards=2, m=16384, k=8).build(),
            CoalescerConfig(max_batch=64, max_delay_us=100))
        try:
            with SyncServiceClient(port=port) as client:
                assert "ShardedFilterStore" in client.ping()
                assert client.add(["alpha", "beta", "gamma"]) == 3
                verdicts = client.query(["alpha", "beta", "nope"])
                assert isinstance(verdicts, np.ndarray)
                assert verdicts.tolist() == [True, True, False]
                blob = client.snapshot()
                assert blob[:4] == b"SHBS"
                assert client.restore(blob) == 3
                stats = client.stats()
                assert stats["n_items"] == 3
                assert stats["counters"]["elements_added"] == 3
        finally:
            stop()

    def test_sync_client_surfaces_server_errors(self):
        from repro.errors import ProtocolError

        port, stop = start_background_server(
            StoreSpec(shards=2, m=16384, k=8).build())
        try:
            with SyncServiceClient(port=port) as client:
                with pytest.raises(ProtocolError):
                    client.restore(b"junk")
                # connection still healthy afterwards
                assert client.query([b"x"]).tolist() == [False]
        finally:
            stop()

    def test_sync_client_close_is_idempotent(self):
        port, stop = start_background_server(
            StoreSpec(shards=1, m=8192, k=6).build())
        try:
            client = SyncServiceClient(port=port)
            client.ping()
            client.close()
            client.close()  # second close is a no-op
        finally:
            stop()
