"""What a fleet is built from: one StoreSpec and one CoalescerConfig.

A bad store spec must fail in the parent, before any child is spawned
(an unknown family used to kill the writer child and surface as an
``EOFError`` in the supervisor), and the whole coalescer config — not a
hand-copied subset of its fields — must reach the writer and every
read worker.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.errors import ConfigurationError
from repro.mpserve.__main__ import build_parser
from repro.mpserve.fleet import fleet_stats
from repro.mpserve.supervisor import MultiWorkerSupervisor, SupervisorConfig
from repro.service.server import CoalescerConfig
from repro.store.spec import StoreSpec

HOST = "127.0.0.1"


class TestParentSideValidation:
    def test_cli_refuses_an_unknown_family(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["serve", "--family", "nope"])
        assert exc.value.code == 2
        assert "invalid choice: 'nope'" in capsys.readouterr().err

    def test_library_config_refuses_an_unknown_family(self):
        with pytest.raises(ConfigurationError, match="nope"):
            SupervisorConfig(store=StoreSpec(family="nope"))

    @pytest.mark.parametrize("spec", [
        StoreSpec(generations=3),
        StoreSpec(structure="association"),
    ])
    def test_unpublishable_stores_are_refused(self, spec):
        with pytest.raises(ConfigurationError):
            SupervisorConfig(store=spec)

    def test_defaults_match_the_serving_cli(self):
        config = SupervisorConfig()
        assert config.store == StoreSpec()
        assert config.coalescer == CoalescerConfig()


class TestCoalescerReachesEveryProcess:
    def test_writer_and_worker_serve_the_whole_config(self):
        coalescer = CoalescerConfig(max_batch=64, max_delay_us=100,
                                    max_inflight=256, adaptive_shed=True,
                                    shed_ratio=0.5)

        async def main():
            sup = MultiWorkerSupervisor(SupervisorConfig(
                workers=1, host=HOST,
                store=StoreSpec(shards=2, m=8192, k=8),
                coalescer=coalescer, restart_backoff_s=0.1))
            try:
                await sup.start()
                ports = [sup.writer_port,
                         sup.stats()["workers"][0]["admin_port"]]
                return [await fleet_stats(HOST, port) for port in ports]
            finally:
                await sup.stop()

        writer, worker = asyncio.run(main())
        assert worker["mpserve"]["role"] == "worker"
        for stats in (writer, worker):
            assert stats["coalescer"] == {
                "max_batch": 64, "max_delay_us": 100,
                "max_inflight": 256, "adaptive_shed": True,
                "shed_ratio": 0.5,
            }
        assert writer["n_shards"] == 2
