"""FailoverClient behaviour: dead primaries, shedding, promotion.

The pair here is real (two services over loopback TCP); primary death
is a closed listener plus aborted connections — the same failure a
killed process presents to clients.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.errors import FailoverExhaustedError, ProtocolError
from repro.replication.failover import FailoverClient, parse_endpoint
from repro.service.server import CoalescerConfig
from repro.workloads.service import build_service_workload


def _workload(n=400, seed=5):
    return build_service_workload(n, seed=seed)


class TestParseEndpoint:
    def test_string_and_tuple(self):
        assert parse_endpoint("10.0.0.1:4000") == ("10.0.0.1", 4000)
        assert parse_endpoint(("h", 1)) == ("h", 1)

    def test_malformed_rejected(self):
        for bad in ("no-port-here", "10.0.0.1:", "host:not-a-number",
                    ":4000"):
            with pytest.raises(ProtocolError, match="host:port"):
                parse_endpoint(bad)


class TestReadFailover:
    def test_reads_survive_primary_death(self, pair_run):
        workload = _workload()

        async def scenario(ctx):
            client = FailoverClient([("127.0.0.1", ctx.primary_port),
                                     ("127.0.0.1", ctx.standby_port)])
            try:
                await client.add(list(workload.members))
                await ctx.repl.ship()
                mix = workload.mixed_stream()
                before = await client.query(mix)  # warm, via primary
                assert client.preferred == 0
                await ctx.kill_primary()
                after = await client.query(mix)   # transparent retry
                assert client.preferred == 1
                assert client.failovers == 1
                assert (before == after).all()
            finally:
                await client.close()

        pair_run(scenario)

    def test_all_endpoints_dead_is_explicit(self, pair_run):
        async def scenario(ctx):
            client = FailoverClient(
                [("127.0.0.1", ctx.primary_port)], op_timeout=2.0)
            try:
                await ctx.kill_primary()
                with pytest.raises(FailoverExhaustedError,
                                   match="all 1 endpoints"):
                    await client.query([b"x"])
            finally:
                await client.close()

        pair_run(scenario)

    def test_shedding_primary_hands_reads_to_standby(self, pair_run):
        workload = _workload(n=100)

        async def scenario(ctx):
            raw = await ctx.connect_primary()
            client = FailoverClient([("127.0.0.1", ctx.primary_port),
                                     ("127.0.0.1", ctx.standby_port)])
            try:
                await raw.add(list(workload.members))
                await ctx.repl.ship()
                # Occupy the primary's single admission slot: this query
                # parks in the coalescer (max_batch is huge, the delay
                # window long), so the next request is shed.
                parked = asyncio.ensure_future(raw.query([b"parked"]))
                await asyncio.sleep(0.01)
                verdicts = await client.query(
                    list(workload.members[:8]))
                assert verdicts.all()
                assert client.preferred == 1  # standby served the read
                await parked
            finally:
                await client.close()
                await raw.close()

        pair_run(scenario, coalescer=CoalescerConfig(
            max_batch=1_000_000, max_delay_us=200_000, max_inflight=1))

    def test_overload_retry_can_be_disabled(self, pair_run):
        from repro.errors import ServiceOverloadedError

        async def scenario(ctx):
            raw = await ctx.connect_primary()
            client = FailoverClient(
                [("127.0.0.1", ctx.primary_port),
                 ("127.0.0.1", ctx.standby_port)],
                retry_overload=False)
            try:
                parked = asyncio.ensure_future(raw.query([b"parked"]))
                await asyncio.sleep(0.01)
                with pytest.raises(ServiceOverloadedError):
                    await client.query([b"x"])
                await parked
            finally:
                await client.close()
                await raw.close()

        pair_run(scenario, coalescer=CoalescerConfig(
            max_batch=1_000_000, max_delay_us=200_000, max_inflight=1))


class TestRemoteRejections:
    def test_live_server_rejection_does_not_fail_over(self, pair_run):
        """A deterministic rejection from a healthy primary (here: a
        RESTORE with garbage bytes) must surface to the caller, not
        burn through the endpoint list — and certainly not promote."""

        async def scenario(ctx):
            client = FailoverClient(
                [("127.0.0.1", ctx.primary_port),
                 ("127.0.0.1", ctx.standby_port)],
                auto_promote=True)
            try:
                with pytest.raises(ProtocolError, match="bad magic"):
                    await client.restore(b"not-a-snapshot")
                assert client.preferred == 0
                assert client.failovers == 0
                standby = await ctx.connect_standby()
                try:
                    assert (await standby.stats())[
                        "replication"]["role"] == "standby"
                finally:
                    await standby.close()
            finally:
                await client.close()

        pair_run(scenario)


class TestWritePath:
    def test_writes_never_land_on_a_standby(self, pair_run):
        async def scenario(ctx):
            client = FailoverClient([("127.0.0.1", ctx.primary_port),
                                     ("127.0.0.1", ctx.standby_port)])
            try:
                await ctx.kill_primary()
                with pytest.raises(FailoverExhaustedError,
                                   match="promote a standby"):
                    await client.add([b"write-during-outage"])
                # The refused write left no trace on the follower.
                assert not (await client.query(
                    [b"write-during-outage"])).any()
            finally:
                await client.close()

        pair_run(scenario)

    def test_write_walks_to_the_primary_role(self, pair_run):
        """Endpoint order wrong (standby listed first): the write must
        skip the follower and land on the primary."""

        async def scenario(ctx):
            client = FailoverClient([("127.0.0.1", ctx.standby_port),
                                     ("127.0.0.1", ctx.primary_port)])
            try:
                await client.add([b"routed-to-primary"])
                primary = await ctx.connect_primary()
                try:
                    assert (await primary.query(
                        [b"routed-to-primary"])).all()
                finally:
                    await primary.close()
            finally:
                await client.close()

        pair_run(scenario)

    def test_auto_promote_completes_the_failover(self, pair_run):
        async def scenario(ctx):
            client = FailoverClient(
                [("127.0.0.1", ctx.primary_port),
                 ("127.0.0.1", ctx.standby_port)],
                auto_promote=True)
            try:
                await ctx.kill_primary()
                await client.add([b"write-after-auto-promote"])
                assert (await client.query(
                    [b"write-after-auto-promote"])).all()
                standby = await ctx.connect_standby()
                try:
                    stats = await standby.stats()
                    assert stats["replication"]["role"] == "primary"
                finally:
                    await standby.close()
            finally:
                await client.close()

        pair_run(scenario)


class TestPromotionAndHealth:
    def test_explicit_promote_prefers_survivor(self, pair_run):
        async def scenario(ctx):
            client = FailoverClient([("127.0.0.1", ctx.primary_port),
                                     ("127.0.0.1", ctx.standby_port)])
            try:
                await ctx.kill_primary()
                banner = await client.promote()
                assert "promoted" in banner
                assert client.preferred == 1
                await client.add([b"post-promote"])
            finally:
                await client.close()

        pair_run(scenario)

    def test_health_reports_roles_and_death(self, pair_run):
        async def scenario(ctx):
            client = FailoverClient([("127.0.0.1", ctx.primary_port),
                                     ("127.0.0.1", ctx.standby_port)])
            try:
                health = await client.health()
                assert [h["role"] for h in health] == [
                    "primary", "standby"]
                assert all(h["alive"] for h in health)
                await ctx.kill_primary()
                health = await client.health()
                assert health[0]["alive"] is False
                assert "error" in health[0]
                assert health[1]["role"] == "standby"
            finally:
                await client.close()

        pair_run(scenario)
