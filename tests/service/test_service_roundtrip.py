"""Round-trip equivalence: the service is invisible to correctness.

The acceptance bar of the service PR: verdicts obtained through the
wire protocol — with concurrent clients feeding the micro-batching
coalescer — must match direct ``ShardedFilterStore.query_batch`` calls
bit for bit, and SNAPSHOT→RESTORE over the wire must reproduce
identical store state (snapshot blobs byte-equal).
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.core.association import ShiftingAssociationFilter
from repro.core.multiplicity import ShiftingMultiplicityFilter
from repro.errors import (
    ProtocolError,
    ServiceOverloadedError,
    UnsupportedOperationError,
)
from repro.service.client import ServiceClient
from repro.service.server import CoalescerConfig, FilterService
from repro.store.spec import StoreSpec
from repro.workloads.service import build_service_workload

N_SHARDS = 3
M_PER_SHARD = 16384
K = 8


def make_store():
    return StoreSpec(shards=N_SHARDS, m=M_PER_SHARD, k=K,
                     family="blake2b").build()


def make_loaded_pair(workload):
    """A direct ground-truth store and an identical one to serve."""
    direct, served = make_store(), make_store()
    direct.add_batch(list(workload.members))
    served.add_batch(list(workload.members))
    return direct, served


class TestMembershipRoundTrip:
    @pytest.mark.parametrize("config", [
        CoalescerConfig(max_batch=64, max_delay_us=200),
        CoalescerConfig(max_batch=1),          # uncoalesced scalar path
    ])
    def test_wire_verdicts_match_direct_store(self, service_run, config):
        workload = build_service_workload(600, seed=13)
        direct, served = make_loaded_pair(workload)
        requests = workload.request_stream(16)
        flat = [e for batch in requests for e in batch]
        expected = direct.query_batch(flat)

        async def scenario(client, service, port):
            async def one_client(offset):
                extra = await ServiceClient.connect(port=port)
                try:
                    out = []
                    for i in range(offset, len(requests), 4):
                        out.append((i, await extra.query(requests[i])))
                    return out
                finally:
                    await extra.close()

            slices = await asyncio.gather(*(one_client(c)
                                            for c in range(4)))
            ordered = [None] * len(requests)
            for per_client in slices:
                for i, verdicts in per_client:
                    ordered[i] = verdicts
            return np.concatenate(ordered)

        wire = service_run(served, scenario, config)
        assert wire.dtype == np.bool_
        assert (wire == expected).all()

    def test_add_over_wire_builds_identical_state(self, service_run):
        workload = build_service_workload(400, seed=5)
        direct = make_store()
        direct.add_batch(list(workload.members))

        # Serve an *empty* store; load the catalog through concurrent
        # ADDs so the add coalescer is exercised too.
        served = make_store()
        member_requests = [list(workload.members[i : i + 32])
                           for i in range(0, len(workload.members), 32)]

        async def load_members(client, service, port):
            await asyncio.gather(*(client.add(chunk)
                                   for chunk in member_requests))
            return service.target.snapshot()

        blob = service_run(served, load_members,
                           CoalescerConfig(max_batch=128, max_delay_us=200))
        # Bit-identical shard state: the snapshots agree byte for byte.
        assert blob == direct.snapshot()

    def test_snapshot_restore_over_wire(self, service_run):
        workload = build_service_workload(300, seed=21)
        direct, served = make_loaded_pair(workload)
        probe = workload.mixed_stream()

        async def scenario(client, service, port):
            blob = await client.snapshot()
            standby = FilterService(make_store())
            server = await standby.start(port=0)
            standby_port = server.sockets[0].getsockname()[1]
            other = await ServiceClient.connect(port=standby_port)
            try:
                restored = await other.restore(blob)
                verdicts = await other.query(probe)
                re_blob = await other.snapshot()
            finally:
                await other.close()
                server.close()
                await server.wait_closed()
            return blob, restored, verdicts, re_blob

        blob, restored, verdicts, re_blob = service_run(served, scenario)
        assert blob == direct.snapshot()
        assert restored == len(workload.members)
        assert re_blob == blob  # RESTORE reproduced identical state
        assert (verdicts == direct.query_batch(probe)).all()


class TestOtherQueryTypes:
    def test_association_answers_round_trip(self, service_run):
        filt = ShiftingAssociationFilter(m=8192, k=6)
        s1 = [b"s1-%03d" % i for i in range(200)]
        s2 = [b"s2-%03d" % i for i in range(200)] + s1[:60]
        filt.build_batch(s1, s2)
        probe = s1[:80] + s2[:80]
        expected = filt.query_batch(probe)

        async def scenario(client, service, port):
            halves = await asyncio.gather(
                client.query_multi(probe[:80]),
                client.query_multi(probe[80:]))
            return halves[0] + halves[1]

        wire = service_run(
            filt, scenario, CoalescerConfig(max_batch=64, max_delay_us=200))
        assert wire == expected

    def test_multiplicity_counts_round_trip(self, service_run):
        filt = ShiftingMultiplicityFilter(m=8192, k=4, c_max=16)
        elements = [b"flow-%03d" % i for i in range(120)]
        counts = [(i % 7) + 1 for i in range(120)]
        direct = ShiftingMultiplicityFilter(m=8192, k=4, c_max=16)
        direct.add_batch(elements, counts)
        probe = elements + [b"absent-%03d" % i for i in range(40)]
        expected = direct.query_batch(probe)

        async def scenario(client, service, port):
            await client.add(elements, counts)
            return await client.query(probe)

        wire = service_run(filt, scenario)
        assert wire.dtype == np.int64
        assert (wire == expected).all()

    def test_multiplicity_counts_round_trip_scalar_path(self, service_run):
        # With max_batch=1 each element runs through the scalar query;
        # the wire still carries query_batch's int64 reported counts.
        filt = ShiftingMultiplicityFilter(m=8192, k=4, c_max=16)
        elements = [b"flow-%03d" % i for i in range(60)]
        filt.add_batch(elements, [(i % 7) + 1 for i in range(60)])
        probe = elements + [b"absent-%03d" % i for i in range(20)]
        expected = filt.query_batch(probe)

        async def scenario(client, service, port):
            return await client.query(probe)

        wire = service_run(filt, scenario, CoalescerConfig(max_batch=1))
        assert wire.dtype == np.int64
        assert wire.tolist() == expected.tolist()


class TestOperationalSurface:
    def test_ping_and_stats(self, service_run):
        workload = build_service_workload(200, seed=2)
        store = make_store()
        store.add_batch(list(workload.members))

        async def scenario(client, service, port):
            banner = await client.ping()
            await client.query(workload.mixed_stream()[:64])
            return banner, await client.stats()

        banner, stats = service_run(store, scenario)
        assert "ShardedFilterStore" in banner
        assert stats["n_items"] == 200
        assert stats["n_shards"] == N_SHARDS
        assert stats["structure"] == "ShardedFilterStore"
        assert stats["counters"]["elements_queried"] == 64
        assert stats["counters"]["requests_total"] >= 2
        assert stats["access"]["read_words"] > 0
        assert stats["coalescer"]["max_batch"] == 512

    def test_server_errors_surface_with_original_message(
            self, service_run):
        async def scenario(client, service, port):
            with pytest.raises(ProtocolError) as excinfo:
                await client.restore(b"not-a-snapshot")
            assert "bad magic" in str(excinfo.value)
            # QUERY_MULTI against a membership store is a typed refusal.
            with pytest.raises(UnsupportedOperationError) as excinfo:
                await client.query_multi([b"x"])
            assert "QUERY_MULTI" in str(excinfo.value)
            # The connection survives both failures.
            assert (await client.query([b"x"])).tolist() == [False]
            return True

        assert service_run(make_store(), scenario)

    def test_refused_query_multi_counts_no_elements(self, service_run):
        # STATS elements_queried counts answered elements only: a
        # coalesced QUERY_MULTI the target refuses moves it by nothing,
        # as on the scalar path.
        async def scenario(client, service, port):
            with pytest.raises(UnsupportedOperationError):
                await client.query_multi([b"x-1", b"x-2", b"x-3"])
            await client.query([b"y"])
            return await client.stats()

        stats = service_run(make_store(), scenario)
        assert stats["counters"]["elements_queried"] == 1
        assert stats["counters"]["batches_executed"] == 1

    def test_query_multi_typed_refusal_in_scalar_mode(self, service_run):
        # The uncoalesced path must refuse with the same typed error as
        # the coalesced path, not crash into an AttributeError.
        async def scenario(client, service, port):
            with pytest.raises(UnsupportedOperationError) as excinfo:
                await client.query_multi([b"x"])
            assert "QUERY_MULTI" in str(excinfo.value)
            return True

        assert service_run(
            make_store(), scenario, CoalescerConfig(max_batch=1))

    def test_mixed_counts_adds_execute_isolated(self, service_run):
        # A counts-carrying ADD coalescing into the same window as a
        # countless ADD must not poison it: membership shards reject the
        # counts request, the countless one still lands.
        config = CoalescerConfig(max_batch=1000, max_delay_us=5000)

        async def scenario(client, service, port):
            other = await ServiceClient.connect(port=port)
            try:
                good, bad = await asyncio.gather(
                    client.add([b"good-elem"]),
                    other.add([b"bad-elem"], [2]),
                    return_exceptions=True)
            finally:
                await other.close()
            assert good == 1
            assert isinstance(bad, Exception)
            verdicts = await client.query([b"good-elem", b"bad-elem"])
            assert verdicts.tolist() == [True, False]
            return True

        assert service_run(make_store(), scenario, config)

    def test_failed_coalesced_add_counts_no_elements(self, service_run):
        # STATS elements_added counts applied elements only: a batch
        # the target rejects moves it by nothing, as on the scalar path.
        async def scenario(client, service, port):
            with pytest.raises(Exception):
                await client.add([b"bad-1", b"bad-2"], [2, 3])
            await client.add([b"good-elem"])
            return await client.stats()

        stats = service_run(make_store(), scenario)
        assert stats["counters"]["elements_added"] == 1
        assert stats["counters"]["batches_executed"] == 1
        assert stats["n_items"] == 1

    def test_overload_backpressure(self, service_run):
        # One admission slot, a coalescer window far longer than the
        # test: the first query parks in the coalescer, every following
        # pipelined request must be shed with ServiceOverloadedError.
        config = CoalescerConfig(
            max_batch=10_000, max_delay_us=200_000, max_inflight=1)

        async def scenario(client, service, port):
            waiters = [asyncio.ensure_future(client.query([b"q-%d" % i]))
                       for i in range(6)]
            done = await asyncio.gather(*waiters, return_exceptions=True)
            shed = [r for r in done
                    if isinstance(r, ServiceOverloadedError)]
            served = [r for r in done if isinstance(r, np.ndarray)]
            assert len(shed) == 5
            assert len(served) == 1
            assert "max_inflight=1" in str(shed[0])
            stats = await client.stats()
            assert stats["counters"]["overload_rejections"] == 5
            return True

        assert service_run(make_store(), scenario, config)
