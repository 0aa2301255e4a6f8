"""Serving a generational TTL store: STATS, metrics, snapshots and the
rotation-aware stats cache."""

from __future__ import annotations

import json

import numpy as np

from repro.core.membership import ShiftingBloomFilter
from repro.service.client import ServiceClient
from repro.service.server import FilterService
from repro.store import GenerationalStore, StoreSpec
from tests.conftest import make_elements

MEMBERS = make_elements(400, "svc-gen-member")
ABSENT = make_elements(400, "svc-gen-absent")


def make_store(generations=3, rotate_after_items=0, m=8192):
    return GenerationalStore(
        lambda seq: ShiftingBloomFilter(m=m, k=4),
        generations=generations,
        rotate_after_items=rotate_after_items)


class TestStats:
    def test_ttl_sections_exposed_over_wire(self, service_run):
        store = make_store(rotate_after_items=100)
        store.add_batch(MEMBERS[:40])

        async def scenario(client, service, port):
            return await client.stats()

        stats = service_run(store, scenario)
        assert stats["structure"] == "GenerationalStore"
        assert stats["ttl"] == {
            "generations": 3,
            "rotate_after_items": 100,
            "rotate_after_s": 0.0,
        }
        rows = stats["generations"]
        assert [row["n_items"] for row in rows] == [40, 0, 0]
        assert [row["seq"] for row in rows] == [2, 1, 0]
        assert all(row["age_s"] >= 0.0 for row in rows)
        assert stats["size_bits"] == store.size_bits
        assert stats["n_items"] == 40

    def test_non_generational_target_reports_none(self, service_run):
        async def scenario(client, service, port):
            return await client.stats()

        stats = service_run(ShiftingBloomFilter(m=4096, k=4), scenario)
        assert stats["ttl"] is None
        assert stats["generations"] is None

    def test_stats_cache_rekeys_on_rotation(self, service_run):
        """The satellite regression: rotation changes served geometry
        without changing the target's identity, so a STATS scrape after
        a rotation must not serve the stale static fragment."""
        m_cell = [4096]
        store = GenerationalStore(
            lambda seq: ShiftingBloomFilter(m=m_cell[0], k=4),
            generations=3)

        original_bits = store.size_bits

        async def scenario(client, service, port):
            before = await client.stats()
            m_cell[0] = 16384  # the next head rotates in 4x larger
            service.target.rotate()
            after = await client.stats()
            return before, after

        before, after = service_run(store, scenario)
        assert before["size_bits"] == original_bits
        assert after["size_bits"] == store.size_bits
        assert after["size_bits"] > before["size_bits"]

    def test_stats_json_matches_stats_dict_after_rotation(self):
        service = FilterService(make_store())
        service.stats_json()  # prime the static-fragment cache
        service.target.add_batch(MEMBERS[:10])
        service.target.rotate()

        def ageless(stats):
            # age_s advances between any two samples; everything else
            # must agree exactly
            for row in stats["generations"]:
                row.pop("age_s")
            return stats

        assert ageless(json.loads(service.stats_json())) \
            == ageless(service.stats())


class TestServing:
    def test_wire_verdicts_match_direct_across_rotations(self, service_run):
        direct = make_store()
        direct.add_batch(MEMBERS[:200])
        direct.rotate()
        direct.add_batch(MEMBERS[200:400])

        served = make_store()

        async def scenario(client, service, port):
            await client.add(MEMBERS[:200])
            service.target.rotate()
            await client.add(MEMBERS[200:400])
            return await client.query(MEMBERS + ABSENT)

        wire = service_run(served, scenario)
        assert wire.dtype == np.bool_
        assert wire.tolist() \
            == direct.query_batch(MEMBERS + ABSENT).tolist()
        assert wire[: len(MEMBERS)].all()

    def test_snapshot_restore_over_wire(self, service_run):
        store = make_store(rotate_after_items=500)
        store.add_batch(MEMBERS[:150])
        store.rotate()
        store.add_batch(MEMBERS[150:300])
        probe = MEMBERS[:300] + ABSENT[:300]

        async def scenario(client, service, port):
            blob = await client.snapshot()
            assert blob == service.target.snapshot()
            # restore the SHBG blob into a service hosting a plain filter
            standby = FilterService(ShiftingBloomFilter(m=4096, k=4))
            server = await standby.start(port=0)
            standby_port = server.sockets[0].getsockname()[1]
            other = await ServiceClient.connect(port=standby_port)
            try:
                await other.restore(blob)
                verdicts = await other.query(probe)
                stats = await other.stats()
                re_blob = await other.snapshot()
            finally:
                await other.close()
                server.close()
                await server.wait_closed()
            return blob, re_blob, verdicts, stats

        blob, re_blob, verdicts, stats = service_run(store, scenario)
        assert re_blob == blob
        assert stats["structure"] == "GenerationalStore"
        assert stats["ttl"]["rotate_after_items"] == 500
        assert verdicts.tolist() == store.query_batch(probe).tolist()


    def test_restored_ring_keeps_rotating(self, service_run):
        """Regression: RESTORE installs a ring without its factory, and
        the first write past the trigger used to fail with "store has no
        construction factory"."""
        spec = StoreSpec(generations=3, rotate_items=50, m=8192, k=4)

        async def scenario(client, service, port):
            await client.add(MEMBERS[:61])
            await client.restore(await client.snapshot())
            await client.add(MEMBERS[61:121])
            await client.add(MEMBERS[121:140])
            return await client.stats(), await client.query(MEMBERS[:140])

        stats, verdicts = service_run(spec.build(), scenario)
        assert [row["n_items"] for row in stats["generations"]] \
            == [19, 60, 61]
        assert stats["size_bits"] == spec.build().size_bits
        assert verdicts.all()


class TestRotationMetrics:
    def test_rotations_counter_stall_histogram_and_gauge(self, service_run):
        store = make_store(generations=4)

        async def scenario(client, service, port):
            service.target.rotate()
            service.target.rotate()
            return await client.metrics("text")

        text = service_run(store, scenario)
        assert "repro_ttl_rotations_total 2" in text
        assert "repro_ttl_live_generations 4" in text
        assert "repro_ttl_rotation_stall_seconds_count 2" in text

    def test_gauge_reads_zero_for_plain_targets(self, service_run):
        async def scenario(client, service, port):
            return await client.metrics("text")

        text = service_run(ShiftingBloomFilter(m=4096, k=4), scenario)
        assert "repro_ttl_live_generations 0" in text
        assert "repro_ttl_rotations_total 0" in text
