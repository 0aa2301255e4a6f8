"""Replicating a generational TTL store: merge deltas between
rotations, replace-all-slots after one, byte-identical standbys."""

from __future__ import annotations

import pytest

from repro.core.membership import ShiftingBloomFilter
from repro.service import protocol
from repro.store import GenerationalStore, StoreSpec
from tests.conftest import make_elements

MEMBERS = make_elements(600, "repl-gen-member")
ABSENT = make_elements(600, "repl-gen-absent")


def make_gen_store(generations=3, m=8192):
    return GenerationalStore(
        lambda seq: ShiftingBloomFilter(m=m, k=4),
        generations=generations)


def gen_pair():
    """Identical primary/standby targets for the pair fixture."""
    return make_gen_store(), make_gen_store()


class TestSteadyState:
    def test_writes_ship_as_one_head_merge_delta(self, pair_run):
        primary_target, standby_target = gen_pair()

        async def scenario(ctx):
            primary = await ctx.connect_primary()
            standby = await ctx.connect_standby()
            try:
                await primary.add(MEMBERS[:200])
                summary = await ctx.repl.ship()
                assert summary == {
                    "epoch": 1, "shipped": 1, "standbys": 1}
                mix = MEMBERS[:200] + ABSENT[:200]
                p = await primary.query(mix)
                s = await standby.query(mix)
                assert (p == s).all()
                stats = await standby.stats()
                assert stats["structure"] == "GenerationalStore"
                assert stats["n_items"] == 200
                # between rotations only the head slot receives a delta
                assert stats["replication"]["shards_merged"] == 1
                assert stats["replication"]["shards_replaced"] == 0
            finally:
                await primary.close()
                await standby.close()

        pair_run(scenario, primary_target=primary_target,
                 standby_target=standby_target)

    def test_quiesced_snapshots_are_byte_identical(self, pair_run):
        primary_target, standby_target = gen_pair()

        async def scenario(ctx):
            primary = await ctx.connect_primary()
            standby = await ctx.connect_standby()
            try:
                for start in range(0, 300, 100):
                    await primary.add(MEMBERS[start : start + 100])
                    await ctx.repl.ship()
                assert (await primary.snapshot()
                        == await standby.snapshot())
            finally:
                await primary.close()
                await standby.close()

        pair_run(scenario, primary_target=primary_target,
                 standby_target=standby_target)


class TestRotation:
    def test_rotation_ships_replace_blobs_for_every_slot(self, pair_run):
        primary_target, standby_target = gen_pair()

        async def scenario(ctx):
            primary = await ctx.connect_primary()
            standby = await ctx.connect_standby()
            try:
                await primary.add(MEMBERS[:150])
                await ctx.repl.ship()
                # rotation shifts every slot's identity: the next ship
                # must send authoritative blobs for all of them
                ctx.primary_service.target.rotate()
                await primary.add(MEMBERS[150:300])
                await ctx.repl.ship()
                stats = await standby.stats()
                assert stats["replication"]["shards_replaced"] == 3
                rows = stats["generations"]
                assert [row["n_items"] for row in rows] == [150, 150, 0]
                assert (await primary.snapshot()
                        == await standby.snapshot())
                mix = MEMBERS[:300] + ABSENT[:300]
                p = await primary.query(mix)
                s = await standby.query(mix)
                assert (p == s).all()
            finally:
                await primary.close()
                await standby.close()

        pair_run(scenario, primary_target=primary_target,
                 standby_target=standby_target)

    def test_expiry_reaches_the_standby(self, pair_run):
        """An element rotated off the primary's ring stops answering
        MAYBE on the standby too — expiry replicates."""
        primary_target, standby_target = gen_pair()

        async def scenario(ctx):
            primary = await ctx.connect_primary()
            standby = await ctx.connect_standby()
            try:
                await primary.add(MEMBERS[:50])
                await ctx.repl.ship()
                assert (await standby.query(MEMBERS[:50])).all()
                for _ in range(3):  # walk the batch off the 3-slot ring
                    ctx.primary_service.target.rotate()
                await ctx.repl.ship()
                assert not (await primary.query(MEMBERS[:50])).any()
                assert not (await standby.query(MEMBERS[:50])).any()
                assert (await standby.stats())["n_items"] == 0
            finally:
                await primary.close()
                await standby.close()

        pair_run(scenario, primary_target=primary_target,
                 standby_target=standby_target)

    def test_standby_promote_serves_the_window(self, pair_run):
        primary_target, standby_target = gen_pair()

        async def scenario(ctx):
            primary = await ctx.connect_primary()
            standby = await ctx.connect_standby()
            try:
                await primary.add(MEMBERS[:100])
                ctx.primary_service.target.rotate()
                await primary.add(MEMBERS[100:200])
                await ctx.repl.ship()
                await ctx.kill_primary()
                assert "promoted to primary" in await standby.promote()
                verdicts = await standby.query(MEMBERS[:200])
                assert verdicts.all()
            finally:
                await primary.close()
                await standby.close()

        pair_run(scenario, primary_target=primary_target,
                 standby_target=standby_target)


class TestAttach:
    def test_attach_ships_full_generational_snapshot(self, pair_run):
        primary_target = make_gen_store()
        primary_target.add_batch(MEMBERS[:120])
        primary_target.rotate()
        primary_target.add_batch(MEMBERS[120:240])
        standby_target = make_gen_store()

        async def scenario(ctx):
            standby = await ctx.connect_standby()
            try:
                stats = await standby.stats()
                assert stats["n_items"] == 240
                rows = stats["generations"]
                assert [row["n_items"] for row in rows] == [120, 120, 0]
                assert (await standby.query(MEMBERS[:240])).all()
            finally:
                await standby.close()

        pair_run(scenario, primary_target=primary_target,
                 standby_target=standby_target)


def _record_deltas(service) -> list:
    """Wrap *service*'s dispatch; returns the list each DELTA's
    ``(slot, mode)`` entry shapes are appended to."""
    shapes = []
    dispatch = service._dispatch

    async def recording(op, payload, trace_id=None):
        if op == protocol.OP_DELTA:
            _, _, entries = protocol.DELTA.decode(payload)
            shapes.append([(slot, mode) for slot, mode, _ in entries])
        return await dispatch(op, payload, trace_id)

    service._dispatch = recording
    return shapes


class TestSlotEntries:
    def test_idem_only_ship_carries_only_the_idem_entry(self, pair_run):
        """An ADD_IDEM with no elements leaves every slot untouched, so
        the ship holds the dedup window and no (empty) head merge."""
        primary_target, standby_target = gen_pair()
        probe = MEMBERS[:100] + ABSENT[:100]

        async def scenario(ctx):
            shapes = _record_deltas(ctx.standby_service)
            primary = await ctx.connect_primary()
            standby = await ctx.connect_standby()
            try:
                await primary.add(MEMBERS[:100])
                await ctx.repl.ship()
                before = await standby.stats()
                verdicts = await standby.query(probe)
                await primary.add_idem(0xAB, 1, [])
                assert (await ctx.repl.ship())["shipped"] == 1
                after = await standby.stats()
                assert shapes[-1] == [(0, protocol.MODE_IDEM)]
                assert after["replication"]["shards_merged"] == \
                    before["replication"]["shards_merged"]
                assert after["n_items"] == before["n_items"] == 100
                assert after["idempotency"]["window"] == 1
                assert ((await standby.query(probe)) == verdicts).all()
            finally:
                await primary.close()
                await standby.close()

        pair_run(scenario, primary_target=primary_target,
                 standby_target=standby_target)

    def test_more_rotations_than_slots_between_ships(self, pair_run):
        """Every slot holds a fresh filter after G+ rotations; each one
        must ship replace-mode, whatever addresses the retired filters
        had."""
        primary_target, standby_target = gen_pair()

        async def scenario(ctx):
            shapes = _record_deltas(ctx.standby_service)
            primary = await ctx.connect_primary()
            try:
                await primary.add(MEMBERS[:50])
                await ctx.repl.ship()
                for start in range(50, 300, 50):
                    ctx.primary_service.target.rotate()
                    await primary.add(MEMBERS[start:start + 50])
                await ctx.repl.ship()
                assert shapes[-1] == [
                    (slot, protocol.MODE_REPLACE) for slot in range(3)]
                assert await primary.snapshot() == \
                    ctx.standby_service.target.snapshot()
            finally:
                await primary.close()

        pair_run(scenario, primary_target=primary_target,
                 standby_target=standby_target)


class TestRotationAfterInstall:
    def test_promoted_standby_rotates_past_the_trigger(self, pair_run):
        """Regression: a standby's ring arrives through SUBSCRIBE without
        its factory; once promoted, the first write past the trigger
        used to fail with "store has no construction factory"."""
        spec = StoreSpec(generations=3, rotate_items=50, m=8192, k=4)

        async def scenario(ctx):
            primary = await ctx.connect_primary()
            standby = await ctx.connect_standby()
            try:
                await primary.add(MEMBERS[:60])
                await ctx.repl.ship()
                await ctx.kill_primary()
                await standby.promote()
                await standby.add(MEMBERS[60:120])
                stats = await standby.stats()
                assert [row["n_items"] for row in stats["generations"]] \
                    == [60, 60, 0]
                assert stats["size_bits"] == spec.build().size_bits
                assert (await standby.query(MEMBERS[:120])).all()
            finally:
                await primary.close()
                await standby.close()

        pair_run(scenario, primary_target=spec.build(),
                 standby_target=spec.build())
