"""Primary→standby synchronisation: the bit-identical contract.

These tests drive writes over the wire into the primary, ship deltas
explicitly, and assert the standby's verdicts — and after a quiesce
its whole SNAPSHOT blob — are identical to the primary's.  They also
pin the epoch discipline (no-op ships are free, retries are
idempotent, gaps force a resync), the staleness trigger, role gating
and promotion.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core.membership import ShiftingBloomFilter
from repro.errors import ReplicationError, StandbyReadOnlyError
from repro.replication.replicator import ReplicationConfig
from repro.workloads.service import build_service_workload
from repro.workloads.sharded import partition_by_shard

#: Must match the pair_run fixture's default geometry.
M_PER_SHARD = 16384


def _workload(n=600, seed=3):
    return build_service_workload(n, seed=seed)


class TestAttachAndShip:
    def test_attach_ships_full_snapshot_and_role(self, pair_run):
        async def scenario(ctx):
            primary = await ctx.connect_primary()
            standby = await ctx.connect_standby()
            try:
                stats = await standby.stats()
                assert stats["replication"]["role"] == "standby"
                assert stats["replication"]["full_snapshots_applied"] == 1
                assert (await primary.stats())[
                    "replication"]["role"] == "primary"
                link = ctx.repl.standbys[0]
                assert link.full_snapshots_sent == 1
                assert link.bytes_sent > 0
            finally:
                await primary.close()
                await standby.close()

        pair_run(scenario)

    def test_delta_ship_is_bit_identical(self, pair_run):
        workload = _workload()

        async def scenario(ctx):
            primary = await ctx.connect_primary()
            standby = await ctx.connect_standby()
            try:
                await primary.add(list(workload.members))
                summary = await ctx.repl.ship()
                assert summary == {
                    "epoch": 1, "shipped": 1, "standbys": 1}
                mix = workload.mixed_stream()
                p = await primary.query(mix)
                s = await standby.query(mix)
                assert (p == s).all()
                # Exact-n_items deltas: the standby is a clone, not an
                # approximation.
                assert (await standby.stats())["n_items"] == len(
                    workload.members)
                # Both sides publish the same epoch — the staleness
                # probe the CLI's --sync flag polls.
                assert (await primary.stats())[
                    "replication"]["epoch"] == 1
                assert (await standby.stats())[
                    "replication"]["epoch"] == 1
            finally:
                await primary.close()
                await standby.close()

        pair_run(scenario)

    def test_quiesced_snapshots_are_byte_identical(self, pair_run):
        workload = _workload()

        async def scenario(ctx):
            primary = await ctx.connect_primary()
            standby = await ctx.connect_standby()
            try:
                # Several write rounds, shipped separately.
                chunk = len(workload.members) // 3
                for start in range(0, 3 * chunk, chunk):
                    await primary.add(
                        list(workload.members[start:start + chunk]))
                    await ctx.repl.ship()
                assert (await primary.snapshot()
                        == await standby.snapshot())
            finally:
                await primary.close()
                await standby.close()

        pair_run(scenario)

    def test_standby_access_stats_survive_merges(self, pair_run):
        """Applying a merge delta swaps the shard object, but the
        serving shard's access counters must stay monotonic — STATS
        going backwards would break the paper's accounting."""

        async def scenario(ctx):
            primary = await ctx.connect_primary()
            standby = await ctx.connect_standby()
            try:
                await primary.add([b"first-%d" % i for i in range(50)])
                await ctx.repl.ship()
                await standby.query([b"first-%d" % i for i in range(50)])
                billed = (await standby.stats())["access"]["read_words"]
                assert billed > 0
                await primary.add([b"second-%d" % i for i in range(50)])
                await ctx.repl.ship()  # merge deltas swap shard objects
                assert (await standby.stats())[
                    "access"]["read_words"] == billed
                await standby.query([b"first-0"])
                assert (await standby.stats())[
                    "access"]["read_words"] > billed
            finally:
                await primary.close()
                await standby.close()

        pair_run(scenario)

    def test_noop_ship_consumes_no_epoch(self, pair_run):
        async def scenario(ctx):
            assert (await ctx.repl.ship())["shipped"] == 0
            assert ctx.repl.epoch == 0
            primary = await ctx.connect_primary()
            try:
                await primary.add([b"one-key"])
                assert (await ctx.repl.ship())["shipped"] == 1
                assert ctx.repl.epoch == 1
                assert (await ctx.repl.ship())["shipped"] == 0
                assert ctx.repl.epoch == 1
            finally:
                await primary.close()

        pair_run(scenario)

    def test_staleness_trigger_ships_without_timer(self, pair_run):
        async def scenario(ctx):
            primary = await ctx.connect_primary()
            try:
                for i in range(3):
                    await primary.add([b"burst-%d" % i])
                for _ in range(100):
                    if ctx.repl.standbys[0].epoch_acked >= 1:
                        break
                    await asyncio.sleep(0.01)
                assert ctx.repl.standbys[0].epoch_acked >= 1
            finally:
                await primary.close()

        # Timer is effectively off (1 hour): only the staleness wake-up
        # can have shipped.
        pair_run(scenario, repl_config=ReplicationConfig(
            interval_ms=3_600_000, max_staleness_batches=2))

    def test_periodic_full_snapshot_resync(self, pair_run):
        async def scenario(ctx):
            primary = await ctx.connect_primary()
            standby = await ctx.connect_standby()
            try:
                for i in range(3):
                    await primary.add([b"k-%d" % i])
                    await ctx.repl.ship()
                link = ctx.repl.standbys[0]
                # full_snapshot_every=1: attach + every ship is full.
                assert link.full_snapshots_sent == 4
                assert link.deltas_sent == 0
                stats = await standby.stats()
                assert stats["replication"][
                    "full_snapshots_applied"] == 4
                assert stats["n_items"] == 3
            finally:
                await primary.close()
                await standby.close()

        pair_run(scenario, repl_config=ReplicationConfig(
            interval_ms=3_600_000, full_snapshot_every=1))


class TestRotationAndRestore:
    def test_rotated_shard_ships_as_replacement(self, pair_run):
        workload = _workload()

        async def scenario(ctx):
            primary = await ctx.connect_primary()
            standby = await ctx.connect_standby()
            try:
                await primary.add(list(workload.members))
                await ctx.repl.ship()
                # Grow shard 0 on the primary: new geometry, new object.
                store = ctx.primary_service.target
                slices = partition_by_shard(
                    workload.members, store.router)
                store.rotate_shard(
                    0, slices[0],
                    factory=lambda s: ShiftingBloomFilter(
                        m=2 * M_PER_SHARD, k=8))
                await ctx.repl.ship()
                mix = workload.mixed_stream()
                assert ((await primary.query(mix))
                        == (await standby.query(mix))).all()
                stats = await standby.stats()
                assert stats["replication"]["shards_replaced"] >= 1
                assert (await primary.snapshot()
                        == await standby.snapshot())
            finally:
                await primary.close()
                await standby.close()

        pair_run(scenario)

    def test_restored_target_forces_full_ship(self, pair_run,
                                              store_factory):
        workload = _workload(n=200)

        async def scenario(ctx):
            primary = await ctx.connect_primary()
            standby = await ctx.connect_standby()
            try:
                donor = store_factory()
                donor.add_batch(list(workload.members))
                await primary.restore(donor.snapshot())
                await ctx.repl.ship()
                link = ctx.repl.standbys[0]
                assert link.full_snapshots_sent == 2  # attach + resync
                assert (await primary.snapshot()
                        == await standby.snapshot())
            finally:
                await primary.close()
                await standby.close()

        pair_run(scenario)


class TestEpochDiscipline:
    def test_gap_is_refused_and_resynced(self, pair_run):
        async def scenario(ctx):
            primary = await ctx.connect_primary()
            standby = await ctx.connect_standby()
            try:
                with pytest.raises(ReplicationError, match="epoch gap"):
                    await standby.delta(5, entries=[])
                # The primary's own pipeline self-heals the same way:
                # mark the link stale and ship — it must fall back to a
                # full snapshot.
                ctx.repl.standbys[0].needs_full = True
                await primary.add([b"after-the-gap"])
                await ctx.repl.ship()
                assert ctx.repl.standbys[0].full_snapshots_sent == 2
                assert (await standby.query([b"after-the-gap"])).all()
            finally:
                await primary.close()
                await standby.close()

        pair_run(scenario)

    def test_stale_epoch_retry_is_idempotent(self, pair_run):
        async def scenario(ctx):
            primary = await ctx.connect_primary()
            standby = await ctx.connect_standby()
            try:
                await primary.add([b"only-once"])
                await ctx.repl.ship()
                before = await standby.stats()
                # A duplicate of the already-applied epoch: acknowledged,
                # not re-applied (re-merging would inflate n_items).
                await standby.delta(1, entries=[])
                after = await standby.stats()
                assert after["n_items"] == before["n_items"] == 1
                assert (after["replication"]["deltas_applied"]
                        == before["replication"]["deltas_applied"])
            finally:
                await primary.close()
                await standby.close()

        pair_run(scenario)

    def test_delta_requires_subscription(self, pair_run):
        async def scenario(ctx):
            primary = await ctx.connect_primary()
            try:
                with pytest.raises(ReplicationError, match="SUBSCRIBE"):
                    await primary.delta(1, entries=[])
            finally:
                await primary.close()

        pair_run(scenario)


class TestRolesAndPromotion:
    def test_standby_refuses_writes(self, pair_run, store_factory):
        async def scenario(ctx):
            standby = await ctx.connect_standby()
            try:
                with pytest.raises(StandbyReadOnlyError):
                    await standby.add([b"illegal-write"])
                with pytest.raises(StandbyReadOnlyError):
                    await standby.restore(store_factory().snapshot())
                # Reads stay open on a follower.
                assert len(await standby.query([b"x"])) == 1
            finally:
                await standby.close()

        pair_run(scenario)

    def test_promote_reopens_writes(self, pair_run):
        async def scenario(ctx):
            standby = await ctx.connect_standby()
            try:
                banner = await standby.promote()
                assert "promoted" in banner
                assert (await standby.stats())[
                    "replication"]["role"] == "primary"
                await standby.add([b"post-promotion-write"])
                assert (await standby.query(
                    [b"post-promotion-write"])).all()
            finally:
                await standby.close()

        pair_run(scenario)
