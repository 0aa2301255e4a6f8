"""Snapshot/delta edge cases on the replication path.

The awkward corners: a standby attaching while a write burst is in
flight, a merge-mode delta hitting a standby whose shard geometry is
stale (it missed a ``rotate_shard``), counting variants that cannot
snapshot at all, and non-sharded targets that can only ship whole.
"""

from __future__ import annotations

import asyncio

import pytest

from repro import persistence
from repro.core.membership import (
    CountingShiftingBloomFilter,
    ShiftingBloomFilter,
)
from repro.errors import (
    ConfigurationError,
    ReplicationError,
    UnsupportedSnapshotError,
)
from repro.service import protocol
from repro.store.sharded import ShardedFilterStore
from repro.workloads.replication import build_replication_workload
from repro.workloads.sharded import partition_by_shard


def _counting_store(n_shards=2, m=4096):
    return ShardedFilterStore(
        lambda shard: CountingShiftingBloomFilter(m=m, k=8),
        n_shards=n_shards)


class TestCountingVariants:
    def test_attach_propagates_unsupported_snapshot(self, pair_run):
        """A counting store cannot seed a standby: the attach fails
        with the dedicated error and leaves no half-attached link."""

        async def scenario(ctx):
            with pytest.raises(UnsupportedSnapshotError):
                await ctx.repl.attach_standby(
                    "127.0.0.1", ctx.standby_port)
            assert ctx.repl.standbys == ()

        pair_run(scenario, primary_target=_counting_store(),
                 attach=False)

    def test_delta_build_propagates_unsupported_snapshot(self, pair_run):
        """A counting shard swapped in *after* attach poisons the next
        delta build the moment that shard takes writes: shipping would
        need its snapshot, which must raise, not silently skip."""

        async def scenario(ctx):
            primary = await ctx.connect_primary()
            try:
                store = ctx.primary_service.target
                store.replace_shard(
                    0, CountingShiftingBloomFilter(m=4096, k=8))
                # Enough writes that some land on shard 0.
                workload = build_replication_workload(64, seed=9)
                await primary.add(list(workload.members))
                with pytest.raises(UnsupportedSnapshotError):
                    await ctx.repl.ship()
            finally:
                await primary.close()

        pair_run(scenario)

    def test_ship_loop_records_error_instead_of_dying(self, pair_run):
        """The background loop survives an unsnapshotable target and
        surfaces the failure through STATS."""
        from repro.replication.replicator import ReplicationConfig

        async def scenario(ctx):
            primary = await ctx.connect_primary()
            try:
                store = ctx.primary_service.target
                store.replace_shard(
                    0, CountingShiftingBloomFilter(m=4096, k=8))
                workload = build_replication_workload(64, seed=9)
                await primary.add(list(workload.members))
                for _ in range(100):
                    if ctx.repl.last_ship_error:
                        break
                    await asyncio.sleep(0.01)
                assert "UnsupportedSnapshotError" in (
                    ctx.repl.last_ship_error or "")
                stats = await primary.stats()
                assert stats["replication"]["last_ship_error"]
            finally:
                await primary.close()

        pair_run(scenario,
                 repl_config=ReplicationConfig(interval_ms=10))


class TestAttachMidWriteBurst:
    def test_attach_during_burst_loses_nothing(self, pair_run):
        """Writers hammer the primary while the standby attaches; after
        a quiesce the pair must be byte-identical — nothing may fall
        between the attach snapshot and the journal."""
        workload = build_replication_workload(800, seed=13)

        async def scenario(ctx):
            primary = await ctx.connect_primary()
            standby = await ctx.connect_standby()
            try:
                batches = [list(workload.members[i : i + 20])
                           for i in range(0, len(workload.members), 20)]

                async def burst():
                    for batch in batches:
                        await primary.add(batch)

                writer = asyncio.ensure_future(burst())
                # Attach while the burst is mid-flight.
                await asyncio.sleep(0.005)
                await ctx.repl.attach_standby(
                    "127.0.0.1", ctx.standby_port)
                await writer
                await ctx.repl.ship()
                assert (await primary.snapshot()
                        == await standby.snapshot())
                mix = workload.members + workload.absent
                assert ((await primary.query(list(mix)))
                        == (await standby.query(list(mix)))).all()
            finally:
                await primary.close()
                await standby.close()

        pair_run(scenario, attach=False)


class TestMissedRotation:
    def test_merge_delta_with_stale_geometry_forces_resync(self, pair_run):
        """A merge-mode delta that no longer matches the standby's
        shard geometry (the standby missed a rotate_shard) must be
        refused — a merge blob holds only the newest writes, so
        swapping it in would drop every earlier key.  The refusal is
        what drives the primary's full-snapshot resync."""
        workload = build_replication_workload(400, seed=17)

        async def scenario(ctx):
            primary = await ctx.connect_primary()
            standby = await ctx.connect_standby()
            try:
                await primary.add(list(workload.acknowledged))
                await ctx.repl.ship()
                # A delta clone in the primary's *post-rotation*
                # geometry, as if the replace marker from the rotation
                # epoch had been lost.
                store = ctx.primary_service.target
                slices = partition_by_shard(
                    workload.acknowledged, store.router)
                stale = ShiftingBloomFilter(
                    m=2 * store.shards[0].m, k=8)
                stale.add_batch([b"late-write"])
                epoch = (await standby.stats())["replication"]["epoch"]
                with pytest.raises(ReplicationError,
                                   match="full resync required"):
                    await standby.delta(epoch + 1, entries=[
                        (0, protocol.MODE_MERGE,
                         persistence.dumps(stale))])
                # The shard was left untouched: every acknowledged key
                # still answers, and the epoch did not advance.
                stats = await standby.stats()
                assert stats["replication"]["epoch"] == epoch
                assert stats["replication"]["shards_replaced"] == 0
                assert (await standby.query(slices[0])).all()
                # The real pipeline's reaction: the failed send marks
                # the link, and the next ship resyncs in full.
                ctx.repl.standbys[0].needs_full = True
                await primary.add([b"post-refusal-write"])
                await ctx.repl.ship()
                assert (await primary.snapshot()
                        == await standby.snapshot())
            finally:
                await primary.close()
                await standby.close()

        pair_run(scenario)


class TestWrongKindReplaceEntry:
    def test_container_blob_as_replace_entry_is_refused(self, pair_run):
        """A replace entry installs one filter into one slot; a whole
        ``SHBS`` store container there must be refused by the strict
        single-filter loader, not swapped in as a shard."""
        workload = build_replication_workload(200, seed=23)

        async def scenario(ctx):
            primary = await ctx.connect_primary()
            standby = await ctx.connect_standby()
            try:
                await primary.add(list(workload.acknowledged))
                await ctx.repl.ship()
                store = ctx.primary_service.target
                slices = partition_by_shard(
                    workload.acknowledged, store.router)
                before = ctx.standby_service.target.shards[0]
                epoch = (await standby.stats())["replication"]["epoch"]
                with pytest.raises(ConfigurationError, match="magic"):
                    await standby.delta(epoch + 1, entries=[
                        (0, protocol.MODE_REPLACE,
                         persistence.dumps(store))])
                assert ctx.standby_service.target.shards[0] is before
                stats = await standby.stats()
                assert stats["replication"]["epoch"] == epoch
                assert stats["replication"]["shards_replaced"] == 0
                assert (await standby.query(slices[0])).all()
            finally:
                await primary.close()
                await standby.close()

        pair_run(scenario)


class TestSingleFilterTargets:
    def test_single_filter_replicates_via_full_ships(self, pair_run):
        workload = build_replication_workload(300, seed=21)

        async def scenario(ctx):
            primary = await ctx.connect_primary()
            standby = await ctx.connect_standby()
            try:
                await primary.add(list(workload.acknowledged))
                await ctx.repl.ship()
                link = ctx.repl.standbys[0]
                assert link.deltas_sent == 0
                assert link.full_snapshots_sent == 2  # attach + ship
                assert (await primary.snapshot()
                        == await standby.snapshot())
                mix = workload.read_mix()
                assert ((await primary.query(mix))
                        == (await standby.query(mix))).all()
            finally:
                await primary.close()
                await standby.close()

        pair_run(scenario,
                 primary_target=ShiftingBloomFilter(m=32768, k=8),
                 standby_target=ShiftingBloomFilter(m=32768, k=8))

    def test_shard_delta_against_single_filter_refused(self, pair_run):
        async def scenario(ctx):
            standby = await ctx.connect_standby()
            try:
                epoch = (await standby.stats())["replication"]["epoch"]
                donor = ShiftingBloomFilter(m=32768, k=8)
                with pytest.raises(ReplicationError,
                                   match="non-sharded"):
                    await standby.delta(epoch + 1, entries=[
                        (0, protocol.MODE_MERGE,
                         persistence.dumps(donor))])
            finally:
                await standby.close()

        pair_run(scenario,
                 primary_target=ShiftingBloomFilter(m=32768, k=8),
                 standby_target=ShiftingBloomFilter(m=32768, k=8))
