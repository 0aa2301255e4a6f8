"""Replication with a non-default hash family.

The replication contract is *bit-identical* verdicts, which only holds
if the standby hashes exactly like the primary.  Snapshots carry the
hash-family kind + seed (and the router's), so a SUBSCRIBE must leave
the standby on the primary's family even when it was started with a
different default — these tests pin that end to end over the wire.
"""

from __future__ import annotations

from repro.core.membership import ShiftingBloomFilter
from repro.hashing import VectorizedFamily, family_spec
from repro.store.router import ShardRouter
from repro.store.sharded import ShardedFilterStore
from repro.workloads.service import build_service_workload

N_SHARDS = 4
M_PER_SHARD = 16384
FAMILY_SEED = 5


def make_vector_store() -> ShardedFilterStore:
    family = VectorizedFamily(seed=FAMILY_SEED)
    return ShardedFilterStore(
        lambda shard: ShiftingBloomFilter(
            m=M_PER_SHARD, k=8, family=family),
        n_shards=N_SHARDS,
        router=ShardRouter(N_SHARDS, family_kind="vector64"))


def test_subscribe_adopts_primary_family(pair_run):
    """The standby was started on the BLAKE2b default; the shipped
    snapshot must flip it onto the primary's vector64 wiring."""

    async def scenario(ctx):
        target = ctx.standby_service.target
        assert isinstance(target, ShardedFilterStore)
        assert target.router.family_kind == "vector64"
        for shard in target.shards:
            assert family_spec(shard.family) == (
                "vector64", FAMILY_SEED)

    pair_run(scenario, primary_target=make_vector_store())


def test_vectorized_pair_is_bit_identical_over_the_wire(pair_run):
    workload = build_service_workload(800, seed=7)

    async def scenario(ctx):
        primary = await ctx.connect_primary()
        standby = await ctx.connect_standby()
        try:
            await primary.add(list(workload.members))
            await ctx.repl.ship()
            mix = workload.mixed_stream()
            p = await primary.query(mix)
            s = await standby.query(mix)
            assert (p == s).all()
            # quiesced snapshots are byte-identical, family fields
            # included
            assert await primary.snapshot() == await standby.snapshot()
        finally:
            await primary.close()
            await standby.close()

    pair_run(scenario, primary_target=make_vector_store(),
             standby_target=make_vector_store())


def test_delta_stream_after_family_snapshot(pair_run):
    """Deltas built from vector64 ``empty_like`` clones merge into the
    standby and keep verdicts and n_items exact across several ships."""
    workload = build_service_workload(900, seed=11)
    writes = list(workload.members)

    async def scenario(ctx):
        primary = await ctx.connect_primary()
        standby = await ctx.connect_standby()
        try:
            for lo in range(0, len(writes), 300):
                await primary.add(writes[lo : lo + 300])
                await ctx.repl.ship()
            stats = await standby.stats()
            assert stats["n_items"] == len(writes)
            mix = workload.mixed_stream()
            p = await primary.query(mix)
            s = await standby.query(mix)
            assert (p == s).all()
        finally:
            await primary.close()
            await standby.close()

    pair_run(scenario, primary_target=make_vector_store())
