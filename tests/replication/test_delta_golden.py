"""Golden pins for the replication payloads a real standby receives.

The primary's delta builder gets restructured from time to time; each
rewrite must leave what a standby is sent byte-identical, or a
mixed-version pair diverges.  Payloads are recorded where they arrive:
around the standby service's request dispatch, after the wire decoded
the frame, so the pins hold whatever shape the replicator takes.

Scenarios, each ship one recorded payload:

* a 4-shard ShBF_M store — steady writes (merge entries), a
  ``rotate_shard`` (one replace entry), ADD_IDEM writes (a ``MODE_IDEM``
  entry) and a forced full ship (SUBSCRIBE);
* a 3-slot TTL ring — steady writes (one slot-0 merge), a ship after
  ``rotate()`` (every slot replaced), writes and a rotation in one ship,
  and a counts-carrying write (a slot-0 replace).

Hash families, router seed, client ids and write ids are all fixed.
"""

from __future__ import annotations

import hashlib

from repro.core.membership import ShiftingBloomFilter
from repro.hashing.family import make_family
from repro.service import protocol
from repro.store import GenerationalStore
from repro.store.spec import StoreSpec
from repro.workloads.sharded import partition_by_shard
from tests.conftest import make_elements

MEMBERS = make_elements(400, "golden-delta")
IDEM_CLIENT = 0xC0FFEE
RECORDED_OPS = {protocol.OP_DELTA: "DELTA",
                protocol.OP_SUBSCRIBE: "SUBSCRIBE"}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _record(service) -> list:
    """Wrap *service*'s dispatch; returns the list it appends
    ``(op name, payload)`` to for every replication request."""
    seen = []
    dispatch = service._dispatch

    async def recording(op, payload, trace_id=None):
        if op in RECORDED_OPS:
            seen.append((RECORDED_OPS[op], bytes(payload)))
        return await dispatch(op, payload, trace_id)

    service._dispatch = recording
    return seen


def _summary(recorded) -> list:
    """``(op, epoch, [(slot, mode), ...] or "full", sha)`` per payload."""
    out = []
    for op, payload in recorded:
        if op == "SUBSCRIBE":
            epoch, _ = protocol.SUBSCRIBE.decode(payload)
            out.append((op, epoch, "full", _sha(payload)))
            continue
        epoch, full_blob, entries = protocol.DELTA.decode(payload)
        shape = ("full" if full_blob is not None
                 else [(slot, mode) for slot, mode, _ in entries])
        out.append((op, epoch, shape, _sha(payload)))
    return out


def _sharded_store():
    return StoreSpec(shards=4, m=4096, k=4, family="blake2b").build()


class _CountTolerantShBF(ShiftingBloomFilter):
    """ShBF_M that accepts (and ignores) per-element counts, so a
    counts-carrying ADD reaches the journal through the real server."""

    def add_batch(self, elements, counts=None):
        super().add_batch(elements)


def _ring():
    family = make_family("blake2b", seed=0)
    return GenerationalStore(
        lambda seq: _CountTolerantShBF(m=4096, k=4, family=family),
        generations=3)


MERGE, REPLACE, IDEM = (protocol.MODE_MERGE, protocol.MODE_REPLACE,
                        protocol.MODE_IDEM)

SHARDED_GOLDEN = [
    ("DELTA", 1, [(0, MERGE), (1, MERGE), (2, MERGE), (3, MERGE)],
     "bc642bcfa28dbe02"),
    ("DELTA", 2, [(0, MERGE), (1, REPLACE), (2, MERGE), (3, MERGE)],
     "5da2476177fdc229"),
    ("DELTA", 3, [(0, MERGE), (1, MERGE), (2, MERGE), (3, MERGE),
                  (0, IDEM)], "6cac4c5d16f3bab0"),
    ("SUBSCRIBE", 4, "full", "4e8b29c70577cda1"),
]

RING_GOLDEN = [
    ("DELTA", 1, [(0, MERGE)], "9d6ad1908cc32d25"),
    ("DELTA", 2, [(0, REPLACE), (1, REPLACE), (2, REPLACE)],
     "a1bd4dbd9fb6a92a"),
    ("DELTA", 3, [(0, REPLACE), (1, REPLACE), (2, REPLACE)],
     "886d21104cc902aa"),
    ("DELTA", 4, [(0, REPLACE)], "75087e5aa82eaa90"),
]


def test_sharded_store_delta_golden(pair_run):
    async def scenario(ctx):
        recorded = _record(ctx.standby_service)
        store = ctx.primary_service.target
        primary = await ctx.connect_primary()
        try:
            await primary.add(MEMBERS[:120])
            await ctx.repl.ship()
            slice_1 = partition_by_shard(MEMBERS[:120], store.router)[1]
            store.rotate_shard(1, slice_1)
            await primary.add(MEMBERS[120:200])
            await ctx.repl.ship()
            await primary.add_idem(IDEM_CLIENT, 1, MEMBERS[200:260])
            await primary.add_idem(IDEM_CLIENT, 2, MEMBERS[260:300])
            await ctx.repl.ship()
            await primary.add(MEMBERS[300:340])
            await ctx.repl.ship(force_full=True)
            assert await primary.snapshot() == \
                ctx.standby_service.target.snapshot()
        finally:
            await primary.close()
        return _summary(recorded)

    got = pair_run(scenario, primary_target=_sharded_store(),
                   standby_target=_sharded_store())
    assert got == SHARDED_GOLDEN


def test_ring_delta_golden(pair_run):
    async def scenario(ctx):
        recorded = _record(ctx.standby_service)
        ring = ctx.primary_service.target
        primary = await ctx.connect_primary()
        try:
            await primary.add(MEMBERS[:100])
            await ctx.repl.ship()
            ring.rotate()
            await ctx.repl.ship()
            await primary.add(MEMBERS[100:160])
            ring.rotate()
            await primary.add(MEMBERS[160:200])
            await ctx.repl.ship()
            await primary.add(MEMBERS[200:230], counts=[2] * 30)
            await ctx.repl.ship()
            assert await primary.snapshot() == \
                ctx.standby_service.target.snapshot()
        finally:
            await primary.close()
        return _summary(recorded)

    got = pair_run(scenario, primary_target=_ring(), standby_target=_ring())
    assert got == RING_GOLDEN
