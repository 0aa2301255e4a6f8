"""Golden pins for the bytes every wire payload puts on the socket.

The codecs behind the service, replication and cluster ops get
restructured from time to time; each rewrite must leave every op's
encoding byte-identical, or a mixed-version fleet stops understanding
itself.  The digests were recorded from the hand-written per-op codecs
and cover:

* element batches with and without counts, and ADD_IDEM;
* both QUERY verdict kinds, and QUERY_MULTI carrying all seven §4.2
  outcomes (plus the empty candidate set);
* SUBSCRIBE;
* DELTA: a full blob, shard entries in each of the three modes, a mixed
  entry list and an empty heartbeat;
* every MIGRATE action, the migration journal's element batches and
  the idempotency-key table;
* an ERROR payload, the u32 count an ADD answers, and a traced and an
  untraced frame.

Encodings are read where they are produced: request payloads off the
socket behind the real client, response payloads off a live server or
the cluster node's MIGRATE handler.  Only the frame layer and the
element and verdict codecs are called directly.
"""

from __future__ import annotations

import asyncio
import hashlib
import struct

import numpy as np
import pytest

from repro.cluster.node import ClusterState
from repro.cluster.shardmap import bootstrap_map
from repro.core import ShiftingBloomFilter
from repro.core.association_types import Association, AssociationAnswer
from repro.hashing.family import make_family
from repro.service import protocol
from repro.service.client import ServiceClient
from repro.service.server import CoalescerConfig, FilterService
from repro.store.sharded import ShardedFilterStore

ELEMENTS = [b"alpha", "beta", 12345, b"", b"\x00\xff" * 40]
COUNTS = [3, -1, 2 ** 40, 0, 7]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


# ----------------------------------------------------------------------
# Frames, element batches and verdicts (the codecs called directly)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name,encode,digest", [
    ("untraced", lambda: protocol.encode_frame(
        0xDEADBEEF, protocol.OP_QUERY, b"payload"), "0821e289ca4504dc"),
    ("traced", lambda: protocol.encode_frame(
        7, protocol.OP_ADD, b"payload", trace_id=2 ** 63 + 11),
     "d880114213e7499d"),
    ("empty", lambda: protocol.encode_frame(
        1, protocol.STATUS_OK), "98a4350114b8c45e"),
])
def test_frame_golden(name, encode, digest):
    assert _sha(encode()) == digest


@pytest.mark.parametrize("name,encode,digest", [
    ("plain", lambda: protocol.encode_elements(ELEMENTS),
     "fa664377d6331aa3"),
    ("counts", lambda: protocol.encode_elements(ELEMENTS, COUNTS),
     "e2e4f8ed1d4dacf6"),
    ("empty", lambda: protocol.encode_elements([]), "8855508aade16ec5"),
])
def test_element_batch_golden(name, encode, digest):
    assert _sha(encode()) == digest


@pytest.mark.parametrize("name,verdicts,digest", [
    ("bool", np.array([True, False, True, True, False, False, True,
                       False, True, True, True], dtype=bool),
     "7d438a9d61ed839e"),
    ("int64", np.array([0, 1, 5, 2 ** 40, 7], dtype=np.int64),
     "2e2b5e02488af670"),
])
def test_verdicts_golden(name, verdicts, digest):
    assert _sha(protocol.encode_verdicts(verdicts)) == digest


# ----------------------------------------------------------------------
# Request payloads, read off the socket behind the real client
# ----------------------------------------------------------------------
def _recorded_request(call):
    """Run ``call(client)`` against a stub server; return the one
    request ``(op, payload)`` it put on the wire."""
    records = []

    async def handle(reader, writer):
        while True:
            frame = await protocol.read_frame(reader)
            if frame is None:
                break
            request_id, op, payload, _trace = frame
            records.append((op, payload))
            writer.write(protocol.encode_frame(
                request_id, protocol.STATUS_OK, b"\x00\x00\x00\x07"))
            await writer.drain()
        writer.close()

    async def main():
        server = await asyncio.start_server(handle, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        client = await ServiceClient.connect(port=port, op_timeout=5.0)
        try:
            await call(client)
        finally:
            await client.close()
            server.close()
            await server.wait_closed()

    asyncio.run(main())
    assert len(records) == 1
    return records[0]


IDEM_TABLE = struct.pack("!IQQI", 1, 5, 6, 7)

REQUEST_GOLDEN = [
    ("add", protocol.OP_ADD,
     lambda c: c.add(ELEMENTS), "fa664377d6331aa3"),
    ("add_counts", protocol.OP_ADD,
     lambda c: c.add(ELEMENTS, COUNTS), "e2e4f8ed1d4dacf6"),
    ("add_idem", protocol.OP_ADD_IDEM,
     lambda c: c.add_idem(2 ** 40 + 1, 9, ELEMENTS), "47a8eee187650e5c"),
    ("add_idem_counts", protocol.OP_ADD_IDEM,
     lambda c: c.add_idem(3, 2 ** 63, ELEMENTS, COUNTS),
     "12e07d0c3751d4b7"),
    ("subscribe", protocol.OP_SUBSCRIBE,
     lambda c: c.subscribe(2 ** 63 + 5, b"SNAPSHOT-BYTES"),
     "6c230c92086e2c1b"),
    ("subscribe_empty", protocol.OP_SUBSCRIBE,
     lambda c: c.subscribe(0, b""), "af5570f5a1810b7a"),
    ("delta_full", protocol.OP_DELTA,
     lambda c: c.delta(7, full_blob=b"WHOLE-STORE"), "2775b925d088f1f8"),
    ("delta_merge", protocol.OP_DELTA,
     lambda c: c.delta(8, entries=[(3, protocol.MODE_MERGE, b"m" * 9)]),
     "573e5285a761fb40"),
    ("delta_replace", protocol.OP_DELTA,
     lambda c: c.delta(9, entries=[(1, protocol.MODE_REPLACE, b"r")]),
     "16311bdaf3f66fd6"),
    ("delta_idem", protocol.OP_DELTA,
     lambda c: c.delta(10, entries=[(0, protocol.MODE_IDEM, IDEM_TABLE)]),
     "96565f69afb0be09"),
    ("delta_mixed", protocol.OP_DELTA,
     lambda c: c.delta(11, entries=[
         (2, protocol.MODE_MERGE, b"mm"), (5, protocol.MODE_REPLACE, b""),
         (0, protocol.MODE_IDEM, IDEM_TABLE)]), "74adc60e55c0584e"),
    ("delta_heartbeat", protocol.OP_DELTA,
     lambda c: c.delta(12, entries=[]), "b538d3285f67febd"),
] + [
    ("migrate_%d" % action, protocol.OP_MIGRATE,
     lambda c, action=action, body=body: c.migrate(action, 5, body),
     digest)
    for action, body, digest in [
        (protocol.MIGRATE_BEGIN, b"", "42a5578600f1b090"),
        (protocol.MIGRATE_DELTA, b"", "e6af0669d2684af3"),
        (protocol.MIGRATE_KEYS, b"", "498c05f710dd1872"),
        (protocol.MIGRATE_END, b"", "95d9fa7d093e4a14"),
        (protocol.MIGRATE_INSTALL_REPLACE, b"SHBF-blob", "9aad7f6f31e1953c"),
        (protocol.MIGRATE_INSTALL_MERGE, b"\x00\x00\x00\x00",
         "465891c132c1856d"),
        (protocol.MIGRATE_INSTALL_KEYS, IDEM_TABLE, "976e67fdb0217b84"),
    ]
]


@pytest.mark.parametrize(
    "name,op,call,digest", REQUEST_GOLDEN,
    ids=[row[0] for row in REQUEST_GOLDEN])
def test_request_payload_golden(name, op, call, digest):
    recorded_op, payload = _recorded_request(call)
    assert recorded_op == op
    assert _sha(payload) == digest


# ----------------------------------------------------------------------
# Response payloads, read off a live server
# ----------------------------------------------------------------------
_REGIONS = [
    {Association.S1_ONLY}, {Association.BOTH}, {Association.S2_ONLY},
    {Association.S1_ONLY, Association.BOTH},
    {Association.S2_ONLY, Association.BOTH},
    {Association.S1_ONLY, Association.S2_ONLY},
    {Association.S1_ONLY, Association.BOTH, Association.S2_ONLY},
    set(),
]


class _ScriptedAssociation:
    """Association target answering ``b"o<i>"`` with outcome *i*
    (clear iff exactly one region survives)."""

    n_items = 0

    def query(self, element):
        regions = _REGIONS[int(element[1:])]
        return AssociationAnswer(candidates=frozenset(regions),
                                 clear=len(regions) == 1)


def _responses(target, requests, config=None):
    """Send raw ``(op, payload)`` frames to a live server; return the
    ``(status, payload)`` of each response in order."""

    async def main():
        service = FilterService(target, config)
        server = await service.start(port=0)
        port = server.sockets[0].getsockname()[1]
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        out = []
        try:
            for request_id, (op, payload) in enumerate(requests):
                writer.write(protocol.encode_frame(request_id, op, payload))
                await writer.drain()
                frame = await asyncio.wait_for(
                    protocol.read_frame(reader), 5.0)
                out.append((frame[1], frame[2]))
            # Half-close and drain to EOF: the server's connection
            # handler has finished before the loop is torn down.
            writer.write_eof()
            await asyncio.wait_for(reader.read(), 5.0)
        finally:
            writer.close()
            server.close()
            await server.wait_closed()
        return out

    return asyncio.run(main())


def test_add_count_golden():
    [(status, payload)] = _responses(
        ShiftingBloomFilter(m=4096, k=4),
        [(protocol.OP_ADD, protocol.encode_elements(ELEMENTS))])
    assert status == protocol.STATUS_OK
    assert _sha(payload) == "221f8af2372a9506"


def test_error_payload_golden():
    [(status, payload)] = _responses(
        ShiftingBloomFilter(m=4096, k=4), [(0x6E, b"")])
    assert status == protocol.STATUS_ERR
    assert _sha(payload) == "5b4329e634f80a82"


def test_query_multi_seven_outcomes_golden():
    probe = [b"o%d" % i for i in range(len(_REGIONS))] + [b"o3", b"o0"]
    [(status, payload)] = _responses(
        _ScriptedAssociation(),
        [(protocol.OP_QUERY_MULTI, protocol.encode_elements(probe))],
        CoalescerConfig(max_batch=1))
    assert status == protocol.STATUS_OK
    assert _sha(payload) == "f2557db2ea00751c"


# ----------------------------------------------------------------------
# Migration journal batches and the idempotency-key table
# ----------------------------------------------------------------------
def _migrate(action, shard_id):
    return struct.pack("!BI", action, shard_id)


def test_journal_batches_and_key_table_golden():
    shard_map = bootstrap_map(4, ["10.0.0.1:4000"])
    family = make_family(shard_map.router_family, seed=0)
    store = ShardedFilterStore(
        lambda s: ShiftingBloomFilter(m=4096, k=4, family=family),
        n_shards=4, router=shard_map.make_router())
    service = FilterService(store)
    state = ClusterState(shard_map, "10.0.0.1:4000").attach(service)
    shard = state.owned_shards[0]
    moving = [e for e in (b"mig-%04d" % i for i in range(200))
              if store.router.route(e) == shard]
    state.handle_migrate(_migrate(protocol.MIGRATE_BEGIN, shard))
    service.on_write(moving[:6], None)
    service.on_write(moving[6:9], [1, 2, 2 ** 33])
    service.on_write([], None)
    journal = state.handle_migrate(_migrate(protocol.MIGRATE_DELTA, shard))
    assert _sha(journal) == "a3401e4829bea47f"
    assert _sha(state.handle_migrate(
        _migrate(protocol.MIGRATE_DELTA, shard))) == "df3f619804a92fdb"

    service.idempotency.put(7, 1, 42)
    service.idempotency.put(2 ** 64 - 1, 2 ** 63, 2 ** 32 - 1)
    service.idempotency.put(0, 0, 0)
    keys = state.handle_migrate(_migrate(protocol.MIGRATE_KEYS, shard))
    assert _sha(keys) == "8d659b9281af39cb"
