"""Golden pins for every opcode's answer on every kind of serving node.

The service classifies its ops in several places: the server's request
dispatch, the read worker's forward/refuse split, the supervisor's
control port, the standby guard and the cluster ownership check.  A
rewrite of any of them must leave every answer byte-identical.  Each
cell sends one opcode (or one unknown code) to a freshly built node
over a real socket and pins:

* the response status and, for an ERR, the error type;
* a sha of the response payload (an ERR payload carries the message);
* for the element ops, the non-zero STATS ``counters`` read right after.

Nodes: a primary sharded ShBF_M store, a standby of it, the primary
sent empty element batches, ShBF_A and ShBF_x filters, ``max_batch=1``
(uncoalesced) copies of the primary and of both filters, a cluster
node sent elements it does not own, an in-process mpserve read worker
in front of a writer, and the mpserve supervisor's control port.
Every node is fresh per cell, so no cell depends on another.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import json

import pytest

from repro import persistence
from repro.cluster.node import ClusterState
from repro.cluster.shardmap import bootstrap_map
from repro.core.association import ShiftingAssociationFilter
from repro.core.multiplicity import ShiftingMultiplicityFilter
from repro.hashing.family import make_family
from repro.mpserve.segments import (
    GenerationPublisher,
    GenerationReader,
    purge_segments,
)
from repro.mpserve.supervisor import MultiWorkerSupervisor, SupervisorConfig
from repro.mpserve.worker import ReadWorkerService
from repro.service import protocol
from repro.service.server import CoalescerConfig, FilterService
from repro.store.spec import StoreSpec
from tests.conftest import make_elements

HOST = "127.0.0.1"
SPEC = StoreSpec(shards=4, m=4096, k=4, family="vector64")
MEMBERS = make_elements(24, "op-golden")
PROBE = MEMBERS[:12] + make_elements(12, "op-golden-absent")
COUNTS = [1 + i % 5 for i in range(len(MEMBERS))]
SCALAR = CoalescerConfig(max_batch=1)
UNKNOWN_OP = 0x6F
NODE = "10.0.0.1:4000"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


# ----------------------------------------------------------------------
# Targets
# ----------------------------------------------------------------------
def _store():
    store = SPEC.build()
    store.add_batch(MEMBERS[:8])
    return store


def _association():
    family = make_family("vector64", seed=0)
    filt = ShiftingAssociationFilter(m=4096, k=4, family=family)
    filt.build_batch(MEMBERS[:16], MEMBERS[8:20])
    return filt


def _multiplicity():
    family = make_family("vector64", seed=0)
    filt = ShiftingMultiplicityFilter(m=4096, k=4, c_max=8, family=family)
    filt.add_batch(make_elements(8, "op-golden-counted"), COUNTS[:8])
    return filt


async def _subscribed(service):
    await service._dispatch(protocol.OP_SUBSCRIBE, protocol.SUBSCRIBE.pack(
        (3, persistence.dumps(service.target))))
    return service


async def _cluster(service):
    shard_map = bootstrap_map(
        4, [NODE, "10.0.0.2:4000"], router_family="vector64")
    store = SPEC.build(router=shard_map.make_router())
    store.add_batch(MEMBERS[:8])
    service._target = store
    ClusterState(shard_map, NODE).attach(service)
    return service


#: name -> (target factory, coalescer config, async setup or None, ADD
#: payload, element batch for the other element ops).
_PLAIN = protocol.encode_elements(MEMBERS)
_PROBE = protocol.encode_elements(PROBE)
_EMPTY = protocol.encode_elements([])
_COUNTED = protocol.encode_elements(MEMBERS, COUNTS)
TARGETS = {
    "primary": (_store, None, None, _PLAIN, _PROBE),
    "standby": (_store, None, _subscribed, _PLAIN, _PROBE),
    "empty": (_store, None, None, _EMPTY, _EMPTY),
    "scalar": (_store, SCALAR, None, _PLAIN, _PROBE),
    "assoc": (_association, None, None, _PLAIN, _PROBE),
    "assoc_scalar": (_association, SCALAR, None, _PLAIN, _PROBE),
    "count": (_multiplicity, None, None, _COUNTED, _PROBE),
    "count_scalar": (_multiplicity, SCALAR, None, _COUNTED, _PROBE),
    "cluster": (_store, None, _cluster, _PLAIN, _PROBE),
}


def _requests(target: str):
    """``[(cell name, op, payload)]`` for one target."""
    _, _, _, add, batch = TARGETS.get(target, TARGETS["primary"])
    snapshot = persistence.dumps(_store())
    elements, _ = protocol.decode_elements(batch)
    shard_blob = persistence.dumps(SPEC.build().shards[0])
    return [
        ("PING", protocol.OP_PING, b""),
        ("ADD", protocol.OP_ADD, add),
        ("QUERY", protocol.OP_QUERY, batch),
        ("QUERY_MULTI", protocol.OP_QUERY_MULTI, batch),
        ("SNAPSHOT", protocol.OP_SNAPSHOT, b""),
        ("RESTORE", protocol.OP_RESTORE, snapshot),
        ("STATS", protocol.OP_STATS, b""),
        ("SUBSCRIBE", protocol.OP_SUBSCRIBE,
         protocol.SUBSCRIBE.pack((5, snapshot))),
        ("DELTA", protocol.OP_DELTA, protocol.DELTA.pack(
            (4, None, [(0, protocol.MODE_MERGE, shard_blob)]))),
        ("PROMOTE", protocol.OP_PROMOTE, b""),
        ("ADD_IDEM", protocol.OP_ADD_IDEM,
         protocol.ADD_IDEM.pack((7, 1, (elements, None)))),
        ("SHARD_MAP", protocol.OP_SHARD_MAP, b""),
        ("MIGRATE", protocol.OP_MIGRATE, protocol.MIGRATE.pack(
            (protocol.MIGRATE_KEYS, 0, b""))),
        ("METRICS", protocol.OP_METRICS, b""),
        ("METRICS_text", protocol.OP_METRICS, b"text"),
        ("METRICS_json", protocol.OP_METRICS, b"json"),
        ("METRICS_bad", protocol.OP_METRICS, b"xml"),
        ("UNKNOWN", UNKNOWN_OP, b""),
    ]


ELEMENT_OPS = {"ADD", "QUERY", "QUERY_MULTI", "ADD_IDEM"}


# ----------------------------------------------------------------------
# One cell: a fresh node, one request, STATS after the element ops
# ----------------------------------------------------------------------
async def _exchange(port: int, requests) -> list:
    reader, writer = await asyncio.open_connection(HOST, port)
    out = []
    try:
        for request_id, (op, payload) in enumerate(requests):
            writer.write(protocol.encode_frame(request_id, op, payload))
            await writer.drain()
            frame = await asyncio.wait_for(protocol.read_frame(reader), 10)
            out.append((frame[1], frame[2]))
        # Half-close and drain to EOF: the node's connection handler
        # has finished before the loop is torn down.
        writer.write_eof()
        await asyncio.wait_for(reader.read(), 10)
    finally:
        writer.close()
    return out


def _normalised(op: int, status: int, payload: bytes) -> bytes:
    """Drop the one field that names an ephemeral port (a read
    worker's writer address) from a STATS answer."""
    if op != protocol.OP_STATS or status != protocol.STATUS_OK:
        return payload
    stats = json.loads(payload)
    if "mpserve" in stats:
        stats["mpserve"]["writer"] = "writer"
    return json.dumps(stats, sort_keys=True).encode("utf-8")


def _summary(name: str, op: int, responses) -> tuple:
    status, payload = responses[0]
    error = (protocol.ERROR.decode(payload)[0]
             if status == protocol.STATUS_ERR else None)
    counters = None
    if name in ELEMENT_OPS and len(responses) > 1:
        stats = json.loads(responses[1][1])
        counters = {key: value for key, value
                    in sorted(stats["counters"].items()) if value}
    return status, error, _sha(_normalised(op, status, payload)), counters


async def _service_cell(target: str, name: str, op: int, payload: bytes):
    factory, config, setup, _, _ = TARGETS[target]
    service = FilterService(factory(), config)
    if setup is not None:
        await setup(service)
    server = await service.start(port=0)
    port = server.sockets[0].getsockname()[1]
    try:
        requests = [(op, payload)]
        if name in ELEMENT_OPS:
            requests.append((protocol.OP_STATS, b""))
        return await _exchange(port, requests)
    finally:
        await service.kill(server)


async def _worker_cell(name: str, op: int, payload: bytes):
    base = "repro-opgolden-%s" % name.lower()
    purge_segments(base)
    store = _store()
    publisher = GenerationPublisher(base)
    publisher.publish(store)
    writer = FilterService(store)
    writer_server = await writer.start(port=0)
    reader = GenerationReader(base)
    reader.connect(timeout_s=5.0)
    worker = ReadWorkerService(
        reader.attach(), reader, HOST,
        writer_server.sockets[0].getsockname()[1])
    server = await worker.start(port=0)
    try:
        requests = [(op, payload)]
        if name in ELEMENT_OPS:
            requests.append((protocol.OP_STATS, b""))
        return await _exchange(server.sockets[0].getsockname()[1],
                               requests)
    finally:
        await worker.kill(server)
        # Drop the served views first (collecting any cycle holding
        # them), so the segment unmaps on close.
        worker._target = worker._attached.target = None
        gc.collect()
        await worker.close()
        await writer.kill(writer_server)
        # The header view pins the publisher's header mapping; drop it
        # so close() can unmap and unlink every segment.
        publisher._header = None
        publisher.close()


async def _supervisor_cell(name: str, op: int, payload: bytes):
    supervisor = MultiWorkerSupervisor(SupervisorConfig(
        workers=2, host=HOST, store=SPEC, base_name="repro-opgolden-sup"))
    server = await asyncio.start_server(
        supervisor._handle_control, HOST, 0)
    try:
        return await _exchange(server.sockets[0].getsockname()[1],
                               [(op, payload)])
    finally:
        server.close()
        await server.wait_closed()


def _run_cell(target: str, name: str, op: int, payload: bytes) -> tuple:
    if target == "worker":
        cell = _worker_cell(name, op, payload)
    elif target == "supervisor":
        cell = _supervisor_cell(name, op, payload)
    else:
        cell = _service_cell(target, name, op, payload)
    return _summary(name, op, asyncio.run(cell))


CELLS = [(target, name, op, payload)
         for target in list(TARGETS) + ["worker", "supervisor"]
         for name, op, payload in _requests(target)]

OK, ERR = protocol.STATUS_OK, protocol.STATUS_ERR

#: "target/cell" -> (status, error type, payload sha, non-zero counters)
GOLDEN = {
    "primary/PING": (OK, None, "986fb9373fff6032", None),
    "primary/ADD": (
        OK, None, "79a881f99a636d0a",
        {"batches_executed": 1, "elements_added": 24, "peak_queue_depth": 1,
         "requests_total": 2}),
    "primary/QUERY": (
        OK, None, "2aa9645143c043c2",
        {"batches_executed": 1, "elements_queried": 24, "peak_queue_depth": 1,
         "requests_total": 2}),
    "primary/QUERY_MULTI": (
        ERR, "UnsupportedOperationError", "cd6904b6b11172a2",
        {"elements_queried": 24, "peak_queue_depth": 1, "requests_total": 2}),
    "primary/SNAPSHOT": (OK, None, "ff1fd757ff3e12c7", None),
    "primary/RESTORE": (OK, None, "17eb70034b5b7109", None),
    "primary/STATS": (OK, None, "e6c02f8af2efdf75", None),
    "primary/SUBSCRIBE": (OK, None, "17eb70034b5b7109", None),
    "primary/DELTA": (ERR, "ReplicationError", "ea240b31d7e76dd3", None),
    "primary/PROMOTE": (OK, None, "687efa69a42756af", None),
    "primary/ADD_IDEM": (
        OK, None, "79a881f99a636d0a",
        {"batches_executed": 1, "elements_added": 24, "peak_queue_depth": 1,
         "requests_total": 2}),
    "primary/SHARD_MAP": (
        ERR, "UnsupportedOperationError", "46285e2da81a779c", None),
    "primary/MIGRATE": (
        ERR, "UnsupportedOperationError", "0837afb2b5191cf8", None),
    "primary/METRICS": (OK, None, "8c1d3e37e710f2c9", None),
    "primary/METRICS_text": (OK, None, "8c1d3e37e710f2c9", None),
    "primary/METRICS_json": (OK, None, "1fc5b0b4a9b0917c", None),
    "primary/METRICS_bad": (ERR, "ProtocolError", "b3ee34ebbdf066e1", None),
    "primary/UNKNOWN": (ERR, "ProtocolError", "1ed2abd107e116b5", None),
    "standby/PING": (OK, None, "986fb9373fff6032", None),
    "standby/ADD": (
        ERR, "StandbyReadOnlyError", "1a627e2e6268a118",
        {"peak_queue_depth": 1, "requests_total": 2}),
    "standby/QUERY": (
        OK, None, "2aa9645143c043c2",
        {"batches_executed": 1, "elements_queried": 24, "peak_queue_depth": 1,
         "requests_total": 2}),
    "standby/QUERY_MULTI": (
        ERR, "UnsupportedOperationError", "cd6904b6b11172a2",
        {"elements_queried": 24, "peak_queue_depth": 1, "requests_total": 2}),
    "standby/SNAPSHOT": (OK, None, "ff1fd757ff3e12c7", None),
    "standby/RESTORE": (ERR, "StandbyReadOnlyError", "67fc28c5dec5a765", None),
    "standby/STATS": (OK, None, "462ae5421e99e3ef", None),
    "standby/SUBSCRIBE": (OK, None, "17eb70034b5b7109", None),
    "standby/DELTA": (OK, None, "17eb70034b5b7109", None),
    "standby/PROMOTE": (OK, None, "4e7b2dbedaa69ad1", None),
    "standby/ADD_IDEM": (
        ERR, "StandbyReadOnlyError", "1a627e2e6268a118",
        {"peak_queue_depth": 1, "requests_total": 2}),
    "standby/SHARD_MAP": (
        ERR, "UnsupportedOperationError", "46285e2da81a779c", None),
    "standby/MIGRATE": (
        ERR, "UnsupportedOperationError", "0837afb2b5191cf8", None),
    "standby/METRICS": (OK, None, "8c1d3e37e710f2c9", None),
    "standby/METRICS_text": (OK, None, "8c1d3e37e710f2c9", None),
    "standby/METRICS_json": (OK, None, "1fc5b0b4a9b0917c", None),
    "standby/METRICS_bad": (ERR, "ProtocolError", "b3ee34ebbdf066e1", None),
    "standby/UNKNOWN": (ERR, "ProtocolError", "1ed2abd107e116b5", None),
    "empty/PING": (OK, None, "986fb9373fff6032", None),
    "empty/ADD": (
        OK, None, "df3f619804a92fdb",
        {"peak_queue_depth": 1, "requests_total": 2}),
    "empty/QUERY": (
        OK, None, "8855508aade16ec5",
        {"peak_queue_depth": 1, "requests_total": 2}),
    "empty/QUERY_MULTI": (
        OK, None, "df3f619804a92fdb",
        {"peak_queue_depth": 1, "requests_total": 2}),
    "empty/SNAPSHOT": (OK, None, "ff1fd757ff3e12c7", None),
    "empty/RESTORE": (OK, None, "17eb70034b5b7109", None),
    "empty/STATS": (OK, None, "e6c02f8af2efdf75", None),
    "empty/SUBSCRIBE": (OK, None, "17eb70034b5b7109", None),
    "empty/DELTA": (ERR, "ReplicationError", "ea240b31d7e76dd3", None),
    "empty/PROMOTE": (OK, None, "687efa69a42756af", None),
    "empty/ADD_IDEM": (
        OK, None, "df3f619804a92fdb",
        {"peak_queue_depth": 1, "requests_total": 2}),
    "empty/SHARD_MAP": (
        ERR, "UnsupportedOperationError", "46285e2da81a779c", None),
    "empty/MIGRATE": (
        ERR, "UnsupportedOperationError", "0837afb2b5191cf8", None),
    "empty/METRICS": (OK, None, "8c1d3e37e710f2c9", None),
    "empty/METRICS_text": (OK, None, "8c1d3e37e710f2c9", None),
    "empty/METRICS_json": (OK, None, "1fc5b0b4a9b0917c", None),
    "empty/METRICS_bad": (ERR, "ProtocolError", "b3ee34ebbdf066e1", None),
    "empty/UNKNOWN": (ERR, "ProtocolError", "1ed2abd107e116b5", None),
    "scalar/PING": (OK, None, "986fb9373fff6032", None),
    "scalar/ADD": (
        OK, None, "79a881f99a636d0a",
        {"batches_executed": 1, "elements_added": 24, "peak_queue_depth": 1,
         "requests_total": 2}),
    "scalar/QUERY": (
        OK, None, "2aa9645143c043c2",
        {"batches_executed": 1, "elements_queried": 24, "peak_queue_depth": 1,
         "requests_total": 2}),
    "scalar/QUERY_MULTI": (
        ERR, "UnsupportedOperationError", "cd6904b6b11172a2",
        {"peak_queue_depth": 1, "requests_total": 2}),
    "scalar/SNAPSHOT": (OK, None, "ff1fd757ff3e12c7", None),
    "scalar/RESTORE": (OK, None, "17eb70034b5b7109", None),
    "scalar/STATS": (OK, None, "d0fcbe0d9dcb4fc0", None),
    "scalar/SUBSCRIBE": (OK, None, "17eb70034b5b7109", None),
    "scalar/DELTA": (ERR, "ReplicationError", "ea240b31d7e76dd3", None),
    "scalar/PROMOTE": (OK, None, "687efa69a42756af", None),
    "scalar/ADD_IDEM": (
        OK, None, "79a881f99a636d0a",
        {"batches_executed": 1, "elements_added": 24, "peak_queue_depth": 1,
         "requests_total": 2}),
    "scalar/SHARD_MAP": (
        ERR, "UnsupportedOperationError", "46285e2da81a779c", None),
    "scalar/MIGRATE": (
        ERR, "UnsupportedOperationError", "0837afb2b5191cf8", None),
    "scalar/METRICS": (OK, None, "8c1d3e37e710f2c9", None),
    "scalar/METRICS_text": (OK, None, "8c1d3e37e710f2c9", None),
    "scalar/METRICS_json": (OK, None, "1fc5b0b4a9b0917c", None),
    "scalar/METRICS_bad": (ERR, "ProtocolError", "b3ee34ebbdf066e1", None),
    "scalar/UNKNOWN": (ERR, "ProtocolError", "1ed2abd107e116b5", None),
    "assoc/PING": (OK, None, "8372bf257cc3d291", None),
    "assoc/ADD": (
        ERR, "AttributeError", "536fa34d79254dd0",
        {"elements_added": 24, "peak_queue_depth": 1, "requests_total": 2}),
    "assoc/QUERY": (
        ERR, "ProtocolError", "410c0ce4f5b7681c",
        {"batches_executed": 1, "elements_queried": 24, "peak_queue_depth": 1,
         "protocol_errors": 1, "requests_total": 2}),
    "assoc/QUERY_MULTI": (
        OK, None, "897d94987431fe63",
        {"batches_executed": 1, "elements_queried": 24, "peak_queue_depth": 1,
         "requests_total": 2}),
    "assoc/SNAPSHOT": (ERR, "ConfigurationError", "5f4bd9865c3cba6e", None),
    "assoc/RESTORE": (OK, None, "17eb70034b5b7109", None),
    "assoc/STATS": (OK, None, "c79d0cbd70fb7ab9", None),
    "assoc/SUBSCRIBE": (OK, None, "17eb70034b5b7109", None),
    "assoc/DELTA": (ERR, "ReplicationError", "ea240b31d7e76dd3", None),
    "assoc/PROMOTE": (OK, None, "46853a3bb5c8155a", None),
    "assoc/ADD_IDEM": (
        ERR, "AttributeError", "536fa34d79254dd0",
        {"elements_added": 24, "peak_queue_depth": 1, "requests_total": 2}),
    "assoc/SHARD_MAP": (
        ERR, "UnsupportedOperationError", "46285e2da81a779c", None),
    "assoc/MIGRATE": (
        ERR, "UnsupportedOperationError", "0837afb2b5191cf8", None),
    "assoc/METRICS": (OK, None, "8c1d3e37e710f2c9", None),
    "assoc/METRICS_text": (OK, None, "8c1d3e37e710f2c9", None),
    "assoc/METRICS_json": (OK, None, "1fc5b0b4a9b0917c", None),
    "assoc/METRICS_bad": (ERR, "ProtocolError", "b3ee34ebbdf066e1", None),
    "assoc/UNKNOWN": (ERR, "ProtocolError", "1ed2abd107e116b5", None),
    "assoc_scalar/PING": (OK, None, "8372bf257cc3d291", None),
    "assoc_scalar/ADD": (
        ERR, "AttributeError", "5d7a72c97c86188d",
        {"peak_queue_depth": 1, "requests_total": 2}),
    "assoc_scalar/QUERY": (
        ERR, "ProtocolError", "410c0ce4f5b7681c",
        {"batches_executed": 1, "elements_queried": 24, "peak_queue_depth": 1,
         "protocol_errors": 1, "requests_total": 2}),
    "assoc_scalar/QUERY_MULTI": (
        OK, None, "897d94987431fe63",
        {"batches_executed": 1, "elements_queried": 24, "peak_queue_depth": 1,
         "requests_total": 2}),
    "assoc_scalar/SNAPSHOT": (
        ERR, "ConfigurationError", "5f4bd9865c3cba6e", None),
    "assoc_scalar/RESTORE": (OK, None, "17eb70034b5b7109", None),
    "assoc_scalar/STATS": (OK, None, "5cc667b1cd421c33", None),
    "assoc_scalar/SUBSCRIBE": (OK, None, "17eb70034b5b7109", None),
    "assoc_scalar/DELTA": (ERR, "ReplicationError", "ea240b31d7e76dd3", None),
    "assoc_scalar/PROMOTE": (OK, None, "46853a3bb5c8155a", None),
    "assoc_scalar/ADD_IDEM": (
        ERR, "AttributeError", "5d7a72c97c86188d",
        {"peak_queue_depth": 1, "requests_total": 2}),
    "assoc_scalar/SHARD_MAP": (
        ERR, "UnsupportedOperationError", "46285e2da81a779c", None),
    "assoc_scalar/MIGRATE": (
        ERR, "UnsupportedOperationError", "0837afb2b5191cf8", None),
    "assoc_scalar/METRICS": (OK, None, "8c1d3e37e710f2c9", None),
    "assoc_scalar/METRICS_text": (OK, None, "8c1d3e37e710f2c9", None),
    "assoc_scalar/METRICS_json": (OK, None, "1fc5b0b4a9b0917c", None),
    "assoc_scalar/METRICS_bad": (
        ERR, "ProtocolError", "b3ee34ebbdf066e1", None),
    "assoc_scalar/UNKNOWN": (ERR, "ProtocolError", "1ed2abd107e116b5", None),
    "count/PING": (OK, None, "40fb9f52ad8f6f69", None),
    "count/ADD": (
        OK, None, "79a881f99a636d0a",
        {"batches_executed": 1, "elements_added": 24, "peak_queue_depth": 1,
         "requests_total": 2}),
    "count/QUERY": (
        OK, None, "550e9166e3fb9273",
        {"batches_executed": 1, "elements_queried": 24, "peak_queue_depth": 1,
         "requests_total": 2}),
    "count/QUERY_MULTI": (
        ERR, "UnsupportedOperationError", "290d0fb6dbba6205",
        {"elements_queried": 24, "peak_queue_depth": 1, "requests_total": 2}),
    "count/SNAPSHOT": (ERR, "ConfigurationError", "add6e4cd17b21023", None),
    "count/RESTORE": (OK, None, "17eb70034b5b7109", None),
    "count/STATS": (OK, None, "8b6701157a2c15fe", None),
    "count/SUBSCRIBE": (OK, None, "17eb70034b5b7109", None),
    "count/DELTA": (ERR, "ReplicationError", "ea240b31d7e76dd3", None),
    "count/PROMOTE": (OK, None, "687efa69a42756af", None),
    "count/ADD_IDEM": (
        ERR, "TypeError", "d2164b82dc078b28",
        {"elements_added": 24, "peak_queue_depth": 1, "requests_total": 2}),
    "count/SHARD_MAP": (
        ERR, "UnsupportedOperationError", "46285e2da81a779c", None),
    "count/MIGRATE": (
        ERR, "UnsupportedOperationError", "0837afb2b5191cf8", None),
    "count/METRICS": (OK, None, "8c1d3e37e710f2c9", None),
    "count/METRICS_text": (OK, None, "8c1d3e37e710f2c9", None),
    "count/METRICS_json": (OK, None, "1fc5b0b4a9b0917c", None),
    "count/METRICS_bad": (ERR, "ProtocolError", "b3ee34ebbdf066e1", None),
    "count/UNKNOWN": (ERR, "ProtocolError", "1ed2abd107e116b5", None),
    "count_scalar/PING": (OK, None, "40fb9f52ad8f6f69", None),
    "count_scalar/ADD": (
        OK, None, "79a881f99a636d0a",
        {"batches_executed": 1, "elements_added": 24, "peak_queue_depth": 1,
         "requests_total": 2}),
    "count_scalar/QUERY": (
        ERR, "ProtocolError", "410c0ce4f5b7681c",
        {"batches_executed": 1, "elements_queried": 24, "peak_queue_depth": 1,
         "protocol_errors": 1, "requests_total": 2}),
    "count_scalar/QUERY_MULTI": (
        ERR, "UnsupportedOperationError", "290d0fb6dbba6205",
        {"peak_queue_depth": 1, "requests_total": 2}),
    "count_scalar/SNAPSHOT": (
        ERR, "ConfigurationError", "add6e4cd17b21023", None),
    "count_scalar/RESTORE": (OK, None, "17eb70034b5b7109", None),
    "count_scalar/STATS": (OK, None, "fe2286510352d5d7", None),
    "count_scalar/SUBSCRIBE": (OK, None, "17eb70034b5b7109", None),
    "count_scalar/DELTA": (ERR, "ReplicationError", "ea240b31d7e76dd3", None),
    "count_scalar/PROMOTE": (OK, None, "687efa69a42756af", None),
    "count_scalar/ADD_IDEM": (
        OK, None, "79a881f99a636d0a",
        {"batches_executed": 1, "elements_added": 24, "peak_queue_depth": 1,
         "requests_total": 2}),
    "count_scalar/SHARD_MAP": (
        ERR, "UnsupportedOperationError", "46285e2da81a779c", None),
    "count_scalar/MIGRATE": (
        ERR, "UnsupportedOperationError", "0837afb2b5191cf8", None),
    "count_scalar/METRICS": (OK, None, "8c1d3e37e710f2c9", None),
    "count_scalar/METRICS_text": (OK, None, "8c1d3e37e710f2c9", None),
    "count_scalar/METRICS_json": (OK, None, "1fc5b0b4a9b0917c", None),
    "count_scalar/METRICS_bad": (
        ERR, "ProtocolError", "b3ee34ebbdf066e1", None),
    "count_scalar/UNKNOWN": (ERR, "ProtocolError", "1ed2abd107e116b5", None),
    "cluster/PING": (OK, None, "986fb9373fff6032", None),
    "cluster/ADD": (
        ERR, "WrongOwnerError", "de0c28d1ef3eb699",
        {"peak_queue_depth": 1, "requests_total": 2}),
    "cluster/QUERY": (
        ERR, "WrongOwnerError", "de0c28d1ef3eb699",
        {"peak_queue_depth": 1, "requests_total": 2}),
    "cluster/QUERY_MULTI": (
        ERR, "WrongOwnerError", "de0c28d1ef3eb699",
        {"peak_queue_depth": 1, "requests_total": 2}),
    "cluster/SNAPSHOT": (OK, None, "ff1fd757ff3e12c7", None),
    "cluster/RESTORE": (OK, None, "17eb70034b5b7109", None),
    "cluster/STATS": (OK, None, "4ac92639094ac72b", None),
    "cluster/SUBSCRIBE": (OK, None, "17eb70034b5b7109", None),
    "cluster/DELTA": (ERR, "ReplicationError", "ea240b31d7e76dd3", None),
    "cluster/PROMOTE": (OK, None, "687efa69a42756af", None),
    "cluster/ADD_IDEM": (
        ERR, "WrongOwnerError", "de0c28d1ef3eb699",
        {"peak_queue_depth": 1, "requests_total": 2}),
    "cluster/SHARD_MAP": (OK, None, "ad845dcf9d2e01a5", None),
    "cluster/MIGRATE": (OK, None, "df3f619804a92fdb", None),
    "cluster/METRICS": (OK, None, "343ddcdc53d1e1fc", None),
    "cluster/METRICS_text": (OK, None, "343ddcdc53d1e1fc", None),
    "cluster/METRICS_json": (OK, None, "5acdad6fc1ee69a6", None),
    "cluster/METRICS_bad": (ERR, "ProtocolError", "b3ee34ebbdf066e1", None),
    "cluster/UNKNOWN": (ERR, "ProtocolError", "1ed2abd107e116b5", None),
    "worker/PING": (OK, None, "ba7989067b39dd53", None),
    "worker/ADD": (
        OK, None, "79a881f99a636d0a",
        {"peak_queue_depth": 1, "requests_total": 2}),
    "worker/QUERY": (
        OK, None, "2aa9645143c043c2",
        {"batches_executed": 1, "elements_queried": 24, "peak_queue_depth": 1,
         "requests_total": 2}),
    "worker/QUERY_MULTI": (
        ERR, "UnsupportedOperationError", "cd6904b6b11172a2",
        {"elements_queried": 24, "peak_queue_depth": 1, "requests_total": 2}),
    "worker/SNAPSHOT": (OK, None, "ff1fd757ff3e12c7", None),
    "worker/RESTORE": (
        ERR, "UnsupportedOperationError", "fdb48ea088133ff8", None),
    "worker/STATS": (OK, None, "8ab160d92c10d496", None),
    "worker/SUBSCRIBE": (
        ERR, "UnsupportedOperationError", "5abfbf8a6f769b75", None),
    "worker/DELTA": (
        ERR, "UnsupportedOperationError", "344297285b9a276d", None),
    "worker/PROMOTE": (
        ERR, "UnsupportedOperationError", "9cb7e833b04697a1", None),
    "worker/ADD_IDEM": (
        OK, None, "79a881f99a636d0a",
        {"peak_queue_depth": 1, "requests_total": 2}),
    "worker/SHARD_MAP": (
        ERR, "UnsupportedOperationError", "f8eb827c27a6e8c5", None),
    "worker/MIGRATE": (
        ERR, "UnsupportedOperationError", "584f234a7abe4a4d", None),
    "worker/METRICS": (OK, None, "cd9903eda39247eb", None),
    "worker/METRICS_text": (OK, None, "cd9903eda39247eb", None),
    "worker/METRICS_json": (OK, None, "b28b3176a7f9f55b", None),
    "worker/METRICS_bad": (ERR, "ProtocolError", "b3ee34ebbdf066e1", None),
    "worker/UNKNOWN": (ERR, "ProtocolError", "1ed2abd107e116b5", None),
    "supervisor/PING": (OK, None, "841277d6a8c7d4cd", None),
    "supervisor/ADD": (
        ERR, "UnsupportedOperationError", "3133557f2a76852a", None),
    "supervisor/QUERY": (
        ERR, "UnsupportedOperationError", "3133557f2a76852a", None),
    "supervisor/QUERY_MULTI": (
        ERR, "UnsupportedOperationError", "3133557f2a76852a", None),
    "supervisor/SNAPSHOT": (
        ERR, "UnsupportedOperationError", "3133557f2a76852a", None),
    "supervisor/RESTORE": (
        ERR, "UnsupportedOperationError", "3133557f2a76852a", None),
    "supervisor/STATS": (OK, None, "5623387d1944279a", None),
    "supervisor/SUBSCRIBE": (
        ERR, "UnsupportedOperationError", "3133557f2a76852a", None),
    "supervisor/DELTA": (
        ERR, "UnsupportedOperationError", "3133557f2a76852a", None),
    "supervisor/PROMOTE": (
        ERR, "UnsupportedOperationError", "3133557f2a76852a", None),
    "supervisor/ADD_IDEM": (
        ERR, "UnsupportedOperationError", "3133557f2a76852a", None),
    "supervisor/SHARD_MAP": (
        ERR, "UnsupportedOperationError", "3133557f2a76852a", None),
    "supervisor/MIGRATE": (
        ERR, "UnsupportedOperationError", "3133557f2a76852a", None),
    "supervisor/METRICS": (OK, None, "66f4c29f157122ba", None),
    "supervisor/METRICS_text": (OK, None, "66f4c29f157122ba", None),
    "supervisor/METRICS_json": (OK, None, "10c32f9bddf4eaf1", None),
    "supervisor/METRICS_bad": (ERR, "ProtocolError", "b3ee34ebbdf066e1", None),
    "supervisor/UNKNOWN": (
        ERR, "UnsupportedOperationError", "3133557f2a76852a", None),
}


@pytest.mark.parametrize(
    "target,name,op,payload", CELLS,
    ids=["%s/%s" % (cell[0], cell[1]) for cell in CELLS])
def test_op_golden(target, name, op, payload):
    assert _run_cell(target, name, op, payload) == GOLDEN[
        "%s/%s" % (target, name)]


def test_every_opcode_is_sent_to_every_target():
    sent = {op for _, _, op, _ in CELLS}
    assert sent == set(protocol.OP_NAMES) | {UNKNOWN_OP}
    assert UNKNOWN_OP not in protocol.OP_NAMES
