"""The op table ``protocol.OPS`` is the one place ops are classified.

Every opcode has exactly one row; the ``OP_<NAME>`` constants and
``OP_NAMES`` are views of it; every row's handler exists on the server;
and the server's instruments, coalescers and shed set, the read
worker's forward/refuse split and the supervisor's served set all come
from the rows.  Adding an opcode constant without a row fails here.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core import ShiftingBloomFilter
from repro.mpserve.supervisor import MultiWorkerSupervisor
from repro.mpserve.worker import route
from repro.service import protocol
from repro.service.server import FilterService

OPS = protocol.OPS


def _op_constants() -> dict:
    return {name: value for name, value in vars(protocol).items()
            if name.startswith("OP_") and isinstance(value, int)}


def test_every_opcode_constant_has_exactly_one_row():
    constants = _op_constants()
    assert sorted(constants.values()) == sorted(OPS)
    for name, code in constants.items():
        assert OPS[code].name == name[len("OP_"):]
    assert protocol.OP_NAMES == {code: row.name
                                 for code, row in OPS.items()}
    names = [row.name for row in OPS.values()]
    assert len(set(names)) == len(names)
    for code, row in OPS.items():
        assert row.code == code
        assert 0 < code < protocol.TRACE_FLAG


@pytest.mark.parametrize("row", OPS.values(), ids=lambda row: row.name)
def test_row_is_well_formed(row):
    assert row.kind in ("read", "write", "state", "replication", "cluster",
                        "observability")
    assert row.standby in ("serve", "refuse")
    entries = list(protocol.PAYLOADS.values())
    for entry in (row.request, row.response):
        assert entry is None or any(entry is e for e in entries)
    # Element ops carry a batch, are coalesced, and only reads shed.
    assert row.carries_elements == (row.coalescer is not None)
    assert not row.sheddable or row.kind == "read"
    if row.carries_elements:
        assert row.request is not None and row.response is not None


@pytest.mark.parametrize("row", OPS.values(), ids=lambda row: row.name)
def test_every_handler_exists_on_the_server(row):
    handler = getattr(FilterService, row.handler, None)
    assert handler is not None, row.handler
    assert asyncio.iscoroutinefunction(handler)


def test_server_builds_its_instruments_and_coalescers_from_the_rows():
    service = FilterService(ShiftingBloomFilter(m=256, k=4))
    for instruments in (service._m_requests, service._m_errors,
                        service._m_latency):
        assert set(instruments) == set(OPS)
    assert set(service._m_elements) == {
        code for code, row in OPS.items() if row.carries_elements}
    assert list(service._coalescers) == ["add", "query", "query_multi"]
    assert {row.name for row in OPS.values() if row.sheddable} == {
        "QUERY", "QUERY_MULTI"}


def test_standby_refuses_writes_and_restore():
    assert {row.name for row in OPS.values()
            if row.standby == "refuse"} == {"ADD", "ADD_IDEM", "RESTORE"}


def test_worker_split_is_derived_from_the_rows():
    routes = {row.name: route(row) for row in OPS.values()}
    assert {name for name, r in routes.items() if r == "forward"} == {
        "ADD", "ADD_IDEM", "SNAPSHOT"}
    assert {name for name, r in routes.items() if r == "refuse"} == {
        "RESTORE", "SUBSCRIBE", "DELTA", "PROMOTE", "SHARD_MAP",
        "MIGRATE"}
    assert {name for name, r in routes.items() if r == "local"} == {
        "PING", "QUERY", "QUERY_MULTI", "STATS", "METRICS"}


def test_supervisor_serves_the_observability_rows():
    served = [row for row in OPS.values() if row.kind == "observability"]
    assert {row.name for row in served} == {"PING", "STATS", "METRICS"}
    for row in served:
        assert asyncio.iscoroutinefunction(
            getattr(MultiWorkerSupervisor, row.handler))
