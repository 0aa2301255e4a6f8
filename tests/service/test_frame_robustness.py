"""Server-side frame robustness: bad bytes cost one connection, not
the server.

Every scenario drives a raw socket speaking deliberately broken wire
protocol at a live service while a healthy pipelined client shares the
server; the contract is that the poisoned connection is dropped with a
logged error and a counter bump, and the healthy client (and the
coalescer behind it) never notices.
"""

import asyncio
import logging
import struct

import pytest

from repro.core.membership import ShiftingBloomFilter
from repro.service import protocol
from repro.service.client import ServiceClient
from repro.service.server import FilterService


def robustness_run(scenario):
    """Run ``scenario(port, service)`` against a live service, then
    prove a healthy client still gets answers; returns the service."""

    async def main():
        service = FilterService(ShiftingBloomFilter(m=4096, k=4))
        server = await service.start(port=0)
        port = server.sockets[0].getsockname()[1]
        healthy = await ServiceClient.connect(port=port, op_timeout=5.0)
        try:
            await healthy.add([b"canary"])
            await scenario(port, service)
            # The healthy connection and the coalescer are undisturbed.
            verdicts = await healthy.query([b"canary"])
            assert bool(verdicts[0])
            assert await healthy.ping()
        finally:
            await healthy.close()
            server.close()
            await server.wait_closed()
        return service

    return asyncio.run(main())


async def read_until_closed(reader) -> bytes:
    data = b""
    while True:
        chunk = await asyncio.wait_for(reader.read(65536), timeout=5.0)
        if not chunk:
            return data
        data += chunk


class TestMalformedOp:
    def test_unknown_op_answers_err_then_drops_connection(self):
        async def scenario(port, service):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port)
            # 0x6E keeps the high (trace-flag) bit clear: this is an
            # unknown *op*, not a malformed trace field.
            writer.write(protocol.encode_frame(7, 0x6E, b""))
            await writer.drain()
            data = await read_until_closed(reader)
            # One ERR frame came back before the close.
            request_id, status, payload, _trace = protocol.decode_frame(
                data)
            assert request_id == 7
            assert status == protocol.STATUS_ERR
            name, message = protocol.ERROR.decode(payload)
            assert "op" in message
            writer.close()

        service = robustness_run(scenario)
        assert service.counters.protocol_errors >= 1
        assert service.counters.connections_dropped >= 1


class TestTraceFlagWithoutTraceId:
    def test_flagged_frame_too_short_drops_connection(self):
        async def scenario(port, service):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port)
            # Trace flag set but no 8-byte trace id in the body: the
            # frame is structurally broken and costs the connection.
            body = struct.pack("!IB", 7, protocol.OP_PING
                               | protocol.TRACE_FLAG)
            writer.write(struct.pack("!I", len(body)) + body)
            await writer.drain()
            assert await read_until_closed(reader) == b""
            writer.close()

        service = robustness_run(scenario)
        assert service.counters.protocol_errors >= 1
        assert service.counters.connections_dropped >= 1


class TestTruncatedLengthPrefix:
    def test_partial_header_then_close_is_logged_not_fatal(self):
        async def scenario(port, service):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port)
            writer.write(b"\x00\x00")  # half a length prefix
            await writer.drain()
            writer.close()
            await writer.wait_closed()
            await asyncio.sleep(0.05)

        service = robustness_run(scenario)
        assert service.counters.protocol_errors >= 1
        assert service.counters.connections_dropped >= 1


class TestClientKilledMidFrame:
    def test_death_between_header_and_body(self):
        async def scenario(port, service):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port)
            # Promise a 100-byte body, send 10, die without FIN niceties.
            writer.write(struct.pack("!I", 100) + b"x" * 10)
            await writer.drain()
            writer.transport.abort()
            await asyncio.sleep(0.05)

        service = robustness_run(scenario)
        assert service.counters.protocol_errors >= 1
        assert service.counters.connections_dropped >= 1


class TestOversizedFrame:
    def test_length_prefix_beyond_limit_drops_connection(self):
        async def scenario(port, service):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port)
            writer.write(struct.pack(
                "!I", protocol.MAX_FRAME_BYTES + 1))
            await writer.drain()
            # The server must hang up without trying to buffer 256 MiB.
            assert await read_until_closed(reader) == b""
            writer.close()

        service = robustness_run(scenario)
        assert service.counters.protocol_errors >= 1
        assert service.counters.connections_dropped >= 1


class TestLogging:
    def test_dropped_connection_is_logged(self, caplog):
        async def scenario(port, service):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port)
            writer.write(b"\xFF")  # garbage, then vanish
            await writer.drain()
            writer.close()
            await writer.wait_closed()
            await asyncio.sleep(0.05)

        with caplog.at_level(logging.WARNING, logger="repro.service"):
            robustness_run(scenario)
        assert any("dropping connection" in r.getMessage()
                   for r in caplog.records)


class TestBlastRadius:
    def test_many_poisoned_connections_leave_service_healthy(self):
        async def scenario(port, service):
            for i in range(8):
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port)
                writer.write(struct.pack("!I", 50) + b"y" * (i % 5))
                await writer.drain()
                writer.transport.abort()
            await asyncio.sleep(0.1)

        service = robustness_run(scenario)
        assert service.counters.connections_dropped >= 8
