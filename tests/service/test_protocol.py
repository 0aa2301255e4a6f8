"""Wire-protocol unit tests: every codec round-trips, every mangled
payload raises :class:`~repro.errors.ProtocolError` instead of decoding
into something silently wrong."""

from __future__ import annotations

import asyncio
import itertools

import numpy as np
import pytest

from repro.core.association_types import Association, AssociationAnswer
from repro.errors import (
    ConfigurationError,
    ProtocolError,
    ServiceOverloadedError,
    remote_error,
)
from repro.service import protocol


# ----------------------------------------------------------------------
# Frames
# ----------------------------------------------------------------------
class TestFrames:
    def test_round_trip(self):
        frame = protocol.encode_frame(41, protocol.OP_QUERY, b"payload")
        assert protocol.decode_frame(frame) == (
            41, protocol.OP_QUERY, b"payload", None)

    def test_empty_payload_round_trip(self):
        frame = protocol.encode_frame(0, protocol.OP_PING)
        assert protocol.decode_frame(frame) == (
            0, protocol.OP_PING, b"", None)

    def test_traced_round_trip(self):
        trace = 0xDEAD_BEEF_CAFE_F00D
        frame = protocol.encode_frame(9, protocol.OP_QUERY, b"q",
                                      trace_id=trace)
        assert protocol.decode_frame(frame) == (
            9, protocol.OP_QUERY, b"q", trace)

    def test_untraced_frame_bytes_unchanged(self):
        # The trace field is strictly opt-in: without a trace id the
        # encoding is byte-identical to the pre-tracing wire format.
        frame = protocol.encode_frame(41, protocol.OP_QUERY, b"payload")
        assert frame[8] == protocol.OP_QUERY
        assert frame[8] & protocol.TRACE_FLAG == 0
        traced = protocol.encode_frame(41, protocol.OP_QUERY, b"payload",
                                       trace_id=1)
        assert len(traced) == len(frame) + 8
        assert traced[8] == protocol.OP_QUERY | protocol.TRACE_FLAG

    def test_traced_frame_too_short_rejected(self):
        # A flagged frame whose body can't hold the 8-byte trace id is
        # malformed, not silently untraced.
        frame = protocol.encode_frame(3, protocol.OP_PING, b"abc",
                                      trace_id=5)
        body = frame[4:4 + 4 + 1 + 4]  # req id + code + 4 of 8 id bytes
        mangled = len(body).to_bytes(4, "big") + body
        with pytest.raises(ProtocolError):
            protocol.decode_frame(mangled)

    def test_truncated_frame_rejected(self):
        with pytest.raises(ProtocolError):
            protocol.decode_frame(b"\x00\x00")

    def test_length_mismatch_rejected(self):
        frame = protocol.encode_frame(1, protocol.OP_PING, b"x")
        with pytest.raises(ProtocolError):
            protocol.decode_frame(frame + b"extra")
        with pytest.raises(ProtocolError):
            protocol.decode_frame(frame[:-1])

    def test_oversized_frame_rejected_at_encode(self, monkeypatch):
        # Shrink the limit so the test doesn't allocate 256 MiB.
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 64)
        with pytest.raises(ProtocolError):
            protocol.encode_frame(0, protocol.OP_ADD, b"\x00" * 128)

    def test_read_frame_eof_and_truncation(self):
        async def main():
            # Clean EOF before any byte -> None.
            reader = asyncio.StreamReader()
            reader.feed_eof()
            assert await protocol.read_frame(reader) is None

            # EOF inside a frame body -> ProtocolError.
            reader = asyncio.StreamReader()
            frame = protocol.encode_frame(7, protocol.OP_PING, b"abc")
            reader.feed_data(frame[:-2])
            reader.feed_eof()
            with pytest.raises(ProtocolError):
                await protocol.read_frame(reader)

            # A hostile length prefix is rejected before allocation.
            reader = asyncio.StreamReader()
            reader.feed_data(b"\xff\xff\xff\xff")
            reader.feed_eof()
            with pytest.raises(ProtocolError):
                await protocol.read_frame(reader)

        asyncio.run(main())

    def test_read_frame_round_trip(self):
        async def main():
            reader = asyncio.StreamReader()
            reader.feed_data(protocol.encode_frame(3, protocol.OP_STATS))
            reader.feed_data(
                protocol.encode_frame(4, protocol.OP_QUERY, b"q",
                                      trace_id=0x42))
            reader.feed_eof()
            assert await protocol.read_frame(reader) == (
                3, protocol.OP_STATS, b"", None)
            assert await protocol.read_frame(reader) == (
                4, protocol.OP_QUERY, b"q", 0x42)
            assert await protocol.read_frame(reader) is None

        asyncio.run(main())


# ----------------------------------------------------------------------
# Element batches
# ----------------------------------------------------------------------
class TestElements:
    @pytest.mark.parametrize("elements", [
        [],
        [b"solo"],
        [b"a", b"b", b"a", b"a"],          # duplicate-heavy
        [b"", b"x", b""],                  # empty elements are elements
        ["str", b"bytes", 42],             # canonicalised kinds
    ])
    def test_round_trip(self, elements):
        from repro._util import to_bytes

        payload = protocol.encode_elements(elements)
        decoded, counts = protocol.decode_elements(payload)
        assert decoded == [to_bytes(e) for e in elements]
        assert counts is None

    def test_round_trip_with_counts(self):
        payload = protocol.encode_elements([b"a", b"b"], [3, 9])
        decoded, counts = protocol.decode_elements(payload)
        assert decoded == [b"a", b"b"]
        assert counts == [3, 9]

    def test_count_length_mismatch_rejected(self):
        with pytest.raises(ProtocolError):
            protocol.encode_elements([b"a", b"b"], [1])

    def test_truncated_batch_rejected(self):
        payload = protocol.encode_elements([b"alpha", b"beta"])
        for cut in (3, len(payload) - 1):
            with pytest.raises(ProtocolError):
                protocol.decode_elements(payload[:cut])

    def test_trailing_bytes_rejected(self):
        payload = protocol.encode_elements([b"alpha"])
        with pytest.raises(ProtocolError):
            protocol.decode_elements(payload + b"\x00")

    def test_bad_flag_rejected(self):
        payload = bytearray(protocol.encode_elements([b"a"]))
        payload[0] = 7
        with pytest.raises(ProtocolError):
            protocol.decode_elements(bytes(payload))


# ----------------------------------------------------------------------
# Verdicts
# ----------------------------------------------------------------------
class TestVerdicts:
    @pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 500])
    def test_bool_round_trip(self, n):
        rng = np.random.default_rng(n)
        verdicts = rng.random(n) < 0.5
        decoded = protocol.VERDICTS.decode(
            protocol.encode_verdicts(verdicts))
        assert decoded.dtype == np.bool_
        assert (decoded == verdicts).all()

    def test_int64_round_trip(self):
        counts = np.array([0, 1, -3, 2**40], dtype=np.int64)
        decoded = protocol.VERDICTS.decode(
            protocol.encode_verdicts(counts))
        assert decoded.dtype == np.int64
        assert (decoded == counts).all()

    def test_object_dtype_rejected(self):
        with pytest.raises(ProtocolError):
            protocol.encode_verdicts(np.array([object()], dtype=object))

    def test_truncated_verdicts_rejected(self):
        payload = protocol.encode_verdicts(np.ones(16, dtype=bool))
        with pytest.raises(ProtocolError):
            protocol.VERDICTS.decode(payload[:-1])
        with pytest.raises(ProtocolError):
            protocol.VERDICTS.decode(b"\x00")

    def test_unknown_kind_rejected(self):
        payload = bytearray(
            protocol.encode_verdicts(np.ones(8, dtype=bool)))
        payload[0] = 9
        with pytest.raises(ProtocolError):
            protocol.VERDICTS.decode(bytes(payload))


# ----------------------------------------------------------------------
# Association answers
# ----------------------------------------------------------------------
class TestAssociationAnswers:
    def test_all_outcomes_round_trip(self):
        regions = (Association.S1_ONLY, Association.BOTH,
                   Association.S2_ONLY)
        answers = []
        for r in range(len(regions) + 1):
            for combo in itertools.combinations(regions, r):
                for clear in (False, True):
                    answers.append(AssociationAnswer(
                        candidates=frozenset(combo), clear=clear))
        decoded = protocol.ANSWERS.decode(
            protocol.ANSWERS.pack(answers))
        assert decoded == answers

    def test_empty_round_trip(self):
        assert protocol.ANSWERS.decode(
            protocol.ANSWERS.pack([])) == []

    def test_unknown_bits_rejected(self):
        payload = bytearray(protocol.ANSWERS.pack(
            [AssociationAnswer(candidates=frozenset(), clear=False)]))
        payload[-1] = 0x80
        with pytest.raises(ProtocolError):
            protocol.ANSWERS.decode(bytes(payload))

    def test_count_mismatch_rejected(self):
        payload = protocol.ANSWERS.pack(
            [AssociationAnswer(candidates=frozenset(), clear=True)])
        with pytest.raises(ProtocolError):
            protocol.ANSWERS.decode(payload + b"\x00")


# ----------------------------------------------------------------------
# Errors across the wire
# ----------------------------------------------------------------------
class TestErrors:
    def test_error_round_trip(self):
        exc = ConfigurationError("m must be positive, got -4")
        name, message = protocol.ERROR.decode(
            protocol.ERROR.pack((type(exc).__name__, str(exc))))
        assert name == "ConfigurationError"
        assert message == "m must be positive, got -4"

    def test_remote_error_maps_known_types(self):
        exc = remote_error("ServiceOverloadedError", "busy")
        assert isinstance(exc, ServiceOverloadedError)
        assert str(exc) == "busy"

    def test_remote_error_refuses_arbitrary_types(self):
        exc = remote_error("SystemExit", "nope")
        assert isinstance(exc, ProtocolError)
        assert "nope" in str(exc)
        exc = remote_error("ReproError", "base class is not a carrier")
        assert isinstance(exc, ProtocolError)

    def test_truncated_error_payload_rejected(self):
        payload = protocol.ERROR.pack(("ValueError", "boom"))
        with pytest.raises(ProtocolError):
            protocol.ERROR.decode(payload[:1])
        with pytest.raises(ProtocolError):
            protocol.ERROR.decode(b"\x00\xffX")


# ----------------------------------------------------------------------
# u32 count answers
# ----------------------------------------------------------------------
class TestCountAnswers:
    def test_count_is_exactly_four_bytes(self):
        assert protocol.COUNT.decode(protocol.COUNT.pack(7)) == 7
        for bad in (b"", b"\x00\x00\x07", b"\x00\x00\x00\x07\x00"):
            with pytest.raises(ProtocolError, match="COUNT"):
                protocol.COUNT.decode(bad)

    @pytest.mark.parametrize("answer", [b"", b"\x00\x00\x00\x02\x00"])
    def test_client_refuses_malformed_add_answer(self, answer):
        """An OK answer to ADD that is not exactly one u32 is a protocol
        error, not a silent count of 0 (empty) or 512 (5 bytes)."""
        from repro.service.client import ServiceClient

        async def handle(reader, writer):
            frame = await protocol.read_frame(reader)
            writer.write(protocol.encode_frame(
                frame[0], protocol.STATUS_OK, answer))
            await writer.drain()
            await reader.read()  # hold the line until the client hangs up
            writer.close()

        async def main():
            server = await asyncio.start_server(handle, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            client = await ServiceClient.connect(port=port, op_timeout=5.0)
            try:
                with pytest.raises(ProtocolError, match="COUNT"):
                    await client.add([b"a", b"b"])
            finally:
                await client.close()
                server.close()
                await server.wait_closed()

        asyncio.run(main())
