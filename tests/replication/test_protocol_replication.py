"""Codec tests for the replication wire additions.

SUBSCRIBE/DELTA payloads follow the same strictness rules as the rest
of the protocol: declared lengths must match the bytes present, and a
malformed payload raises :class:`~repro.errors.ProtocolError` before
touching any filter state.
"""

from __future__ import annotations

import pytest

from repro.errors import ProtocolError
from repro.service import protocol


class TestSubscribeCodec:
    def test_roundtrip(self):
        payload = protocol.SUBSCRIBE.pack((42, b"SNAPSHOT-BYTES"))
        epoch, blob = protocol.SUBSCRIBE.decode(payload)
        assert epoch == 42
        assert blob == b"SNAPSHOT-BYTES"

    def test_empty_blob_roundtrips(self):
        epoch, blob = protocol.SUBSCRIBE.decode(
            protocol.SUBSCRIBE.pack((0, b"")))
        assert (epoch, blob) == (0, b"")

    def test_large_epoch(self):
        epoch, _ = protocol.SUBSCRIBE.decode(
            protocol.SUBSCRIBE.pack((2**63, b"x")))
        assert epoch == 2**63

    def test_truncated_epoch_rejected(self):
        with pytest.raises(ProtocolError, match="truncated"):
            protocol.SUBSCRIBE.decode(b"\x00\x01\x02")


class TestDeltaCodec:
    def test_full_roundtrip(self):
        payload = protocol.DELTA.pack((7, b"WHOLE-STORE", None))
        epoch, full, entries = protocol.DELTA.decode(payload)
        assert epoch == 7
        assert full == b"WHOLE-STORE"
        assert entries is None

    def test_shards_roundtrip(self):
        wanted = [(0, protocol.MODE_MERGE, b"delta-0"),
                  (3, protocol.MODE_REPLACE, b"rebuilt-3"),
                  (1, protocol.MODE_MERGE, b"")]
        payload = protocol.DELTA.pack((9, None, wanted))
        epoch, full, entries = protocol.DELTA.decode(payload)
        assert epoch == 9
        assert full is None
        assert entries == wanted

    def test_empty_entries_is_a_heartbeat(self):
        epoch, full, entries = protocol.DELTA.decode(
            protocol.DELTA.pack((1, None, [])))
        assert (epoch, full, entries) == (1, None, [])

    def test_exactly_one_kind_required(self):
        with pytest.raises(ProtocolError, match="not both"):
            protocol.DELTA.pack((1, b"x", []))
        with pytest.raises(ProtocolError, match="not both"):
            protocol.DELTA.pack((1, None, None))

    def test_bad_mode_rejected_on_encode(self):
        with pytest.raises(ProtocolError, match="mode"):
            protocol.DELTA.pack((1, None, [(0, 9, b"x")]))

    def test_bad_mode_rejected_on_decode(self):
        good = protocol.DELTA.pack((
            1, None, [(0, protocol.MODE_MERGE, b"x")]))
        # mode byte sits right after epoch(8) + kind(1) + count(4) +
        # shard id(4).
        bad = good[:17] + bytes([7]) + good[18:]
        with pytest.raises(ProtocolError, match="unknown mode"):
            protocol.DELTA.decode(bad)

    def test_unknown_kind_rejected(self):
        payload = protocol.DELTA.pack((1, b"x", None))
        bad = payload[:8] + bytes([9]) + payload[9:]
        with pytest.raises(ProtocolError, match="unknown kind"):
            protocol.DELTA.decode(bad)

    def test_truncated_entry_rejected(self):
        payload = protocol.DELTA.pack((
            1, None, [(0, protocol.MODE_MERGE, b"0123456789")]))
        with pytest.raises(ProtocolError, match="blob declares"):
            protocol.DELTA.decode(payload[:-3])

    def test_trailing_garbage_rejected(self):
        payload = protocol.DELTA.pack((
            1, None, [(0, protocol.MODE_MERGE, b"x")]))
        with pytest.raises(ProtocolError, match="trailing"):
            protocol.DELTA.decode(payload + b"zz")

    def test_truncated_header_rejected(self):
        with pytest.raises(ProtocolError, match="truncated"):
            protocol.DELTA.decode(b"\x00" * 5)


class TestOpcodes:
    def test_replication_ops_are_known(self):
        for op in (protocol.OP_SUBSCRIBE, protocol.OP_DELTA,
                   protocol.OP_PROMOTE):
            assert op in protocol.OP_NAMES

    def test_replication_ops_are_distinct(self):
        ops = {protocol.OP_PING, protocol.OP_ADD, protocol.OP_QUERY,
               protocol.OP_QUERY_MULTI, protocol.OP_SNAPSHOT,
               protocol.OP_RESTORE, protocol.OP_STATS,
               protocol.OP_SUBSCRIBE, protocol.OP_DELTA,
               protocol.OP_PROMOTE}
        assert len(ops) == 10
