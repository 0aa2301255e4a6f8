"""Wire protocol for the set-query service.

A deliberately small length-prefixed binary protocol: every message —
request or response — is one *frame*

.. code-block:: text

    +----------+------------+--------+-----------------+
    | len: u32 | req id: u32| code:u8| payload (len-5) |
    +----------+------------+--------+-----------------+

with all integers big-endian.  ``len`` counts everything after itself,
so a reader needs exactly two reads per frame.  The request id is chosen
by the client and echoed verbatim in the response, which is what makes
**pipelining** work: a client may have many requests in flight on one
connection and match responses out of order.

One optional field rides on the code byte: when its high bit
(:data:`TRACE_FLAG`, ``0x80``) is set, a **u64 trace id** sits between
the code and the payload and the code is the low seven bits.  A traced
request is followable across the fleet (:mod:`repro.obs.tracing`); an
untraced frame is byte-identical to the pre-tracing wire format, so old
peers are unaffected.  Servers echo the request's trace id on the
response frame.

Request opcodes and response payloads:

========== ===== ================================= =========================
op         code  request payload                   OK response payload
========== ===== ================================= =========================
PING       1     empty                             server banner (utf-8)
ADD        2     elements [+ counts]               u32 number added
QUERY      3     elements                          verdicts (bool/int64)
QUERY_MULTI 4    elements                          1 byte/element (ShBF_A)
SNAPSHOT   5     empty                             persistence blob
RESTORE    6     persistence blob                  u32 restored item count
STATS      7     empty                             JSON object (utf-8)
SUBSCRIBE  8     u64 epoch + snapshot blob         u32 restored item count
DELTA      9     replication delta (see below)     u32 item count after apply
PROMOTE    10    empty                             server banner (utf-8)
ADD_IDEM   11    u64 client id + u64 write id      u32 number added
..               + elements [+ counts]
SHARD_MAP  12    empty (get) or map JSON (install) shard map JSON (utf-8)
MIGRATE    13    u8 action + u32 shard id + body   action-dependent (below)
METRICS    14    empty (text) or ``json``          metrics exposition
========== ===== ================================= =========================

METRICS serves the node's :class:`repro.obs.MetricsRegistry`: an empty
payload answers the Prometheus text exposition format, the payload
``json`` answers the registry's JSON snapshot (the mergeable form).

A response's code is a status: ``OK`` (0) or ``ERR`` (1); error payloads
carry ``(exception type name, message)`` so the client can re-raise the
server's own error class (see :func:`repro.errors.remote_error`).

Element batches are the protocol's workhorse: ``u8 has_counts``,
``u32 count``, then ``count`` × (``u32 length`` + raw bytes), then —
iff ``has_counts`` is 1 — ``count`` × i64 multiplicities.  Every
element is canonicalised with :func:`repro._util.to_bytes` *before*
encoding, so a string sent by the client hashes identically server-side.
QUERY verdicts come back either as a bit-packed boolean array (kind 0,
membership filters) or as an int64 array (kind 1, multiplicity filters).
QUERY_MULTI encodes one :class:`~repro.core.association_types.
AssociationAnswer` per element in a single byte: the low three bits are
the surviving-region mask (S1_ONLY=1, BOTH=2, S2_ONLY=4) and bit 3 is
the *clear* flag — the full seven-outcome answer of §4.2 in 8 bits.

SUBSCRIBE, DELTA and PROMOTE are the replication ops
(:mod:`repro.replication`).  SUBSCRIBE attaches a warm standby: the
payload is the primary's replication epoch plus a full persistence
snapshot, and the receiving server enters the read-only ``standby``
role.  DELTA ships incremental state: ``u64 epoch``, ``u8 kind``, then
either one whole-store blob (kind 1, *full*) or ``u32 n`` shard entries
of ``u32 shard_id``, ``u8 mode`` (0 merge / 1 replace / 2 idem-keys),
``u32 length`` and a blob (kind 0, *shards*) — for mode 2 the shard id
is ignored and the blob is an idempotency-key table (:data:`IDEM_KEYS`:
``u32 n`` × (u64 client id, u64 write id, u32 added)), which is how a
primary replicates its ADD_IDEM dedup window so a retried write stays
exactly-once across a failover.  PROMOTE flips a standby back to the writable ``primary``
role after its primary dies.

ADD_IDEM is ADD made retry-safe: the payload is prefixed with a
``(client id, write id)`` pair and the server remembers recent pairs in
a bounded dedup window — a duplicate (a retry whose original actually
landed) answers with the originally recorded count instead of inserting
twice.

SHARD_MAP and MIGRATE are the cluster ops (:mod:`repro.cluster`).
SHARD_MAP with an empty payload returns the node's installed
epoch-stamped shard map as JSON; a non-empty payload installs a newer
map (same-epoch identical maps are acknowledged idempotently, older
epochs are refused with :class:`~repro.errors.StaleShardMapError`).
MIGRATE drives one live shard move; its ``u8 action`` selects a step of
the migration protocol:

* ``MIGRATE_BEGIN`` (0, source): atomically start journalling writes to
  the shard and return its ``SHBF`` snapshot blob;
* ``MIGRATE_DELTA`` (1, source): flush pending coalesced writes, drain
  the journal, return the journalled write batches (:data:`JOURNAL`:
  ``u32 n`` × a u32-length-prefixed element batch) — the exact
  catch-up stream;
* ``MIGRATE_KEYS`` (2, source): return the node's ADD_IDEM dedup window
  (:data:`IDEM_KEYS`) so retries stay exactly-once across
  the ownership flip;
* ``MIGRATE_END`` (3, source): flush, drain the final residual batches,
  stop journalling and retire the local shard copy (an ``empty_like``
  clone takes its place);
* ``MIGRATE_INSTALL_REPLACE`` (4, target): body is a shard blob;
  swapped in via ``replace_shard``, answers the shard's u32 item count;
* ``MIGRATE_INSTALL_MERGE`` (5, target): body is journalled write
  batches, replayed through the shard's own ``add_batch`` — exact
  element-for-element application, so item counts never inflate;
* ``MIGRATE_INSTALL_KEYS`` (6, target): body is a dedup-window table,
  merged into the target's ADD_IDEM window.

A request misdirected under a stale map is refused with
:class:`~repro.errors.WrongOwnerError` (the WRONG_OWNER signal; it
crosses the wire typed, like every error) — never silently served.

Every payload is declared once, in the payload table at the end of this
module (:data:`PAYLOADS`): each entry is built from a small field layer
(fixed-width integers, enums, length-prefixed and rest-of-payload bytes,
counted lists, nested length-delimited blocks, a u8-tagged union) and
offers ``encode(value)`` and a whole-payload ``decode(payload)``.  The
element batch, the verdict array and the association answers keep
specialised leaf codecs, declared in the same table.

Decoding is strict and total: declared lengths must match the bytes
present, trailing bytes are refused, and frames above
:data:`MAX_FRAME_BYTES` are rejected before allocation, so any byte
string yields a value or a :class:`~repro.errors.ProtocolError` naming
the payload and field path — never a silently-wrong verdict or an OOM.
"""

from __future__ import annotations

import asyncio
import struct
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro._util import ElementLike, to_bytes_batch
from repro.core.association_types import Association, AssociationAnswer
from repro.errors import ProtocolError

__all__ = [
    "ADD_IDEM",
    "ANSWERS",
    "COUNT",
    "DELTA",
    "DELTA_FULL",
    "DELTA_SHARDS",
    "ELEMENTS",
    "ERROR",
    "IDEM_KEYS",
    "JOURNAL",
    "MAX_FRAME_BYTES",
    "MIGRATE",
    "MIGRATE_BEGIN",
    "MIGRATE_DELTA",
    "MIGRATE_END",
    "MIGRATE_INSTALL_KEYS",
    "MIGRATE_INSTALL_MERGE",
    "MIGRATE_INSTALL_REPLACE",
    "MIGRATE_KEYS",
    "MODE_IDEM",
    "MODE_MERGE",
    "MODE_REPLACE",
    "OP_ADD",
    "OP_ADD_IDEM",
    "OP_DELTA",
    "OP_METRICS",
    "OP_MIGRATE",
    "OP_NAMES",
    "OP_PING",
    "OP_PROMOTE",
    "OP_QUERY",
    "OP_QUERY_MULTI",
    "OP_RESTORE",
    "OP_SHARD_MAP",
    "OP_SNAPSHOT",
    "OP_STATS",
    "OP_SUBSCRIBE",
    "PAYLOADS",
    "STATUS_ERR",
    "STATUS_OK",
    "SUBSCRIBE",
    "TRACE_FLAG",
    "VERDICTS",
    "decode_elements",
    "decode_frame",
    "encode_elements",
    "encode_frame",
    "encode_verdicts",
    "read_frame",
]

# --- opcodes (requests) and statuses (responses) ----------------------
OP_PING = 1
OP_ADD = 2
OP_QUERY = 3
OP_QUERY_MULTI = 4
OP_SNAPSHOT = 5
OP_RESTORE = 6
OP_STATS = 7
OP_SUBSCRIBE = 8
OP_DELTA = 9
OP_PROMOTE = 10
OP_ADD_IDEM = 11
OP_SHARD_MAP = 12
OP_MIGRATE = 13
OP_METRICS = 14

STATUS_OK = 0
STATUS_ERR = 1

#: High bit of the frame code byte: set iff a u64 trace id follows the
#: code (see :mod:`repro.obs.tracing`).  Frames without it are
#: byte-identical to the pre-tracing format.
TRACE_FLAG = 0x80

#: Opcode -> canonical name, used by metric labels, trace spans and
#: tooling output.  Its keys are the known request opcodes: a server
#: refuses any other code.
OP_NAMES = {
    OP_PING: "PING",
    OP_ADD: "ADD",
    OP_QUERY: "QUERY",
    OP_QUERY_MULTI: "QUERY_MULTI",
    OP_SNAPSHOT: "SNAPSHOT",
    OP_RESTORE: "RESTORE",
    OP_STATS: "STATS",
    OP_SUBSCRIBE: "SUBSCRIBE",
    OP_DELTA: "DELTA",
    OP_PROMOTE: "PROMOTE",
    OP_ADD_IDEM: "ADD_IDEM",
    OP_SHARD_MAP: "SHARD_MAP",
    OP_MIGRATE: "MIGRATE",
    OP_METRICS: "METRICS",
}

# --- migration protocol actions (first byte of a MIGRATE payload) -----
MIGRATE_BEGIN = 0
MIGRATE_DELTA = 1
MIGRATE_KEYS = 2
MIGRATE_END = 3
MIGRATE_INSTALL_REPLACE = 4
MIGRATE_INSTALL_MERGE = 5
MIGRATE_INSTALL_KEYS = 6

# --- replication delta kinds and shard-entry apply modes --------------
DELTA_SHARDS = 0
DELTA_FULL = 1
MODE_MERGE = 0
MODE_REPLACE = 1
MODE_IDEM = 2

#: Hard ceiling on one frame.  Large enough for a multi-MiB store
#: snapshot, small enough that a corrupted length prefix cannot make a
#: reader allocate gigabytes.
MAX_FRAME_BYTES = 256 * 1024 * 1024

_HEADER = struct.Struct("!I")          # frame length (rest of frame)
_FRAME_META = struct.Struct("!IB")     # request id + code
_TRACE_ID = struct.Struct("!Q")        # optional trace id (TRACE_FLAG)
_U32 = struct.Struct("!I")
_BATCH_HEAD = struct.Struct("!BI")     # has_counts / kind + count

#: Region → bitmask for the one-byte association answer encoding.
_REGION_BITS = {
    Association.S1_ONLY: 1,
    Association.BOTH: 2,
    Association.S2_ONLY: 4,
}
_CLEAR_BIT = 8

# --- verdict container kinds (first byte of a QUERY response) ---------
_VERDICT_BOOL = 0
_VERDICT_INT64 = 1


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
def encode_frame(request_id: int, code: int, payload: bytes = b"",
                 trace_id: Optional[int] = None) -> bytes:
    """One wire frame: length prefix, request id, code, payload.

    A non-``None`` *trace_id* sets :data:`TRACE_FLAG` on the code byte
    and inserts the id as a u64 before the payload; ``trace_id=None``
    produces a frame byte-identical to the pre-tracing format.
    """
    if trace_id is None:
        body = _FRAME_META.pack(request_id, code) + payload
    else:
        body = (_FRAME_META.pack(request_id, code | TRACE_FLAG)
                + _TRACE_ID.pack(trace_id & 0xFFFFFFFFFFFFFFFF)
                + payload)
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(
            "frame payload of %d bytes exceeds the %d-byte frame limit"
            % (len(payload), MAX_FRAME_BYTES)
        )
    return _HEADER.pack(len(body)) + body


def _split_body(body: bytes) -> Tuple[int, int, bytes, Optional[int]]:
    """Shared tail of frame decoding: meta (+ trace id) + payload."""
    request_id, code = _FRAME_META.unpack_from(body)
    if not code & TRACE_FLAG:
        return request_id, code, body[_FRAME_META.size:], None
    if len(body) < _FRAME_META.size + _TRACE_ID.size:
        raise ProtocolError(
            "frame flags a trace id but its body is %d bytes"
            % len(body))
    (trace_id,) = _TRACE_ID.unpack_from(body, _FRAME_META.size)
    return (request_id, code & ~TRACE_FLAG,
            body[_FRAME_META.size + _TRACE_ID.size:], trace_id)


def decode_frame(frame: bytes) -> Tuple[int, int, bytes, Optional[int]]:
    """Invert :func:`encode_frame`:
    ``(request_id, code, payload, trace_id)``.

    ``trace_id`` is ``None`` for untraced frames; the returned code has
    :data:`TRACE_FLAG` stripped.  Used by tests and by any non-asyncio
    transport; the server and client read frames incrementally via
    :func:`read_frame` instead.
    """
    if len(frame) < _HEADER.size + _FRAME_META.size:
        raise ProtocolError(
            "frame truncated: %d bytes is shorter than the %d-byte "
            "minimum" % (len(frame), _HEADER.size + _FRAME_META.size)
        )
    (length,) = _HEADER.unpack_from(frame)
    body = frame[_HEADER.size:]
    if length != len(body):
        raise ProtocolError(
            "frame declares %d body bytes but carries %d"
            % (length, len(body))
        )
    return _split_body(body)


async def read_frame(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[int, int, bytes, Optional[int]]]:
    """Read one frame from *reader*; ``None`` on clean EOF.

    Returns ``(request_id, code, payload, trace_id)`` with
    :data:`TRACE_FLAG` stripped from the code (``trace_id`` is ``None``
    for untraced frames).  Raises
    :class:`~repro.errors.ProtocolError` on a truncated frame or a
    length prefix beyond :data:`MAX_FRAME_BYTES` — the connection is
    unrecoverable after either, since framing sync is lost.
    """
    prefix = await reader.read(_HEADER.size)
    if not prefix:
        return None
    try:
        if len(prefix) < _HEADER.size:
            prefix += await reader.readexactly(_HEADER.size - len(prefix))
        (length,) = _HEADER.unpack(prefix)
        if length < _FRAME_META.size:
            raise ProtocolError(
                "frame body of %d bytes cannot hold id and code" % length)
        if length > MAX_FRAME_BYTES:
            raise ProtocolError(
                "frame of %d bytes exceeds the %d-byte frame limit"
                % (length, MAX_FRAME_BYTES)
            )
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError(
            "connection closed mid-frame (%d of %d bytes)"
            % (len(exc.partial), exc.expected)
        ) from exc
    return _split_body(body)




# ----------------------------------------------------------------------
# Leaf codecs: the hot-path payloads with specialised layouts
# ----------------------------------------------------------------------
def encode_elements(
    elements: Sequence[ElementLike],
    counts: Optional[Sequence[int]] = None,
) -> bytes:
    """Encode an element batch (optionally with per-element counts).

    Layout: ``u8 has_counts``, ``u32 count``, then per element
    ``u32 length`` + bytes, then — iff ``has_counts`` — ``count`` × i64.
    Elements pass through :func:`~repro._util.to_bytes` here, so both
    peers hash the identical canonical byte string.
    """
    data = to_bytes_batch(elements)
    if counts is not None and len(counts) != len(data):
        raise ProtocolError(
            "counts length %d != elements length %d"
            % (len(counts), len(data))
        )
    parts = [_BATCH_HEAD.pack(0 if counts is None else 1, len(data))]
    for blob in data:
        parts.append(_U32.pack(len(blob)))
        parts.append(blob)
    if counts is not None:
        parts.append(
            np.asarray(counts, dtype=">i8").tobytes())
    return b"".join(parts)


def decode_elements(
    payload: bytes,
) -> Tuple[List[bytes], Optional[List[int]]]:
    """Invert :func:`encode_elements`: ``(elements, counts-or-None)``."""
    if len(payload) < 5:
        raise ProtocolError("element batch truncated inside its header")
    has_counts, count = _BATCH_HEAD.unpack_from(payload)
    if has_counts not in (0, 1):
        raise ProtocolError(
            "element batch has_counts flag must be 0 or 1, got %d"
            % has_counts)
    cursor = 5
    elements: List[bytes] = []
    for _ in range(count):
        if cursor + 4 > len(payload):
            raise ProtocolError(
                "element batch truncated: %d elements promised, ran out "
                "at element %d" % (count, len(elements))
            )
        (size,) = _U32.unpack_from(payload, cursor)
        cursor += 4
        if cursor + size > len(payload):
            raise ProtocolError(
                "element %d declares %d bytes but only %d remain"
                % (len(elements), size, len(payload) - cursor)
            )
        elements.append(payload[cursor : cursor + size])
        cursor += size
    counts: Optional[List[int]] = None
    if has_counts:
        expected = count * 8
        if len(payload) - cursor != expected:
            raise ProtocolError(
                "count vector should be %d bytes, found %d"
                % (expected, len(payload) - cursor)
            )
        counts = [
            int(v) for v in
            np.frombuffer(payload, dtype=">i8", count=count, offset=cursor)
        ]
    elif cursor != len(payload):
        raise ProtocolError(
            "%d trailing bytes after element batch" % (len(payload) - cursor))
    return elements, counts


def encode_verdicts(verdicts: np.ndarray) -> bytes:
    """Encode a QUERY result array: bit-packed bools or raw int64.

    Booleans dominate the serving path, so they ship at one *bit* per
    verdict (``np.packbits``); multiplicity estimates ship as big-endian
    int64.
    """
    verdicts = np.asarray(verdicts)
    if verdicts.dtype == np.bool_:
        kind, body = _VERDICT_BOOL, np.packbits(verdicts)
    elif np.issubdtype(verdicts.dtype, np.integer):
        kind, body = _VERDICT_INT64, verdicts.astype(">i8")
    else:
        raise ProtocolError(
            "cannot encode verdict dtype %s; QUERY serves bool or integer "
            "answers (association stores use QUERY_MULTI)" % verdicts.dtype
        )
    return _BATCH_HEAD.pack(kind, verdicts.size) + body.tobytes()


def _decode_verdicts(payload: bytes) -> np.ndarray:
    """Invert :func:`encode_verdicts`."""
    if len(payload) < 5:
        raise ProtocolError("verdict payload truncated inside its header")
    kind, count = _BATCH_HEAD.unpack_from(payload)
    body = payload[5:]
    if kind not in (_VERDICT_BOOL, _VERDICT_INT64):
        raise ProtocolError("unknown verdict container kind %d" % kind)
    expected = (count + 7) // 8 if kind == _VERDICT_BOOL else count * 8
    if len(body) != expected:
        raise ProtocolError(
            "%s verdicts for %d queries need %d bytes, found %d"
            % (("bool", "int64")[kind], count, expected, len(body))
        )
    if kind == _VERDICT_BOOL:
        return np.unpackbits(
            np.frombuffer(body, dtype=np.uint8), count=count
        ).astype(bool)
    return np.frombuffer(body, dtype=">i8", count=count).astype(np.int64)


def _answer_masks(answers: Sequence[AssociationAnswer]) -> bytes:
    """ShBF_A answers as one byte each: region mask + clear bit."""
    return bytes(
        sum(_REGION_BITS[region] for region in answer.candidates)
        | (_CLEAR_BIT if answer.clear else 0) for answer in answers)


def _answers_from_masks(masks: bytes) -> List[AssociationAnswer]:
    """Invert :func:`_answer_masks`."""
    for mask in masks:
        if mask & ~(_CLEAR_BIT | 7):
            raise ProtocolError(
                "association answer byte %#x has unknown bits set" % mask)
    return [AssociationAnswer(
        candidates=frozenset(
            region for region, bit in _REGION_BITS.items() if mask & bit),
        clear=bool(mask & _CLEAR_BIT)) for mask in masks]


# ----------------------------------------------------------------------
# Field layer
# ----------------------------------------------------------------------
class _Field:
    """One wire field: ``pack(value) -> bytes`` and
    ``unpack(buf, pos, path) -> (value, end)``.

    *path* names the field for error messages (``DELTA.body[2].mode``);
    ``unpack`` raises :class:`~repro.errors.ProtocolError` and nothing
    else on malformed input.  A payload-table entry is a field with a
    :attr:`name`, used as the root of every path: ``pack`` encodes a
    whole payload and :meth:`decode` decodes one.
    """

    name = "payload"

    def named(self, name: str) -> "_Field":
        self.name = name
        return self

    def decode(self, payload: bytes, path: Optional[str] = None):
        """Decode one whole payload; trailing bytes are an error."""
        path = path or self.name
        value, end = self.unpack(payload, 0, path)
        if end != len(payload):
            raise ProtocolError(
                "%s: %d trailing bytes" % (path, len(payload) - end))
        return value


class _Int(_Field):
    """A fixed-width big-endian unsigned integer."""

    def __init__(self, fmt: str):
        self.struct = struct.Struct(fmt)

    def pack(self, value: int) -> bytes:
        return self.struct.pack(value)

    def unpack(self, buf, pos, path):
        end = pos + self.struct.size
        if end > len(buf):
            raise ProtocolError(
                "%s truncated: needs %d bytes, %d remain"
                % (path, self.struct.size, len(buf) - pos))
        return self.struct.unpack_from(buf, pos)[0], end


class _Enum(_Int):
    """An integer restricted to an allowed set, checked both ways."""

    def __init__(self, fmt: str, what: str, allowed):
        super().__init__(fmt)
        self.what = what
        self.allowed = frozenset(allowed)

    def check(self, value: int, path: str) -> int:
        if value not in self.allowed:
            raise ProtocolError("%s: unknown %s %r" % (path, self.what, value))
        return value

    def pack(self, value: int) -> bytes:
        return super().pack(self.check(value, self.what))

    def unpack(self, buf, pos, path):
        value, end = super().unpack(buf, pos, path)
        return self.check(value, path), end


class _Bytes(_Field):
    """Bytes behind a length *prefix* field, or (``None``) the rest of
    the payload."""

    def __init__(self, prefix: Optional[_Int] = None):
        self.prefix = prefix

    def pack(self, value: bytes) -> bytes:
        if self.prefix is None:
            return value
        return self.prefix.pack(len(value)) + value

    def unpack(self, buf, pos, path):
        if self.prefix is None:
            return buf[pos:], len(buf)
        size, pos = self.prefix.unpack(buf, pos, path + ".length")
        if pos + size > len(buf):
            raise ProtocolError(
                "%s declares %d bytes but only %d remain"
                % (path, size, len(buf) - pos))
        return buf[pos : pos + size], pos + size


class _Block(_Bytes):
    """A nested payload behind a u32 length prefix."""

    def __init__(self, inner: _Field):
        super().__init__(U32)
        self.inner = inner

    def pack(self, value) -> bytes:
        return super().pack(self.inner.pack(value))

    def unpack(self, buf, pos, path):
        block, end = super().unpack(buf, pos, path)
        return self.inner.decode(block, path), end


class _List(_Field):
    """``u32 n`` followed by *n* items."""

    def __init__(self, item: _Field):
        self.item = item

    def pack(self, values) -> bytes:
        return U32.pack(len(values)) + b"".join(map(self.item.pack, values))

    def unpack(self, buf, pos, path):
        count, pos = U32.unpack(buf, pos, path + ".count")
        values = []
        for i in range(count):
            value, pos = self.item.unpack(buf, pos, "%s[%d]" % (path, i))
            values.append(value)
        return values, pos


class _Seq(_Field):
    """Named fields in order; the value is a tuple."""

    def __init__(self, **fields: _Field):
        self.fields = list(fields.items())

    def pack(self, value) -> bytes:
        return b"".join(f.pack(v) for (_, f), v in zip(self.fields, value))

    def unpack(self, buf, pos, path):
        values = []
        for name, field in self.fields:
            value, pos = field.unpack(buf, pos, path + "." + name)
            values.append(value)
        return tuple(values), pos


class _Union(_Field):
    """A u8 tag selecting one arm; the value is ``(tag, arm value)``."""

    def __init__(self, what: str, arms: dict):
        self.tag = _Enum("!B", what, arms)
        self.arms = arms

    def pack(self, value) -> bytes:
        tag, body = value
        return self.tag.pack(tag) + self.arms[tag].pack(body)

    def unpack(self, buf, pos, path):
        tag, pos = self.tag.unpack(buf, pos, path + "." + self.tag.what)
        body, pos = self.arms[tag].unpack(buf, pos, path)
        return (tag, body), pos


class _Map(_Field):
    """An *inner* field whose value callers see through a converter
    pair: ``to_wire(value)`` before packing, ``from_wire`` after.

    Over rest-of-payload bytes this splices a specialised leaf codec
    (``encode``/``decode`` of a whole payload) into the table.
    """

    def __init__(self, inner: _Field, to_wire: Callable,
                 from_wire: Callable):
        self.inner, self.to_wire, self.from_wire = inner, to_wire, from_wire

    def pack(self, value) -> bytes:
        return self.inner.pack(self.to_wire(value))

    def unpack(self, buf, pos, path):
        value, end = self.inner.unpack(buf, pos, path)
        try:
            return self.from_wire(value), end
        except ProtocolError as exc:
            raise ProtocolError("%s: %s" % (path, exc)) from None


U16, U32, U64 = _Int("!H"), _Int("!I"), _Int("!Q")


def _delta_to_wire(value):
    epoch, full_blob, entries = value
    if (entries is None) == (full_blob is None):
        raise ProtocolError(
            "a delta is either shard entries or one full blob, not both")
    if entries is None:
        return epoch, (DELTA_FULL, full_blob)
    return epoch, (DELTA_SHARDS, entries)


def _delta_from_wire(value):
    epoch, (kind, body) = value
    if kind == DELTA_FULL:
        return epoch, body, None
    return epoch, None, body


# ----------------------------------------------------------------------
# The payload table: every payload the protocol carries
# ----------------------------------------------------------------------
#: u32 count: the OK answer of ADD, ADD_IDEM, RESTORE, SUBSCRIBE, DELTA
#: and MIGRATE_INSTALL_*.
COUNT = _Int("!I").named("COUNT")
#: Element batch ``(elements, counts-or-None)``: ADD/QUERY/QUERY_MULTI.
ELEMENTS = _Map(_Bytes(), lambda value: encode_elements(*value),
                decode_elements).named("ELEMENTS")
#: QUERY answer: bool (bit-packed) or int64 verdict array.
VERDICTS = _Map(_Bytes(), encode_verdicts,
                _decode_verdicts).named("VERDICTS")
#: QUERY_MULTI answer: ``u32 n`` + one byte per
#: :class:`AssociationAnswer` (region mask + clear bit).
ANSWERS = _Map(_Bytes(U32), _answer_masks,
               _answers_from_masks).named("ANSWERS")
#: ``(client_id, write_id, (elements, counts))``.
ADD_IDEM = _Seq(client_id=U64, write_id=U64,
                batch=ELEMENTS).named("ADD_IDEM")
#: The ADD_IDEM dedup window: ``[(client_id, write_id, added), ...]``.
IDEM_KEYS = _List(_Seq(client_id=U64, write_id=U64,
                       added=U32)).named("IDEM_KEYS")
#: ``(epoch, snapshot blob)``.
SUBSCRIBE = _Seq(epoch=U64, snapshot=_Bytes()).named("SUBSCRIBE")
#: ``(epoch, full_blob, entries)``: exactly one of the last two is
#: ``None``; entries are ``(shard_id, mode, blob)``, possibly none (an
#: epoch heartbeat).
DELTA = _Map(_Seq(epoch=U64, body=_Union("kind", {
    DELTA_SHARDS: _List(_Seq(
        shard_id=U32,
        mode=_Enum("!B", "mode", (MODE_MERGE, MODE_REPLACE, MODE_IDEM)),
        blob=_Bytes(U32))),
    DELTA_FULL: _Bytes(),
})), _delta_to_wire, _delta_from_wire).named("DELTA")
#: ``(action, shard_id, body)``; the body is a shard blob, a
#: :data:`JOURNAL`, an :data:`IDEM_KEYS` table or empty, by action.
MIGRATE = _Seq(
    action=_Enum("!B", "action", range(MIGRATE_INSTALL_KEYS + 1)),
    shard_id=U32, body=_Bytes()).named("MIGRATE")
#: The migration journal: ``[(elements, counts-or-None), ...]``, one
#: length-delimited element batch per journalled write, so counts-
#: carrying and countless writes never merge.
JOURNAL = _List(_Block(ELEMENTS)).named("JOURNAL")
#: ERR payload ``(exception type name, message)``: u16-prefixed name,
#: the message is the rest; invalid utf-8 decodes with replacement.
ERROR = _Map(_Seq(type=_Bytes(U16), message=_Bytes()),
             lambda value: tuple(s.encode("utf-8") for s in value),
             lambda value: tuple(b.decode("utf-8", "replace")
                                 for b in value)).named("ERROR")

#: Name -> entry, for tooling and the property tests.
PAYLOADS = {entry.name: entry for entry in (
    COUNT, ELEMENTS, VERDICTS, ANSWERS, ADD_IDEM, IDEM_KEYS, SUBSCRIBE,
    DELTA, MIGRATE, JOURNAL, ERROR)}
