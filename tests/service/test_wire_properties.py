"""Property tests over every entry of the wire payload table.

The strategies are not written per payload: :func:`strategy` walks an
entry's field declaration and builds one, so a payload added to
:data:`repro.service.protocol.PAYLOADS` is covered without new test
code.  Only the three leaf codecs with specialised layouts (element
batch, verdict array, association answers) get hand-written value
strategies.  Two properties hold for every entry:

* generated values round-trip through ``pack`` and ``decode``;
* decoding is total: any byte string — arbitrary, a truncation of a
  valid encoding, or one with a single byte changed — yields a value or
  a :class:`~repro.errors.ProtocolError`, never ``struct.error``,
  ``IndexError``, ``ValueError`` or ``UnicodeDecodeError``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.association_types import Association, AssociationAnswer
from repro.errors import ProtocolError
from repro.service import protocol

_I64 = st.integers(-2 ** 63, 2 ** 63 - 1)

_LEAVES = {
    id(protocol.ELEMENTS): st.lists(
        st.binary(max_size=12), max_size=6).flatmap(
        lambda elements: st.tuples(st.just(elements), st.none() | st.lists(
            _I64, min_size=len(elements), max_size=len(elements)))),
    id(protocol.VERDICTS): st.one_of(
        st.lists(st.booleans(), max_size=40).map(
            lambda v: np.array(v, dtype=bool)),
        st.lists(_I64, max_size=10).map(
            lambda v: np.array(v, dtype=np.int64))),
    id(protocol.ANSWERS): st.lists(st.builds(
        AssociationAnswer,
        candidates=st.frozensets(st.sampled_from(list(Association))),
        clear=st.booleans()), max_size=10),
}


def strategy(field) -> st.SearchStrategy:
    """Values of *field*, derived from its declaration."""
    if id(field) in _LEAVES:
        return _LEAVES[id(field)]
    if isinstance(field, protocol._Enum):
        return st.sampled_from(sorted(field.allowed))
    if isinstance(field, protocol._Int):
        return st.integers(0, 256 ** field.struct.size - 1)
    if isinstance(field, protocol._Block):
        return strategy(field.inner)
    if isinstance(field, protocol._Bytes):
        return st.binary(max_size=24)
    if isinstance(field, protocol._List):
        return st.lists(strategy(field.item), max_size=4)
    if isinstance(field, protocol._Seq):
        return st.tuples(*(strategy(f) for _, f in field.fields))
    if isinstance(field, protocol._Union):
        return st.one_of(*(st.tuples(st.just(tag), strategy(arm))
                           for tag, arm in sorted(field.arms.items())))
    if isinstance(field, protocol._Map):
        return strategy(field.inner).map(field.from_wire)
    raise TypeError("no strategy for %r" % (field,))


def _decodes_or_refuses(entry, payload: bytes) -> None:
    try:
        entry.decode(payload)
    except ProtocolError as exc:
        assert str(exc).startswith(entry.name), str(exc)


ENTRIES = sorted(protocol.PAYLOADS)


@pytest.mark.parametrize("name", ENTRIES)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_round_trip(name, data):
    entry = protocol.PAYLOADS[name]
    value = data.draw(strategy(entry))
    decoded = entry.decode(entry.pack(value))
    if isinstance(value, np.ndarray):
        assert decoded.dtype == value.dtype
        np.testing.assert_array_equal(decoded, value)
    else:
        assert decoded == value


@pytest.mark.parametrize("name", ENTRIES)
@settings(max_examples=150, deadline=None)
@given(payload=st.binary(max_size=96))
def test_arbitrary_bytes_decode_or_refuse(name, payload):
    _decodes_or_refuses(protocol.PAYLOADS[name], payload)


@pytest.mark.parametrize("name", ENTRIES)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_damaged_encodings_decode_or_refuse(name, data):
    entry = protocol.PAYLOADS[name]
    payload = entry.pack(data.draw(strategy(entry)))
    cut = data.draw(st.integers(0, len(payload)))
    _decodes_or_refuses(entry, payload[:cut])
    if payload:
        at = data.draw(st.integers(0, len(payload) - 1))
        byte = data.draw(st.integers(0, 255))
        _decodes_or_refuses(
            entry, payload[:at] + bytes([byte]) + payload[at + 1:])
