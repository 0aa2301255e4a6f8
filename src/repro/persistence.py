"""Snapshot persistence: one codec for filters, stores and rings.

Membership filters are long-lived: a gateway builds one from a catalog
and serves it for hours.  This module snapshots a filter's parameters
and raw bits into a self-describing blob that can be shipped between
processes or persisted across restarts — the Summary-Cache pattern of
§2.2, where nodes exchange whole filters — and does the same for whole
:class:`~repro.store.ShardedFilterStore` fleets and
:class:`~repro.store.generational.GenerationalStore` rings.

Every blob is ``magic | u16 version | u32 header_len | JSON header |
BLAKE2b-128 digest over header + payload | payload``; the magic says
what it holds: ``SHBF`` one filter (raw bits), ``SHBS`` a sharded store
and ``SHBG`` a generational ring (both: concatenated member ``SHBF``
blobs).  Rings carry trigger config but **no clock state**, so a
quiesced primary and its standby snapshot byte-identically.  The field
tables live in ``docs/ARCHITECTURE.md`` ("Persistence formats").

Only seed-reconstructible hash families round-trip (``family_spec`` ↔
``make_family``); counting variants are refused, since their DRAM-tier
counter state belongs to the updater.  Decoding is total: bytes that
are not a well-formed snapshot raise
:class:`~repro.errors.ConfigurationError`, never a stray ``KeyError``.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from contextlib import contextmanager

from repro.baselines.bloom import BloomFilter
from repro.baselines.counting_bloom import CountingBloomFilter
from repro.baselines.one_mem_bloom import OneMemoryBloomFilter
from repro.bitarray.bitarray import BitArray
from repro.core.association import CountingShiftingAssociationFilter
from repro.core.membership import (
    CountingShiftingBloomFilter,
    ShiftingBloomFilter,
)
from repro.core.multiplicity import CountingShiftingMultiplicityFilter
from repro.errors import (
    ConfigurationError,
    NotASnapshotError,
    UnsupportedSnapshotError,
)
from repro.hashing.family import family_spec, make_family
from repro.store.generational import GenerationalStore
from repro.store.router import ShardRouter
from repro.store.sharded import ShardedFilterStore

__all__ = [
    "container_header",
    "dumps",
    "filter_from_header",
    "filter_header",
    "load_target",
    "loads",
    "target_from_header",
]

_FILTER_MAGIC = b"SHBF"
_STORE_MAGIC = b"SHBS"
_RING_MAGIC = b"SHBG"
_VERSION = 1
_PREFIX = struct.Struct("<4sHI")  # magic, version, header length
_DIGEST_BYTES = 16

#: Container magic -> (header ``type`` tag, header field counting the
#: member filters).
_CONTAINERS = {
    _STORE_MAGIC: ("sharded_store", "n_shards"),
    _RING_MAGIC: ("generational_store", "generations"),
}
_MAGIC_OF = {kind: magic for magic, (kind, _) in _CONTAINERS.items()}
_COUNT_FIELD = dict(_CONTAINERS.values())

#: Counting variants pair the query-side bit array with DRAM-tier
#: counter state owned by the updater; a bits-only snapshot would
#: restore a filter that silently cannot honour deletions, so these are
#: rejected with a dedicated error type rather than the generic
#: "unsupported type" catch-all.
_COUNTING_TYPES = (
    CountingBloomFilter,
    CountingShiftingAssociationFilter,
    CountingShiftingBloomFilter,
    CountingShiftingMultiplicityFilter,
)

#: Filter type tag -> (class, constructor fields beyond ``m``/``k``,
#: fields that size the bit array).  No sizing field of a real snapshot
#: exceeds its payload's bit length, and neither does the product of
#: the sizing fields after ``m`` (the widest span one probe covers), so
#: a forged one is refused before the constructor allocates.
_FILTER_TYPES = {
    "shbf_m": (ShiftingBloomFilter, ("w_bar", "word_bits"), ("m", "w_bar")),
    "one_mem_bf": (OneMemoryBloomFilter, ("word_bits", "words_per_element"),
                   ("m", "word_bits", "words_per_element")),
    "bf": (BloomFilter, (), ("m",)),
}

#: Constructor fields a header may omit, with the value omission means.
#: Writers leave a field out at its default, which keeps the bytes of
#: every snapshot written before the field existed.
_FIELD_DEFAULTS = {"words_per_element": 1}


@contextmanager
def _well_formed(what: str):
    """Report a header that lacks or mistypes a field as a
    :class:`ConfigurationError` — the one error decoding may raise."""
    try:
        yield
    except ConfigurationError:
        raise
    except (AttributeError, KeyError, OverflowError, TypeError,
            ValueError) as exc:
        raise ConfigurationError(
            "malformed %s header (%s: %s)"
            % (what, type(exc).__name__, exc)) from None


def _frame(magic: bytes, header: dict, payload: bytes) -> bytes:
    header_bytes = json.dumps(header, sort_keys=True).encode()
    digest = hashlib.blake2b(
        header_bytes + payload, digest_size=_DIGEST_BYTES).digest()
    return b"".join((
        _PREFIX.pack(magic, _VERSION, len(header_bytes)),
        header_bytes, digest, payload))


def _unframe(blob: bytes):
    """Verify one framed blob and split it: ``(magic, header, payload)``."""
    magic = bytes(blob[:4])
    if magic != _FILTER_MAGIC and magic not in _CONTAINERS:
        raise NotASnapshotError("not a ShBF snapshot (bad magic)")
    if len(blob) < _PREFIX.size:
        raise ConfigurationError("snapshot truncated inside the prefix")
    _, version, header_len = _PREFIX.unpack_from(blob)
    if version != _VERSION:
        raise ConfigurationError("unsupported snapshot version %d" % version)
    header_end = _PREFIX.size + header_len
    header_bytes = blob[_PREFIX.size:header_end]
    digest = blob[header_end:header_end + _DIGEST_BYTES]
    payload = blob[header_end + _DIGEST_BYTES:]
    expected = hashlib.blake2b(
        header_bytes + payload, digest_size=_DIGEST_BYTES).digest()
    if digest != expected:
        raise ConfigurationError("snapshot integrity check failed")
    try:
        header = json.loads(header_bytes)
    except (RecursionError, ValueError):
        raise ConfigurationError("snapshot header is not valid JSON") from None
    if not isinstance(header, dict):
        raise ConfigurationError("snapshot header is not a JSON object")
    return magic, header, payload


def filter_header(filt) -> dict:
    """Describe a snapshot-capable filter as a JSON-able header dict.

    The fields — ``type`` tag, geometry, ``n_items`` and the hash
    family ``(kind, seed)`` — are everything :func:`filter_from_header`
    needs to rebuild the filter around its bit buffer.  This is the
    ``SHBF`` header and, plus byte placement, the shared-memory
    generation meta of :mod:`repro.store.shm`.

    Raises:
        UnsupportedSnapshotError: for counting variants (their counter
            array is updater state a bits-only image would drop).
        ConfigurationError: for any other unsupported type or a hash
            family that cannot be reconstructed.
    """
    if isinstance(filt, _COUNTING_TYPES):
        raise UnsupportedSnapshotError(
            "%s cannot be snapshotted: its counter array is DRAM-tier "
            "updater state that a bits-only snapshot would silently "
            "drop, leaving a restored filter unable to honour "
            "deletions.  Snapshot a plain query-side filter instead, "
            "or rebuild from the catalog." % type(filt).__name__
        )
    if isinstance(filt, ShiftingBloomFilter):
        header = {"type": "shbf_m", "w_bar": filt.w_bar,
                  "word_bits": filt.policy.word_bits}
    elif isinstance(filt, OneMemoryBloomFilter):
        header = {"type": "one_mem_bf", "word_bits": filt.word_bits}
        if filt.words_per_element != _FIELD_DEFAULTS["words_per_element"]:
            header["words_per_element"] = filt.words_per_element
    elif isinstance(filt, BloomFilter):
        header = {"type": "bf"}
    else:
        raise ConfigurationError(
            "unsupported filter type %r" % type(filt).__name__)
    # Any registry family round-trips (family_spec <-> make_family); an
    # ad-hoc one raises rather than silently mis-hash after a restore.
    try:
        kind, seed = family_spec(filt.family)
    except ConfigurationError as exc:
        raise ConfigurationError(
            "filter cannot be snapshotted: %s" % exc) from None
    header.update(m=filt.m, k=filt.k, n_items=filt.n_items,
                  family=kind, seed=seed)
    return header


def filter_from_header(header: dict, payload,
                       bits_of=BitArray.from_bytes):
    """Rebuild a filter from a :func:`filter_header` dict and its bits.

    ``bits_of(payload, nbits)`` turns the payload into the filter's
    :class:`~repro.bitarray.BitArray`: the default copies it into a
    private writable buffer; :meth:`BitArray.attach_readonly` wraps it
    zero-copy (the shared-memory attach path).  Extra header keys are
    ignored.

    Raises:
        ConfigurationError: on an unknown type tag, a missing or
            mistyped field, geometry the payload cannot hold, or a hash
            family that cannot be reconstructed.
    """
    with _well_formed("filter"):
        header = {**_FIELD_DEFAULTS, **header}
        if header["type"] not in _FILTER_TYPES:
            raise ConfigurationError(
                "unknown snapshot type %r" % header["type"])
        cls, fields, sizing = _FILTER_TYPES[header["type"]]
        for name in sizing + ("n_items",):
            value = header[name]
            if type(value) is not int or value < 0 or (
                    name in sizing and value > 8 * len(payload)):
                raise ConfigurationError(
                    "snapshot declares %s=%r for a %d-byte payload"
                    % (name, value, len(payload)))
        span = math.prod(header[name] for name in sizing[1:])
        if span > 8 * len(payload):
            raise ConfigurationError(
                "snapshot declares a %d-bit probe span for a %d-byte "
                "payload" % (span, len(payload)))
        # Pre-registry blobs carry only a seed: they were BLAKE2b lanes.
        kind = header.get("family", "blake2b")
        try:
            family = make_family(kind, header["seed"])
        except ConfigurationError as exc:
            raise ConfigurationError(
                "snapshot declares hash family %r which cannot be "
                "reconstructed (%s); restoring under a different family "
                "would silently mis-hash every query" % (kind, exc)
            ) from None
        filt = cls(m=header["m"], k=header["k"], family=family,
                   **{name: header[name] for name in fields})
        filt._bits = bits_of(payload, filt.bits.nbits)
        filt._n_items = header["n_items"]
    return filt


def _filter_blob(filt) -> bytes:
    return _frame(_FILTER_MAGIC, filter_header(filt), filt.bits.to_bytes())


def container_header(target):
    """The container header of a store, or ``None`` for one filter.

    The ``type`` tag, member count and store fields a
    :class:`~repro.store.ShardedFilterStore` (router spec) or
    :class:`~repro.store.generational.GenerationalStore` (trigger
    config) needs to be rebuilt around its member filters by
    :func:`target_from_header`.  This is the ``SHBS``/``SHBG`` header
    (less ``blob_bytes``) and the store meta of :mod:`repro.store.shm`.
    """
    if isinstance(target, ShardedFilterStore):
        return {"type": "sharded_store", "n_shards": target.n_shards,
                "router_seed": target.router.seed,
                "router_family": target.router.family_kind}
    if isinstance(target, GenerationalStore):
        return {"type": "generational_store",
                "generations": target.n_generations,
                "rotate_after_items": target.rotate_after_items,
                "rotate_after_s": target.rotate_after_s}
    return None


def dumps(target) -> bytes:
    """Serialise a filter, a sharded store or a generational ring.

    A :class:`~repro.store.ShardedFilterStore` becomes an ``SHBS``
    container, a :class:`~repro.store.generational.GenerationalStore`
    an ``SHBG`` container (both: :func:`container_header` plus the
    members' ``SHBF`` blobs), anything else a single-filter ``SHBF``
    blob.  Every member filter must be snapshot-capable; counting
    variants raise :class:`~repro.errors.UnsupportedSnapshotError`.
    """
    header = container_header(target)
    if header is None:
        return _filter_blob(target)
    blobs = [_filter_blob(member) for member in target.shards]
    header["blob_bytes"] = [len(blob) for blob in blobs]
    return _frame(_MAGIC_OF[header["type"]], header, b"".join(blobs))


def loads(blob: bytes):
    """Rebuild a single filter from an ``SHBF`` blob — strictly.

    The slot-install paths (replication shard entries, cluster shard
    installs) hand the result to ``replace_shard``, which accepts any
    object; a container blob must therefore be refused here, not
    installed as one shard.

    Raises:
        ConfigurationError: on a container or unknown magic, version,
            digest mismatch or a malformed header — a truncated or
            tampered snapshot never yields a silently-wrong filter.
    """
    magic, header, payload = _unframe(blob)
    if magic != _FILTER_MAGIC:
        raise ConfigurationError(
            "expected a single-filter snapshot, got a %s container "
            "(bad magic)" % _CONTAINERS[magic][0])
    return filter_from_header(header, payload)


def _members(header: dict, payload: bytes, count_field: str) -> list:
    """Split a container payload into its member filters."""
    sizes = header["blob_bytes"]
    if (not isinstance(sizes, list) or len(sizes) != header[count_field]
            or any(type(size) is not int or size < 0 for size in sizes)
            or sum(sizes) != len(payload)):
        raise ConfigurationError(
            "container blob_bytes %r do not split its %d-byte payload "
            "into %s=%r blobs"
            % (sizes, len(payload), count_field, header[count_field]))
    offsets = [0]
    for size in sizes:
        offsets.append(offsets[-1] + size)
    return [loads(payload[start:end])
            for start, end in zip(offsets, offsets[1:])]


def target_from_header(header: dict, members, factory=None, clock=None):
    """Rebuild a store from its :func:`container_header` and members.

    *factory* and *clock* pass through to the store (a header cannot
    carry callables; *clock* only matters to a ring).  A ring restored
    without a factory still rotates: each new head is the current
    head's ``empty_like()``.

    Raises:
        ConfigurationError: on an unknown ``type`` tag, a member count
            that disagrees with the header, a missing or mistyped
            field, or a router family that cannot be reconstructed.
    """
    with _well_formed("container"):
        kind = header.get("type")
        if kind not in _COUNT_FIELD:
            raise ConfigurationError("unknown container type %r" % (kind,))
        count_field = _COUNT_FIELD[kind]
        if header[count_field] != len(members):
            raise ConfigurationError(
                "container header declares %s=%r for %d member filters"
                % (count_field, header[count_field], len(members)))
        if kind == "generational_store":
            return GenerationalStore._from_generations(
                members,
                rotate_after_items=header["rotate_after_items"],
                rotate_after_s=header["rotate_after_s"],
                factory=factory, clock=clock)
        router_kind = header.get("router_family", "blake2b")
        try:
            router = ShardRouter(
                header["n_shards"], seed=header["router_seed"],
                family_kind=router_kind)
        except ConfigurationError as exc:
            raise ConfigurationError(
                "store container declares router family %r which cannot "
                "be reconstructed (%s); a differently-routed restore "
                "would send every element to the wrong shard"
                % (router_kind, exc)) from None
        return ShardedFilterStore._from_shards(members, router, factory)


def load_target(blob: bytes, factory=None, clock=None):
    """Rebuild whatever :func:`dumps` wrote, choosing the kind by magic.

    *factory* and *clock* pass through :func:`target_from_header` to a
    restored store; a filter ignores them.

    Raises:
        NotASnapshotError: the bytes carry no known magic at all.
        ConfigurationError: on version, digest, size or header
            inconsistencies anywhere in the container, member blobs
            included — a damaged blob never yields a silently-wrong
            filter or fleet.
    """
    magic, header, payload = _unframe(blob)
    if magic == _FILTER_MAGIC:
        return filter_from_header(header, payload)
    kind, count_field = _CONTAINERS[magic]
    with _well_formed("container"):
        if header.get("type") != kind:
            raise ConfigurationError(
                "unknown container type %r" % (header.get("type"),))
        members = _members(header, payload, count_field)
    return target_from_header(header, members, factory, clock)
