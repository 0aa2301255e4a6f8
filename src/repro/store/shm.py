"""Store-wide generation snapshots for shared-memory serving.

The multi-process serving mode (:mod:`repro.mpserve`) publishes the
hosted structure as *generations*: immutable byte images that read-only
worker processes attach without copying.  This module is the
format half of that protocol — it turns a hosted target (a
:class:`~repro.store.ShardedFilterStore` or a single snapshot-capable
filter) into

* a JSON-able **meta** dict describing the geometry: filter type,
  ``m``/``k``/``w_bar``/``word_bits``, the hash family ``(kind, seed)``
  spec, per-shard ``n_items``, and each shard's byte ``offset`` and
  length inside the payload, plus the router spec for stores; and
* a flat **payload**: the shards' raw :class:`~repro.bitarray.BitArray`
  buffers concatenated in shard order.

``export_into`` writes the payload into any writable buffer (in
practice a ``multiprocessing.shared_memory`` segment); ``attach_target``
rebuilds the same structure over that buffer *zero-copy* — every shard's
``BitArray`` is a read-only view into the segment via
:meth:`~repro.bitarray.BitArray.attach_readonly`, so N workers share one
physical copy of the bits.  Attached targets answer ``query_batch``
bit-identically to the original; writes fail at the buffer layer.

Each shard's meta entry *is* its :func:`repro.persistence.filter_header`
plus ``nbits``/``nbytes``/``offset``, and attaching goes through
:func:`repro.persistence.filter_from_header` with a zero-copy
``bits_of`` — one type switch, one family round-trip, one counting-type
refusal for both.  What shm skips is the framing and digest: a
generation lives in page-cache-speed shared memory guarded by the
seqlock header (:mod:`repro.mpserve.genheader`), not on disk where torn
writes survive restarts.
"""

from __future__ import annotations

from typing import Tuple

from repro import persistence
from repro.bitarray import BitArray
from repro.errors import ConfigurationError
from repro.store.router import ShardRouter
from repro.store.sharded import ShardedFilterStore

__all__ = [
    "snapshot_meta",
    "snapshot_nbytes",
    "export_into",
    "attach_target",
    "materialize",
]


def _filter_meta(filt, offset: int) -> dict:
    """One shard's persistence header + its byte placement in the payload."""
    meta = persistence.filter_header(filt)
    meta.update(nbits=filt.bits.nbits, nbytes=filt.bits.nbytes,
                offset=offset)
    return meta


def _shard_filters(target) -> Tuple:
    if isinstance(target, ShardedFilterStore):
        return target.shards
    return (target,)


def snapshot_meta(target) -> dict:
    """Describe *target* for a generation publish (JSON-able).

    The per-shard entries carry everything ``attach_target`` needs to
    rebuild the structure — including each shard's byte ``offset`` into
    the flat payload, assigned here in shard order.
    """
    shards, offset = [], 0
    for filt in _shard_filters(target):
        shards.append(_filter_meta(filt, offset))
        offset += filt.bits.nbytes
    if not isinstance(target, ShardedFilterStore):
        return {"kind": "filter", "shards": shards}
    return {
        "kind": "sharded_store",
        "n_shards": target.n_shards,
        "router_seed": target.router.seed,
        "router_family": target.router.family_kind,
        "shards": shards,
    }


def snapshot_nbytes(target) -> int:
    """Total payload bytes a generation of *target* occupies."""
    return sum(filt.bits.nbytes for filt in _shard_filters(target))


def export_into(target, buffer) -> dict:
    """Write *target*'s raw bit buffers into *buffer*; return the meta.

    *buffer* must be writable and at least ``snapshot_nbytes(target)``
    long (a shared-memory segment's ``.buf``, a ``bytearray``, …).  One
    vectorised copy per shard; the source buffers are read through
    :meth:`BitArray.export_readonly`, so the export can never scribble
    on the live store.
    """
    meta = snapshot_meta(target)
    view = memoryview(buffer)
    if view.readonly:
        raise ConfigurationError(
            "export_into needs a writable buffer (got a read-only view)")
    needed = snapshot_nbytes(target)
    if len(view) < needed:
        raise ConfigurationError(
            "generation buffer of %d bytes cannot hold a %d-byte "
            "snapshot" % (len(view), needed))
    for shard, shard_meta in zip(_shard_filters(target), meta["shards"]):
        start = shard_meta["offset"]
        end = start + shard_meta["nbytes"]
        view[start:end] = shard.bits.export_readonly()
    return meta


def _attach_filter(meta: dict, view: memoryview):
    """Rebuild one read-only shard over its slice of the payload."""
    start = meta["offset"]
    filt = persistence.filter_from_header(
        meta, view[start:start + meta["nbytes"]], BitArray.attach_readonly)
    if filt.bits.nbits != meta["nbits"]:
        raise ConfigurationError(
            "generation shard geometry mismatch: meta promises %d bits, "
            "the declared parameters produce %d"
            % (meta["nbits"], filt.bits.nbits))
    return filt


def attach_target(meta: dict, buffer):
    """Rebuild the published structure over *buffer* — zero copy.

    Returns a target answering ``query``/``query_batch`` bit-identically
    to the exporter at publish time.  All shard bits are read-only views
    into *buffer*; the caller must keep the underlying segment mapped
    for the attached target's lifetime.
    """
    view = memoryview(buffer)
    shards = [_attach_filter(m, view) for m in meta["shards"]]
    if meta["kind"] == "sharded_store":
        router = ShardRouter(
            meta["n_shards"], seed=meta["router_seed"],
            family_kind=meta["router_family"])
        return ShardedFilterStore._from_shards(shards, router)
    if meta["kind"] != "filter":
        raise ConfigurationError(
            "unknown generation kind %r" % meta.get("kind"))
    return shards[0]


def materialize(target):
    """A writable deep copy of *target* (attached or not).

    Round-trips through :mod:`repro.persistence`, so the copy is
    digest-checked and shares no memory with the source — this is how a
    restarted writer warms up from the last published generation
    without inheriting read-only buffers.
    """
    return persistence.load_target(persistence.dumps(target))
