"""Exception hierarchy for the ShBF reproduction library.

Every error raised by this package derives from :class:`ReproError` so
applications can catch library failures with a single ``except`` clause
while still distinguishing configuration mistakes from runtime capacity
problems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class ConfigurationError(ReproError, ValueError):
    """A structure was configured with invalid parameters.

    Raised eagerly at construction time — for example a Bloom filter with
    ``m <= 0``, a shifting filter whose maximum offset exceeds what a single
    word read can cover, or a hash family asked for more independent
    functions than it can provide.
    """


class UnsupportedSnapshotError(ConfigurationError):
    """A structure was handed to :mod:`repro.persistence` that cannot
    round-trip through a snapshot.

    The main case is the counting variants (``CShBF_*``,
    ``CountingBloomFilter``): their DRAM-tier counter state belongs to
    the updater process, not to query-side snapshots, so serialising the
    bit array alone would silently produce a filter that can no longer
    honour deletions.  Snapshot the query-side bit filter instead, or
    rebuild from the catalog.
    """


class NotASnapshotError(ConfigurationError):
    """Bytes handed to :mod:`repro.persistence` carry none of its magics
    — never a snapshot at all, as opposed to a damaged one."""


class CapacityError(ReproError, RuntimeError):
    """A bounded structure ran out of room.

    Raised by structures with hard capacity limits, e.g. a cuckoo filter
    whose insertion displacement chain exceeded ``max_kicks`` or a packed
    counter configured to raise on overflow.
    """


class CounterOverflowError(CapacityError):
    """A packed counter exceeded its maximum representable value."""


class CounterUnderflowError(ReproError, RuntimeError):
    """A counter was decremented below zero.

    This signals deletion of an element that was never inserted (or was
    already deleted), which standard counting filters cannot support.
    """


class UnsupportedOperationError(ReproError, RuntimeError):
    """The operation is not supported by this variant of the structure.

    For example, deleting from a plain (non-counting) Bloom filter, or
    updating a minimum-increase Spectral Bloom filter, which the paper
    notes trades away update support for accuracy.
    """


class ProtocolError(ReproError, ValueError):
    """A service wire frame or payload could not be understood.

    Raised by :mod:`repro.service.protocol` on bad magic, truncated or
    oversized frames, unknown opcodes, and payloads whose declared
    lengths disagree with the bytes on the wire — a damaged request
    never reaches a filter, and a damaged response never yields a
    silently-wrong verdict.
    """


class ServiceOverloadedError(ReproError, RuntimeError):
    """The service shed a request because its in-flight bound was hit.

    The server admits at most ``max_inflight`` concurrent requests
    (queued coalescer work included); beyond that it fails fast rather
    than queueing unboundedly, so clients see explicit backpressure they
    can retry against instead of silently growing latency.
    """


class DeadlineExceededError(ReproError, TimeoutError):
    """An operation missed its deadline (op timeout or connect timeout).

    Subclasses the builtin :class:`TimeoutError` so generic transport
    handlers (``except OSError``) and asyncio-aware callers both catch
    it, while ``except ReproError`` still works.  Raised by the service
    clients when a response frame does not arrive within ``op_timeout``
    or a TCP connect does not complete within ``connect_timeout`` — the
    timed-out request's future is removed from the in-flight table, so
    a stalled server cannot leak client memory.
    """


class RetryBudgetExceededError(ReproError, RuntimeError):
    """A retry loop ran out of retry budget.

    Raised by :mod:`repro.retry` when the token-bucket budget that
    bounds retry amplification is empty: the caller has already retried
    as much as the budget allows, so failing fast beats adding load to
    an already-struggling service (retry storms).
    """


class ReplicationError(ReproError, RuntimeError):
    """The primary→standby replication pipeline hit an unrecoverable gap.

    Raised when a standby receives a delta it cannot apply safely — an
    epoch gap (deltas arrived out of sequence, so intermediate writes
    are missing), a shard-level delta against a non-sharded target, or a
    DELTA sent to a server that never subscribed.  The primary reacts by
    falling back to a full snapshot resync rather than leaving the
    standby silently divergent.
    """


class StandbyReadOnlyError(ReplicationError):
    """A write operation (ADD/RESTORE) was sent to a following standby.

    A standby's state is owned by its primary's replication stream;
    accepting independent writes would make its verdicts diverge from
    the primary's, defeating the bit-identical failover guarantee.
    Promote the standby (PROMOTE) before writing to it.
    """


class FailoverExhaustedError(ReplicationError):
    """Every configured endpoint failed the attempted operation.

    Raised by :class:`repro.replication.FailoverClient` when a read
    found no live endpoint, or a write found no endpoint in the primary
    role (all standbys refuse writes; promote one first).
    """


class ClusterError(ReproError, RuntimeError):
    """A multi-node cluster operation failed.

    Base class for the cluster layer (:mod:`repro.cluster`): shard-map
    versioning violations, misdirected requests and migration protocol
    errors all derive from here so callers can fence off "the fleet
    disagrees about ownership" from single-node serving failures.
    """


class WrongOwnerError(ClusterError):
    """A request touched a shard this node does not own.

    The cluster's correctness contract is *refuse, never misroute*: a
    node checks every ADD/ADD_IDEM/QUERY/QUERY_MULTI batch against its
    installed shard map and rejects batches containing elements it does
    not own — silently serving them would answer from an empty shard
    (wrong verdicts) or strand writes on a non-owner (lost writes).  A
    client seeing this error holds a stale shard map: it should refresh
    the map (SHARD_MAP), re-split the batch per the new ownership and
    retry.  The message carries the node's current map epoch.
    """


class StaleShardMapError(ClusterError):
    """A SHARD_MAP install carried an epoch at or below the current one.

    Shard-map epochs only move forward: accepting an older map would
    resurrect retired ownership and route writes to nodes that already
    shipped their shards away.  Installs of the *identical* current map
    are acknowledged idempotently; anything older is refused with this
    error so a lagging coordinator learns it lost the race.
    """


class WriterUnavailableError(ReproError, RuntimeError):
    """A read worker could not forward a write to the mpserve writer.

    Read workers own no mutable state: ADD/ADD_IDEM arriving on a
    worker connection are relayed to the single writer process.  When
    that relay fails (writer crashed and the supervisor is still
    restarting it), the worker answers with this error instead of
    faking an ack — the write was *not* applied.  Clients should retry
    with ADD_IDEM semantics; the restarted writer's idempotency window
    deduplicates any relay that did land before the crash.
    """


def remote_error(name: str, message: str) -> ReproError:
    """Materialise a server-reported error as a local exception.

    The service protocol ships errors as ``(type name, message)`` pairs.
    Known :class:`ReproError` subclasses defined in this module are
    re-raised as themselves so callers can ``except ConfigurationError``
    across the wire exactly as they would locally; anything else —
    including a malicious name like ``SystemExit`` — degrades to a
    :class:`ProtocolError` carrying the original text.

    Errors built here are stamped with ``remote = True`` so transport
    machinery can tell "the peer answered with an error" (it is alive
    and rejected the request deterministically) from "the transport
    died" — the failover client only retries the latter elsewhere.
    """
    cls = globals().get(name)
    if (isinstance(cls, type) and issubclass(cls, ReproError)
            and cls is not ReproError):
        error = cls(message)
    else:
        error = ProtocolError("server error %s: %s" % (name, message))
    error.remote = True
    return error
