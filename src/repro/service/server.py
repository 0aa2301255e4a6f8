"""Asyncio set-query server with a micro-batching coalescer.

The batch fast path (PR 1) and the sharded store (PR 2) only pay off if
whole batches reach them — yet a network server naturally receives one
small request per client per round trip.  :class:`FilterService` closes
that gap with **micro-batching**: concurrent in-flight requests are
gathered for a bounded window and executed through *one* vectorised
``query_batch``/``add_batch`` call, so 64 clients asking one question
each cost roughly one 64-element batch, not 64 scalar probes.

The coalescer window is bounded two ways (whichever trips first flushes):

* ``max_batch`` — once the queued elements reach this many, flush now;
* ``max_delay_us`` — a request never waits longer than this for company.

Requests are atomic: a request's elements are never split across two
executed batches, so a flush may overshoot ``max_batch`` by at most one
request.  Setting ``max_batch=1`` disables coalescing entirely and
executes each request through the target's **scalar** per-element
``add``/``query`` (one place, :meth:`FilterService._execute`) — the
pre-batching serving architecture, kept as a live baseline so the
benchmark's coalesced-vs-uncoalesced comparison is a one-flag switch.

Dispatch is one lookup in the op table
:data:`repro.service.protocol.OPS` plus one handler per op
(``_op_<name>``).  The element ops (the ``read`` and ``write`` rows)
share one preamble — decode the batch, observe its size, check cluster
ownership, then the standby guard — and their handlers return values
the row's response entry packs.  The per-op metrics, the coalescers and
the adaptive-shed set are built from the same rows.

Backpressure is explicit: at most ``max_inflight`` requests may be
admitted concurrently (requests parked in the coalescer included);
beyond that the
server answers :class:`~repro.errors.ServiceOverloadedError` instead of
queueing unboundedly.  STATS exposes the live queue depth, the coalescer
counters and the hosted structure's
:class:`~repro.bitarray.memory.AccessStats` — the paper's
memory-access accounting, served over the wire.

The server hosts either a :class:`~repro.store.ShardedFilterStore` or
any single filter speaking the batch contract; SNAPSHOT/RESTORE
delegate to :mod:`repro.persistence` (container or single-filter format,
auto-detected by magic).

Every service also carries a replication **role**
(:class:`ReplicaState`): servers start as writable primaries, a
SUBSCRIBE frame turns one into a read-only *standby* that applies the
subscribed primary's DELTA stream (shard-wise union merges, shard
replacements after a rotation, or full-snapshot resyncs), and PROMOTE
flips it back to primary after a failover.  While following, the ops
whose row says ``standby="refuse"`` (ADD, ADD_IDEM, RESTORE) are refused
with :class:`~repro.errors.StandbyReadOnlyError` so standby state can
never diverge from the stream.  The primary-side shipping logic lives
in :mod:`repro.replication`.
"""

from __future__ import annotations

import asyncio
import json
import logging
import time
from collections import OrderedDict
from dataclasses import dataclass
from itertools import chain
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro import persistence
from repro.core.association_types import AssociationAnswer
from repro.core.interfaces import MultiplicityAnswer
from repro.errors import (
    ConfigurationError,
    NotASnapshotError,
    ProtocolError,
    ReplicationError,
    ServiceOverloadedError,
    StandbyReadOnlyError,
    UnsupportedOperationError,
)
from repro.harness.metrics import access_stats_dict
from repro.obs import names as metric_names
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer, maybe_span
from repro.service import protocol
from repro.store.generational import GenerationalStore, RotationEvent
from repro.store.sharded import ShardedFilterStore
from repro.store.slots import SlotStore

__all__ = [
    "CoalescerConfig",
    "FilterService",
    "IdempotencyWindow",
    "ReplicaState",
    "ServiceCounters",
]

logger = logging.getLogger("repro.service")

_NOT_ASSOCIATION = ("QUERY_MULTI needs an association store (%s answers "
                    "scalar verdicts; use QUERY)")


@dataclass(frozen=True)
class CoalescerConfig:
    """Micro-batching window bounds.

    Attributes:
        max_batch: flush once this many elements are queued; ``1``
            disables coalescing (per-request scalar execution).
        max_delay_us: longest time a request waits for batch company,
            in microseconds.
        max_inflight: admission bound on concurrently admitted
            requests; excess requests are refused with
            :class:`~repro.errors.ServiceOverloadedError`.
        adaptive_shed: when true, shed-eligible ops (QUERY/QUERY_MULTI —
            reads a standby could answer instead) are refused once the
            queue passes ``shed_ratio * max_inflight``, reserving the
            remaining slots for writes, replication and observability
            ops; the hard ``max_inflight`` bound still sheds everything.
        shed_ratio: fraction of ``max_inflight`` at which adaptive
            shedding starts (ignored unless ``adaptive_shed``).
    """

    max_batch: int = 512
    max_delay_us: int = 200
    max_inflight: int = 1024
    adaptive_shed: bool = False
    shed_ratio: float = 0.75

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ProtocolError(
                "max_batch must be >= 1, got %d" % self.max_batch)
        if self.max_delay_us < 0:
            raise ProtocolError(
                "max_delay_us must be >= 0, got %d" % self.max_delay_us)
        if self.max_inflight < 1:
            raise ProtocolError(
                "max_inflight must be >= 1, got %d" % self.max_inflight)
        if not 0.0 < self.shed_ratio <= 1.0:
            raise ProtocolError(
                "shed_ratio must be in (0, 1], got %r" % self.shed_ratio)

    @property
    def soft_inflight(self) -> int:
        """Admission level where adaptive shedding begins (>= 1)."""
        return max(1, int(self.max_inflight * self.shed_ratio))


@dataclass
class ServiceCounters:
    """Monotonic service-side tallies, exposed verbatim by STATS."""

    requests_total: int = 0
    batches_executed: int = 0
    coalesced_requests: int = 0
    elements_queried: int = 0
    elements_added: int = 0
    overload_rejections: int = 0
    adaptive_sheds: int = 0
    dedup_hits: int = 0
    protocol_errors: int = 0
    connections_dropped: int = 0
    peak_queue_depth: int = 0

    def as_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass
class ReplicaState:
    """Replication-side state of one service, served under STATS.

    ``role`` is ``"primary"`` (writable; the initial state) or
    ``"standby"`` (read-only follower of a SUBSCRIBE'd primary).
    ``epoch`` is the last replication epoch this server has applied —
    comparing a standby's epoch against its primary's is the live
    staleness probe the failover drill and the ``--sync`` CLI flag use.
    """

    role: str = "primary"
    epoch: int = 0
    deltas_applied: int = 0
    full_snapshots_applied: int = 0
    shards_merged: int = 0
    shards_replaced: int = 0
    bytes_received: int = 0

    def as_dict(self) -> dict:
        return dict(self.__dict__)


class IdempotencyWindow:
    """Bounded LRU of recently applied ``(client_id, write_id)`` writes.

    Backs ADD_IDEM's exactly-once-per-key guarantee: a retry whose
    original actually landed finds its key here and is answered with
    the recorded insert count instead of being applied again.  The
    window is LRU-bounded — it protects against *retries* (seconds of
    history), not replays from arbitrarily far in the past — and its
    contents replicate to standbys as ``MODE_IDEM`` delta entries so
    the guarantee survives a failover.
    """

    def __init__(self, capacity: int = 4096):
        if capacity < 1:
            raise ConfigurationError(
                "idempotency window capacity must be >= 1, got %r"
                % capacity)
        self.capacity = capacity
        self._entries: "OrderedDict[Tuple[int, int], int]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, client_id: int, write_id: int) -> Optional[int]:
        """The recorded result for a key, or ``None`` if unseen."""
        return self._entries.get((client_id, write_id))

    def put(self, client_id: int, write_id: int, result: int) -> None:
        """Record a key, evicting the least recent beyond capacity."""
        key = (client_id, write_id)
        self._entries[key] = result
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def entries(self) -> List[Tuple[int, int, int]]:
        """Snapshot as ``(client_id, write_id, result)`` triples."""
        return [(cid, wid, result)
                for (cid, wid), result in self._entries.items()]

    def install(self, keys: Sequence[Tuple[int, int, int]]) -> None:
        """Merge replicated keys (standby side of a MODE_IDEM entry)."""
        for client_id, write_id, result in keys:
            self.put(client_id, write_id, result)


class _Coalescer:
    """Gathers concurrent requests into one batch call.

    One instance per operation kind (query / query_multi / add): the
    element payloads of queued requests are concatenated, executed with
    a single batch call against the hosted structure, and the result is
    sliced back per request — verdict order inside a request is
    untouched, so coalescing is invisible to clients.
    """

    def __init__(self, service: "FilterService", kind: str):
        self._service = service
        self._kind = kind
        # (elements, counts, future, trace_id, enqueue perf_counter)
        self._pending: List[tuple] = []
        #: Elements currently waiting for a flush.
        self.queued_elements = 0
        self._timer: Optional[asyncio.TimerHandle] = None
        registry = service.metrics
        self._m_batch = registry.histogram(
            metric_names.COALESCER_BATCH_ELEMENTS,
            resolution=1.0, kind=kind)
        self._m_wait = registry.histogram(
            metric_names.COALESCER_WAIT, kind=kind)
        self._m_flushes = {
            cause: registry.counter(
                metric_names.COALESCER_FLUSHES, kind=kind, cause=cause)
            for cause in ("size", "timer", "forced")
        }

    def submit(self, elements: Sequence[bytes],
               counts: Optional[Sequence[int]],
               trace_id: Optional[int] = None) -> "asyncio.Future":
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        if len(self._pending) > 0:
            self._service.counters.coalesced_requests += 1
        enqueued = time.perf_counter() if self._service.observing else 0.0
        self._pending.append((elements, counts, future, trace_id, enqueued))
        self.queued_elements += len(elements)
        config = self._service.config
        if self.queued_elements >= config.max_batch:
            self._flush("size")
        elif self._timer is None:
            self._timer = loop.call_later(
                config.max_delay_us / 1e6, self._flush)
        return future

    def _flush(self, cause: str = "timer") -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        pending, self._pending = self._pending, []
        self.queued_elements = 0
        if not pending:
            return
        observing = self._service.observing
        tracer = self._service.tracer
        if observing:
            self._m_flushes[cause].inc()
            now = time.perf_counter()
            for entry in pending:
                self._m_wait.observe(now - entry[4])
        # Countless and counts-carrying requests execute as separate
        # batches: merging them would force everyone through the counts
        # signature, so one client's malformed counts request (or a
        # counts request against a membership filter) would fail other
        # clients' well-formed ADDs.
        for countless in (True, False):
            group = [entry for entry in pending
                     if (entry[1] is None) == countless]
            if not group:
                continue
            elements = list(chain.from_iterable(e[0] for e in group))
            counts = (None if countless
                      else list(chain.from_iterable(e[1] for e in group)))
            traced = (tracer is not None
                      and any(entry[3] is not None for entry in group))
            start_wall = time.time() if traced else 0.0
            exec_t0 = time.perf_counter() if (observing or traced) else 0.0
            try:
                results = self._service._run_batch(
                    self._kind, elements, counts)
            except Exception as exc:  # delivered per request
                for _, _, future, _, _ in group:
                    if not future.done():
                        future.set_exception(exc)
                continue
            if observing:
                self._m_batch.observe(len(elements))
            if traced:
                # One coalescer span per *traced* member of the batch:
                # each carries its own queue wait plus the shared batch
                # shape and kernel time, so a reconstructed path shows
                # both "how long did I wait" and "what executed me".
                exec_s = time.perf_counter() - exec_t0
                for chunk, _, _, trace_id, enqueued in group:
                    if trace_id is None:
                        continue
                    tracer.emit(
                        "coalescer.batch", trace_id, start_wall, exec_s,
                        mono=exec_t0,
                        kind=self._kind, n_elements=len(chunk),
                        batch_elements=len(elements),
                        batch_requests=len(group),
                        wait_s=max(0.0, exec_t0 - enqueued)
                        if enqueued else 0.0)
            self._service.counters.batches_executed += 1
            cursor = 0
            for chunk, _, future, _, _ in group:
                if not future.done():
                    future.set_result(
                        results[cursor : cursor + len(chunk)])
                cursor += len(chunk)


class FilterService:
    """One hosted filter structure behind the wire protocol.

    Args:
        target: a :class:`~repro.store.ShardedFilterStore` or any single
            filter exposing ``add``/``query`` plus the batch twins.
        config: coalescer window and admission bounds.
        banner: PING response text (defaults to a structure summary).
        metrics: the :class:`~repro.obs.MetricsRegistry` this service
            instruments and serves over the METRICS op.  Defaults to a
            fresh enabled registry; pass ``MetricsRegistry(
            enabled=False)`` for a measured-zero baseline (hot-path
            timing calls are skipped entirely, not just discarded).
        tracer: a :class:`~repro.obs.Tracer` for span emission on
            traced requests, or ``None`` (the default) to skip spans —
            trace ids still echo on responses either way.
    """

    def __init__(
        self,
        target,
        config: Optional[CoalescerConfig] = None,
        banner: Optional[str] = None,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ):
        self._target = target
        self._wire_rotation_hook(target)
        self.config = config if config is not None else CoalescerConfig()
        self._banner = banner
        self.counters = ServiceCounters()
        self.replica = ReplicaState()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer
        #: Called with ``(elements, counts)`` after every successful
        #: write batch; :class:`repro.replication.ReplicatedFilterService`
        #: hooks this to journal writes for the next delta ship.
        self.on_write: Optional[Callable[
            [Sequence[bytes], Optional[Sequence[int]]], None]] = None
        #: Extra dict merged into STATS' ``replication`` object; set by
        #: the primary-side replicator to expose standby link state.
        self.replication_extra: Optional[Callable[[], dict]] = None
        #: Dedup window for ADD_IDEM (see :class:`IdempotencyWindow`).
        self.idempotency = IdempotencyWindow()
        #: Called with ``(client_id, write_id, result)`` after every
        #: newly applied ADD_IDEM; the replicator hooks this to ship the
        #: key alongside the write so standbys dedup retries too.
        self.on_idempotent: Optional[Callable[[int, int, int], None]] = None
        #: ADD_IDEM keys whose first application is still executing:
        #: ``(client_id, write_id) -> Future[(status, value)]``.  A
        #: duplicate racing its original parks here instead of entering
        #: the coalescer a second time.
        self._idem_inflight: dict = {}
        #: Cluster membership, or ``None`` for a standalone node.  Set
        #: by :meth:`repro.cluster.node.ClusterState.attach`; when
        #: present, every element-carrying op is ownership-checked and
        #: the SHARD_MAP / MIGRATE ops are delegated to it.
        self.cluster = None
        self._inflight = 0
        self._connections: set = set()
        #: Cached JSON fragment of the STATS fields that only change
        #: when the hosted target is swapped, keyed by its identity.
        self._stats_static: Optional[Tuple[tuple, bytes]] = None
        # Instruments resolved once: per-request work is a list index
        # plus an int add, and skipped wholesale (`observing` False)
        # when the registry is disabled.
        registry = self.metrics
        self.observing = registry.enabled
        self._m_requests, self._m_errors = {}, {}
        self._m_latency, self._m_elements = {}, {}
        for op, row in protocol.OPS.items():
            self._m_requests[op] = registry.counter(
                metric_names.SERVER_REQUESTS, op=row.name)
            self._m_errors[op] = registry.counter(
                metric_names.SERVER_ERRORS, op=row.name)
            self._m_latency[op] = registry.histogram(
                metric_names.SERVER_OP_LATENCY, op=row.name)
            if row.carries_elements:
                self._m_elements[op] = registry.histogram(
                    metric_names.SERVER_OP_ELEMENTS, resolution=1.0,
                    op=row.name)
        self._m_shed_hard = registry.counter(
            metric_names.SERVER_SHEDS, kind="hard")
        self._m_shed_adaptive = registry.counter(
            metric_names.SERVER_SHEDS, kind="adaptive")
        self._m_dedup_hits = registry.counter(
            metric_names.SERVER_DEDUP_HITS)
        registry.gauge(metric_names.SERVER_INFLIGHT).set_fn(
            lambda: self._inflight)
        self._m_ttl_rotations = registry.counter(
            metric_names.TTL_ROTATIONS)
        self._m_ttl_stall = registry.histogram(
            metric_names.TTL_ROTATION_STALL)
        registry.gauge(metric_names.TTL_LIVE_GENERATIONS).set_fn(
            lambda: getattr(self._target, "n_generations", 0))
        #: One coalescer per kind the rows name, in op-code order, so
        #: the add coalescer flushes first (see :meth:`flush_pending`).
        self._coalescers = {
            kind: _Coalescer(self, kind) for kind in dict.fromkeys(
                row.coalescer for row in protocol.OPS.values()
                if row.coalescer)}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def target(self):
        """The hosted structure (swapped atomically by RESTORE)."""
        return self._target

    @property
    def queue_depth(self) -> int:
        """Admitted-but-unanswered *requests* (those parked in the
        coalescer included); STATS reports queued batch elements
        separately as ``queued_elements``."""
        return self._inflight

    def _static_stats(self) -> dict:
        """STATS fields fixed between swaps of the served geometry.

        "Static" means: unchanged until the hosted target is replaced
        *or* one of its shards/generations is swapped (``swap_count``).
        ``size_bits`` lives here — it is true geometry, which only those
        events can change — so the cache-key regression test observably
        fails if a swap doesn't re-key the cache.
        """
        target = self._target
        return {
            "structure": type(target).__name__,
            "n_shards": (target.n_shards
                         if isinstance(target, ShardedFilterStore) else None),
            "size_bits": int(getattr(target, "size_bits", 0)),
            "ttl": ({
                "generations": target.n_generations,
                "rotate_after_items": target.rotate_after_items,
                "rotate_after_s": target.rotate_after_s,
            } if isinstance(target, GenerationalStore) else None),
            "coalescer": {
                "max_batch": self.config.max_batch,
                "max_delay_us": self.config.max_delay_us,
                "max_inflight": self.config.max_inflight,
                "adaptive_shed": self.config.adaptive_shed,
                "shed_ratio": self.config.shed_ratio,
            },
        }

    def _dynamic_stats(self) -> dict:
        """STATS fields that move per request (rebuilt every call)."""
        target = self._target
        return {
            "n_items": int(getattr(target, "n_items", 0)),
            "generations": ([
                {"seq": g.seq, "n_items": g.n_items, "age_s": g.age_s}
                for g in target.generation_stats()
            ] if isinstance(target, GenerationalStore) else None),
            "queue_depth": self.queue_depth,
            "queued_elements": sum(coalescer.queued_elements for coalescer
                                   in self._coalescers.values()),
            "idempotency": {
                "window": len(self.idempotency),
                "capacity": self.idempotency.capacity,
            },
            "counters": self.counters.as_dict(),
            "replication": self._replication_stats(),
            "cluster": (self.cluster.stats_dict()
                        if self.cluster is not None else None),
            "access": access_stats_dict(target.memory.stats),
        }

    def stats(self) -> dict:
        """The STATS payload: structure, queue and access accounting."""
        out = self._static_stats()
        out.update(self._dynamic_stats())
        return out

    def stats_json(self) -> bytes:
        """STATS as JSON, with the static section serialised once.

        The structure/config fragment changes when RESTORE or SUBSCRIBE
        swaps the hosted target, when the config object is replaced —
        *and* when ``replace_shard``/``rotate_shard`` or a generation
        rotation swaps served geometry without changing the target's
        identity, which the target reports via its ``swap_count``.  The
        fragment is cached as pre-serialised bytes keyed on all three
        and spliced with the freshly serialised dynamic counters —
        STATS probing pays for what actually changed.
        """
        key = (id(self._target), id(self.config),
               getattr(self._target, "swap_count", None))
        if self._stats_static is None or self._stats_static[0] != key:
            fragment = json.dumps(
                self._static_stats(), sort_keys=True)[1:-1]
            self._stats_static = (key, fragment.encode("utf-8"))
        dynamic = json.dumps(self._dynamic_stats(), sort_keys=True)[1:-1]
        return (b"{" + self._stats_static[1] + b","
                + dynamic.encode("utf-8") + b"}")

    def _replication_stats(self) -> dict:
        info = self.replica.as_dict()
        if self.replication_extra is not None:
            info.update(self.replication_extra())
        return info

    # ------------------------------------------------------------------
    # Generational rotation hook
    # ------------------------------------------------------------------
    def _wire_rotation_hook(self, target) -> None:
        """Claim a generational target's ``on_rotate`` for telemetry.

        Called for every target this service adopts (construction,
        RESTORE, SUBSCRIBE, full-delta resync) so rotations feed the
        ``ttl.*`` instruments whichever path installed the ring.
        """
        if isinstance(target, GenerationalStore):
            target.on_rotate = self._on_generation_rotate

    def _on_generation_rotate(self, event: RotationEvent) -> None:
        # The STATS static fragment re-keys by itself: rotation bumped
        # the store's swap_count, which is part of the cache key.
        if self.observing:
            self._m_ttl_rotations.inc()
            self._m_ttl_stall.observe(event.stall_s)

    # ------------------------------------------------------------------
    # Batch executors (called by the coalescers)
    # ------------------------------------------------------------------
    def _run_batch(self, kind: str, elements, counts):
        """Execute one coalesced batch of *kind* against the target."""
        target = self._target
        if kind == "add":
            if counts is None:
                target.add_batch(elements)
            else:
                target.add_batch(elements, counts)
            self.counters.elements_added += len(elements)
            if self.on_write is not None:
                self.on_write(elements, counts)
            return [None] * len(elements)
        results = target.query_batch(elements)
        if kind == "query_multi" and isinstance(results, np.ndarray):
            raise UnsupportedOperationError(
                _NOT_ASSOCIATION % type(target).__name__)
        self.counters.elements_queried += len(elements)
        return results

    def flush_pending(self) -> None:
        """Force-flush every coalescer immediately (synchronously).

        The migration protocol's exactness hinge: a write admitted
        before an ownership flip may still be parked in the add
        coalescer when the coordinator drains the migration journal.
        Flushing here applies (and journals) it first, so the drained
        journal is complete; queued reads flush too, answering from the
        still-complete shard copy before it is retired.
        """
        for coalescer in self._coalescers.values():
            coalescer._flush("forced")

    async def _execute(self, kind: str, elements, counts, trace_id):
        """Run one request's elements through the *kind* coalescer.

        An empty batch executes nothing.  With ``max_batch=1`` the
        request instead runs here, through the target's scalar
        ``add``/``query`` one element at a time: the uncoalesced
        baseline.
        """
        if not elements:
            return np.zeros(0, dtype=bool) if kind == "query" else []
        if self.config.max_batch > 1:
            return await self._coalescers[kind].submit(
                elements, counts, trace_id)
        target, counters = self._target, self.counters
        if kind == "add":
            for i, element in enumerate(elements):
                if counts is None:
                    target.add(element)
                else:
                    target.add(element, counts[i])
            counters.elements_added += len(elements)
            counters.batches_executed += 1
            if self.on_write is not None:
                self.on_write(elements, counts)
            return None
        answers = [target.query(e) for e in elements]
        if kind == "query_multi" and not isinstance(
                answers[0], AssociationAnswer):
            raise UnsupportedOperationError(
                _NOT_ASSOCIATION % type(target).__name__)
        counters.elements_queried += len(elements)
        counters.batches_executed += 1
        if kind == "query" and isinstance(answers[0], (bool, np.bool_)):
            return np.asarray(answers, dtype=bool)
        if kind == "query" and isinstance(answers[0], MultiplicityAnswer):
            # The reported counts, as the coalesced path's query_batch.
            return np.array([a.reported for a in answers], dtype=np.int64)
        return answers

    # ------------------------------------------------------------------
    # Replication apply path (standby side)
    # ------------------------------------------------------------------
    def _adopt_snapshot(self, blob: bytes, op_name: str) -> None:
        """Materialise any persistence blob and adopt it as the target,
        atomically.  Bytes that are no snapshot at all are a malformed
        request, not a damaged snapshot."""
        try:
            self._target = persistence.load_target(blob)
        except NotASnapshotError as exc:
            raise ProtocolError(
                "%s payload: %s" % (op_name, exc)) from None
        self._wire_rotation_hook(self._target)

    async def _op_delta(self, payload: bytes) -> int:
        """Apply one DELTA frame; returns the new n_items.

        Application is synchronous on the event loop, so queries never
        observe a torn store: each request sees the fleet either wholly
        before or wholly after the delta.  Epoch discipline: stale
        epochs are ignored (idempotent retries), a gap in the shard-
        delta sequence is refused with
        :class:`~repro.errors.ReplicationError` so the primary resyncs
        with a full snapshot instead of leaving writes missing; full
        deltas accept any forward jump since they carry complete state.
        """
        if self.replica.role != "standby":
            raise ReplicationError(
                "this server is not following a primary; SUBSCRIBE "
                "must precede DELTA")
        epoch, full_blob, entries = protocol.DELTA.decode(payload)
        state = self.replica
        if epoch <= state.epoch:
            # A retry of a delta this standby already applied; re-applying
            # a merge would inflate n_items, so acknowledge and move on.
            return getattr(self._target, "n_items", 0)
        if full_blob is not None:
            self._adopt_snapshot(full_blob, "DELTA")
            state.full_snapshots_applied += 1
            state.bytes_received += len(full_blob)
        else:
            if epoch != state.epoch + 1:
                raise ReplicationError(
                    "replication epoch gap: standby at %d received "
                    "shard delta %d; a full resync is required"
                    % (state.epoch, epoch))
            idem_entries = [e for e in entries
                            if e[1] == protocol.MODE_IDEM]
            entries = [e for e in entries
                       if e[1] != protocol.MODE_IDEM]
            for _, _, blob in idem_entries:
                # Dedup-window replication: install the primary's
                # recently applied (client, write) keys so a write
                # retried against this standby post-promotion is
                # absorbed, not applied a second time.
                self.idempotency.install(protocol.IDEM_KEYS.decode(blob))
                state.bytes_received += len(blob)
            # Any slot store applies the entry modes through
            # merge_shard/replace_shard; a ring's slot 0 is its head.
            store = self._target
            if entries and not isinstance(store, SlotStore):
                raise ReplicationError(
                    "shard-level delta against a non-sharded target "
                    "(%s); only full deltas apply here"
                    % type(store).__name__)
            for shard_id, mode, blob in entries:
                if not 0 <= shard_id < store.n_shards:
                    raise ReplicationError(
                        "delta names shard %d; standby store has %d "
                        "shards" % (shard_id, store.n_shards))
                incoming = persistence.loads(blob)
                state.bytes_received += len(blob)
                if mode == protocol.MODE_MERGE:
                    try:
                        store.merge_shard(shard_id, incoming)
                        state.shards_merged += 1
                    except (ConfigurationError,
                            UnsupportedOperationError) as exc:
                        # A merge blob holds only the writes since the
                        # last ship — never authoritative state — so a
                        # shard it cannot union into (the standby
                        # missed a rotate_shard the epoch check did not
                        # catch) must NOT be swapped in: that would
                        # drop every earlier key in the shard.  Refuse,
                        # so the primary resyncs with a full snapshot.
                        raise ReplicationError(
                            "merge delta incompatible with shard %d "
                            "(%s); full resync required"
                            % (shard_id, exc)) from exc
                else:
                    store.replace_shard(shard_id, incoming)
                    state.shards_replaced += 1
            state.deltas_applied += 1
        state.epoch = epoch
        return getattr(self._target, "n_items", 0)

    async def _op_subscribe(self, payload: bytes) -> int:
        epoch, blob = protocol.SUBSCRIBE.decode(payload)
        self._adopt_snapshot(blob, "SUBSCRIBE")
        self.replica.role = "standby"
        self.replica.epoch = epoch
        self.replica.full_snapshots_applied += 1
        self.replica.bytes_received += len(blob)
        return self._target.n_items

    async def _op_promote(self, payload: bytes) -> bytes:
        self.replica.role = "primary"
        return ("promoted to primary at epoch %d (n_items=%d)"
                % (self.replica.epoch,
                   getattr(self._target, "n_items", 0))).encode("utf-8")

    # ------------------------------------------------------------------
    # Request dispatch: one OPS lookup, one handler per op
    # ------------------------------------------------------------------
    async def _dispatch(self, op: int, payload: bytes,
                        trace_id: Optional[int] = None) -> bytes:
        """Execute one request; returns the OK-response payload.

        The element ops first run one preamble, in this order: decode
        the batch, observe its size, check cluster ownership (refused
        with a typed :class:`~repro.errors.WrongOwnerError`, so the
        client refreshes its map; never silently served from a shard
        this node does not own), then the standby guard.
        """
        row = protocol.OPS.get(op)
        if row is None:
            raise ProtocolError("unknown opcode %d" % op)
        handler = getattr(self, row.handler)
        if not row.carries_elements:
            self._refuse_on_standby(row)
            value = await handler(payload)
        else:
            # ADD_IDEM's batch follows its (client_id, write_id) key.
            fields = row.request.decode(payload)
            *key, (elements, counts) = (
                fields if row.request is protocol.ADD_IDEM else (fields,))
            if self.observing:
                self._m_elements[op].observe(len(elements))
            self._check_ownership(elements, trace_id)
            self._refuse_on_standby(row)
            value = await handler(elements, counts, trace_id, *key)
        return value if row.response is None else row.response.pack(value)

    def _check_ownership(self, elements: Sequence[bytes],
                         trace_id: Optional[int]) -> None:
        """Cluster ownership contract, as a traced hop when asked."""
        if self.cluster is not None:
            with maybe_span(self.tracer, "node.ownership_check",
                            trace_id, n_elements=len(elements)):
                self.cluster.check_elements(elements)

    def _refuse_on_standby(self, row: protocol.Op) -> None:
        """The read-only guard: a standby refuses the rows marked
        ``standby="refuse"``, which would diverge it from the stream."""
        if row.standby == "refuse" and self.replica.role == "standby":
            raise StandbyReadOnlyError(
                "this server is a standby following a primary; " + (
                    "writes must go to the primary (or PROMOTE this "
                    "standby after a failover)" if row.kind == "write"
                    else "%s would diverge it from the replication "
                    "stream (PROMOTE it first)" % row.name))

    async def _op_ping(self, payload: bytes) -> bytes:
        banner = self._banner or (
            "repro.service %s n_items=%d"
            % (type(self._target).__name__,
               getattr(self._target, "n_items", 0))
        )
        return banner.encode("utf-8")

    async def _op_stats(self, payload: bytes) -> bytes:
        return self.stats_json()

    async def _op_metrics(self, payload: bytes) -> bytes:
        return protocol.metrics_payload(self.metrics, payload)

    async def _op_snapshot(self, payload: bytes) -> bytes:
        return persistence.dumps(self._target)

    async def _op_restore(self, payload: bytes) -> int:
        self._adopt_snapshot(payload, "RESTORE")
        return self._target.n_items

    async def _op_shard_map(self, payload: bytes) -> bytes:
        if self.cluster is None:
            raise UnsupportedOperationError(
                "this server is not a cluster node; start it via "
                "python -m repro.cluster serve to install a shard map")
        return self.cluster.handle_shard_map(payload)

    async def _op_migrate(self, payload: bytes) -> bytes:
        if self.cluster is None:
            raise UnsupportedOperationError(
                "this server is not a cluster node; MIGRATE only "
                "applies under an installed shard map")
        return self.cluster.handle_migrate(payload)

    async def _op_add(self, elements, counts, trace_id) -> int:
        await self._execute("add", elements, counts, trace_id)
        return len(elements)

    async def _op_query(self, elements, counts, trace_id) -> np.ndarray:
        return np.asarray(
            await self._execute("query", elements, None, trace_id))

    async def _op_query_multi(self, elements, counts, trace_id) -> list:
        return list(
            await self._execute("query_multi", elements, None, trace_id))

    async def _op_add_idem(self, elements, counts, trace_id,
                           client_id: int, write_id: int) -> int:
        """Execute one ADD_IDEM exactly once per ``(client, write)`` key.

        Three cases: the key is in the dedup window (the original
        landed; answer its recorded count), the key's first application
        is still in flight (a duplicate raced it; await the same
        outcome), or the key is new (apply, record, and journal it for
        replication).  Outcomes park in the in-flight future as
        ``(status, value)`` pairs rather than exceptions so an
        unobserved failure never trips asyncio's never-retrieved
        warning.
        """
        key = (client_id, write_id)
        recorded = self.idempotency.get(client_id, write_id)
        racing = self._idem_inflight.get(key)
        if recorded is None and racing is not None:
            status, recorded = await asyncio.shield(racing)
            if status == "err":
                raise recorded
        if recorded is not None:
            self.counters.dedup_hits += 1
            self._m_dedup_hits.inc()
            return recorded
        outcome = asyncio.get_running_loop().create_future()
        self._idem_inflight[key] = outcome
        try:
            result = await self._op_add(elements, counts, trace_id)
        except Exception as exc:
            outcome.set_result(("err", exc))
            raise
        finally:
            self._idem_inflight.pop(key, None)
        self.idempotency.put(client_id, write_id, result)
        if self.on_idempotent is not None:
            self.on_idempotent(client_id, write_id, result)
        outcome.set_result(("ok", result))
        return result

    async def _handle_request(
        self,
        writer: asyncio.StreamWriter,
        request_id: int,
        op: int,
        payload: bytes,
        trace_id: Optional[int] = None,
    ) -> None:
        """Run one admitted request and write its response frame.

        No write lock is needed: ``StreamWriter.write`` appends the whole
        frame to the transport buffer synchronously on the single-threaded
        loop, so concurrent request tasks cannot interleave frame bytes.
        The request's trace id (if any) is echoed on the response frame.
        """
        started = time.perf_counter() if self.observing else 0.0
        try:
            with maybe_span(self.tracer, "server.request", trace_id,
                            op=protocol.OP_NAMES.get(op, str(op))):
                body = await self._dispatch(op, payload, trace_id)
            frame = protocol.encode_frame(
                request_id, protocol.STATUS_OK, body, trace_id)
        except Exception as exc:
            if isinstance(exc, ProtocolError):
                self.counters.protocol_errors += 1
            if self.observing:
                self._m_errors[op].inc()
            frame = protocol.error_frame(request_id, exc, trace_id)
        finally:
            self._inflight -= 1
            if self.observing:
                self._m_latency[op].observe(
                    time.perf_counter() - started)
        writer.write(frame)
        try:
            await writer.drain()
        except (ConnectionError, OSError):  # client went away mid-reply
            pass

    async def handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Serve one client connection until EOF.

        Each frame becomes an independent task, so a connection can have
        many requests in flight (pipelining) and responses may return
        out of order — the request id is the correlation key.
        """
        tasks = set()
        self._connections.add(writer)
        peer = writer.get_extra_info("peername")
        try:
            while True:
                try:
                    frame = await protocol.read_frame(reader)
                except ProtocolError as exc:
                    # Framing sync is lost (truncated prefix, a body cut
                    # short by a dying client, an oversized length):
                    # nothing after this point on the stream can be
                    # trusted, so drop this connection — and only this
                    # one — with a logged reason.
                    self.counters.protocol_errors += 1
                    self.counters.connections_dropped += 1
                    logger.warning(
                        "dropping connection %s: %s", peer, exc)
                    break
                if frame is None:
                    break
                request_id, op, payload, trace_id = frame
                self.counters.requests_total += 1
                row = protocol.OPS.get(op)
                if row is None:
                    # An opcode we never defined means the peer is not
                    # speaking this protocol (or the stream is damaged
                    # in a way the length prefix happened to survive);
                    # answer with a typed error, then drop it.
                    self.counters.protocol_errors += 1
                    self.counters.connections_dropped += 1
                    exc = ProtocolError("unknown opcode %d" % op)
                    logger.warning(
                        "dropping connection %s: %s", peer, exc)
                    writer.write(protocol.error_frame(request_id, exc))
                    await writer.drain()
                    break
                if self.observing:
                    self._m_requests[op].inc()
                config = self.config
                shed = None
                if self._inflight >= config.max_inflight:
                    self._m_shed_hard.inc()
                    shed = ServiceOverloadedError(
                        "server at max_inflight=%d admitted requests; "
                        "retry after backoff" % config.max_inflight)
                elif (config.adaptive_shed and row.sheddable
                        and self._inflight >= config.soft_inflight):
                    self.counters.adaptive_sheds += 1
                    self._m_shed_adaptive.inc()
                    shed = ServiceOverloadedError(
                        "server shedding reads at %d/%d admitted "
                        "requests (adaptive shed); retry reads against "
                        "a standby" % (self._inflight,
                                       config.max_inflight))
                if shed is not None:
                    self.counters.overload_rejections += 1
                    writer.write(
                        protocol.error_frame(request_id, shed, trace_id))
                    await writer.drain()
                    continue
                self._inflight += 1
                self.counters.peak_queue_depth = max(
                    self.counters.peak_queue_depth, self._inflight)
                task = asyncio.ensure_future(self._handle_request(
                    writer, request_id, op, payload, trace_id))
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        finally:
            self._connections.discard(writer)
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self, host: str = "127.0.0.1",
                    port: int = 0) -> asyncio.AbstractServer:
        """Bind and start serving; returns the listening server.

        ``port=0`` binds an ephemeral port — read it back from
        ``server.sockets[0].getsockname()[1]`` (tests and the in-process
        benchmark rely on this).
        """
        return await asyncio.start_server(
            self.handle_connection, host=host, port=port)

    async def kill(self, server: asyncio.AbstractServer) -> None:
        """Close *server* (from :meth:`start`) and tear down every open
        client connection immediately: a process death from the
        clients' point of view — in-flight requests fail with a
        connection error rather than hanging.  The in-process drills,
        benchmarks and tests stop nodes this way.
        """
        server.close()
        # Abort before waiting: from Python 3.12.1 on, wait_closed()
        # also waits for every open connection.
        for writer in list(self._connections):
            transport = writer.transport
            if transport is not None:
                transport.abort()
        await server.wait_closed()
