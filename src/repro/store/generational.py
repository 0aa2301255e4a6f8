"""Time-decaying membership: a ring of generation filters with TTL.

Bloom-family filters cannot delete, so expiry has to come from
*generations*: :class:`GenerationalStore` keeps ``G`` filters over one
keyspace, writes land in the **head** generation, and a query is the OR
across every live generation.  Rotation retires the oldest generation
and publishes a fresh empty head, so an element inserted once stops
answering MAYBE after at most ``G`` rotations — a sliding window over
the insert stream, the streaming treatment *Sampling and Reconstruction
Using Bloom Filters* (Sengupta et al.) motivates for long-running
dedup/caching deployments.

Design decisions that matter to correctness:

* **Triggers never read the wall clock.**  Rotation is due when the
  head has aged past ``rotate_after_s`` on the *injected* clock
  (``time.monotonic`` by default) or holds ``rotate_after_items``
  elements.  Triggers are evaluated at write entry (and via
  :meth:`maybe_rotate`), so a pure-read workload never mutates the
  ring, and a seeded drill with a manual clock replays bit-identically.
* **Rotation publishes atomically.**  The fresh head is built off to
  the side, then the whole generation tuple is replaced in one
  assignment — a concurrent reader snapshots the tuple once and sees
  the ring either wholly before or wholly after the rotation, never a
  half-retired generation.
* **Batch queries bill like the scalar path.**  The batched sweep
  probes the head with the full batch, then only the still-negative
  elements against each older generation: an element that hits stops
  probing (scalar early exit), a miss sweeps every live generation.
* **Replication speaks the shard delta protocol.**  Ring slots are
  addressed like shard ids (:attr:`n_shards`, :meth:`merge_shard`,
  :meth:`replace_shard`), so the standby apply path and the
  replace-mode rotation blobs of :mod:`repro.replication` work on a
  generational target unchanged: between rotations the head slot
  receives merge deltas, a rotation shifts every slot's identity and
  ships each slot's authoritative blob.

Snapshots (:meth:`snapshot`/:meth:`restore`) use the ``SHBG`` container
of :mod:`repro.persistence`: per-generation blobs head-first plus the
trigger config, with no clock state — a quiesced primary and its
standby snapshot byte-identically.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro._util import ElementLike, require_positive
from repro.errors import ConfigurationError, UnsupportedOperationError
from repro.harness.metrics import AggregateMemory

__all__ = ["GenerationalStore", "GenerationStats", "RotationEvent"]


@dataclass(frozen=True)
class GenerationStats:
    """One live generation's STATS row."""

    seq: int
    n_items: int
    age_s: float


@dataclass(frozen=True)
class RotationEvent:
    """What one rotation did, handed to the ``on_rotate`` hook.

    ``stall_s`` is the time the write path was occupied building and
    publishing the fresh head (measured with ``perf_counter`` — it is
    telemetry, not trigger input); the serving layer feeds it into the
    ``repro_ttl_rotation_stall_seconds`` histogram.
    """

    seq: int
    retired_seq: int
    retired_n_items: int
    live_generations: int
    stall_s: float


def _check_triggers(rotate_after_items, rotate_after_s) -> None:
    if rotate_after_items < 0:
        raise ConfigurationError(
            "rotate_after_items must be >= 0, got %d" % rotate_after_items)
    if rotate_after_s < 0:
        raise ConfigurationError(
            "rotate_after_s must be >= 0, got %r" % rotate_after_s)


class _Generation:
    """One ring slot: the filter plus its birth reading and sequence."""

    __slots__ = ("filt", "seq", "born")

    def __init__(self, filt, seq: int, born: float):
        self.filt = filt
        self.seq = seq
        self.born = born


class GenerationalStore:
    """G generation filters over one keyspace, rotated on a trigger.

    Args:
        factory: ``factory(seq) -> filter``; called once per generation
            at construction and once per rotation for the fresh head.
            Any structure exposing ``add``/``query`` plus the batch
            twins and ``empty_like``/``union`` works — ShBF_M and the
            Bloom baselines qualify; counting variants do not snapshot.
        generations: ring size ``G``; an element inserted into the head
            stays queryable for at least ``G - 1`` further rotations.
        rotate_after_items: cardinality trigger — rotation is due once
            the head holds this many elements (0 disables).
        rotate_after_s: time trigger — rotation is due once the head is
            this old on *clock* (0 disables).  At least one trigger, or
            manual :meth:`rotate` calls, must drive expiry.
        clock: the monotonic time source the time trigger and the age
            stats read; defaults to :func:`time.monotonic`.  Tests and
            drills inject a manual clock — the trigger path never
            touches the wall clock.
        on_rotate: called with a :class:`RotationEvent` after each
            rotation has published; the service layer hooks metrics and
            its STATS cache invalidation here.

    Example:
        >>> from repro.core import ShiftingBloomFilter
        >>> store = GenerationalStore(
        ...     lambda seq: ShiftingBloomFilter(m=4096, k=4),
        ...     generations=3, rotate_after_items=2)
        >>> store.add_batch([b"a", b"b"])
        >>> store.add(b"c")          # trigger fired: rotated, then added
        >>> store.rotations
        1
        >>> bool(store.query(b"a")), bool(store.query(b"c"))
        (True, True)
    """

    def __init__(
        self,
        factory: Callable[[int], object],
        generations: int,
        rotate_after_items: int = 0,
        rotate_after_s: float = 0.0,
        clock: Optional[Callable[[], float]] = None,
        on_rotate: Optional[Callable[[RotationEvent], None]] = None,
    ):
        require_positive("generations", generations)
        if generations < 2:
            raise ConfigurationError(
                "a generational store needs >= 2 generations (got %d); "
                "with one, every rotation would drop the entire window"
                % generations)
        _check_triggers(rotate_after_items, rotate_after_s)
        self._factory = factory
        self._clock = clock if clock is not None else time.monotonic
        self._rotate_after_items = rotate_after_items
        self._rotate_after_s = rotate_after_s
        self.on_rotate = on_rotate
        now = self._clock()
        # Head first; initial seqs descend G-1..0 so `seq` orders
        # generations by recency even before the first rotation.
        self._generations: Tuple[_Generation, ...] = tuple(
            _Generation(factory(generations - 1 - i),
                        generations - 1 - i, now)
            for i in range(generations)
        )
        self._rotations = 0
        self._swap_count = 0

    @classmethod
    def _from_generations(
        cls,
        filters: Sequence[object],
        rotate_after_items: int,
        rotate_after_s: float,
        factory: Optional[Callable[[int], object]] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> "GenerationalStore":
        """Adopt pre-built generation filters (the restore constructor).

        Birth readings restart at the adopting process's clock — age is
        process-local state, deliberately absent from snapshots.
        """
        if len(filters) < 2:
            raise ConfigurationError(
                "a generational store needs >= 2 generations, got %d"
                % len(filters))
        _check_triggers(rotate_after_items, rotate_after_s)
        store = cls.__new__(cls)
        store._factory = factory
        store._clock = clock if clock is not None else time.monotonic
        store._rotate_after_items = rotate_after_items
        store._rotate_after_s = rotate_after_s
        store.on_rotate = None
        now = store._clock()
        store._generations = tuple(
            _Generation(filt, len(filters) - 1 - i, now)
            for i, filt in enumerate(filters)
        )
        store._rotations = 0
        store._swap_count = 0
        return store

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_generations(self) -> int:
        """Ring size ``G``."""
        return len(self._generations)

    @property
    def n_shards(self) -> int:
        """Ring size again: slots speak the shard delta protocol.

        The replication layer addresses ring slots exactly like shard
        ids (0 = head), so the standby apply path validates against
        this the same way it does for a sharded store.
        """
        return len(self._generations)

    @property
    def generations(self) -> Tuple[object, ...]:
        """The generation filters, head (newest) first."""
        return tuple(gen.filt for gen in self._generations)

    @property
    def head(self):
        """The generation currently absorbing writes."""
        return self._generations[0].filt

    @property
    def rotate_after_items(self) -> int:
        return self._rotate_after_items

    @property
    def rotate_after_s(self) -> float:
        return self._rotate_after_s

    @property
    def rotations(self) -> int:
        """Rotations performed by this instance (not persisted)."""
        return self._rotations

    @property
    def swap_count(self) -> int:
        """Bumped whenever served geometry may have changed (rotation
        or slot replacement); the service keys its STATS static-fragment
        cache on this."""
        return self._swap_count

    @property
    def n_items(self) -> int:
        """Total elements across the live generations.

        An element re-inserted while still live counts once per
        generation that absorbed it, exactly as the underlying filters
        bill repeated ``add`` calls.
        """
        return sum(gen.filt.n_items for gen in self._generations)

    @property
    def size_bits(self) -> int:
        """Total memory footprint in bits across the ring."""
        return sum(gen.filt.size_bits for gen in self._generations)

    @property
    def memory(self) -> AggregateMemory:
        """Aggregate access-model view (sum over the generations)."""
        return AggregateMemory(lambda: self.generations)

    def generation_stats(self) -> List[GenerationStats]:
        """Per-generation ``(seq, n_items, age_s)`` rows, head first."""
        now = self._clock()
        return [
            GenerationStats(seq=gen.seq, n_items=gen.filt.n_items,
                            age_s=max(0.0, now - gen.born))
            for gen in self._generations
        ]

    # ------------------------------------------------------------------
    # Rotation
    # ------------------------------------------------------------------
    def _due(self) -> bool:
        head = self._generations[0]
        if (self._rotate_after_s > 0
                and self._clock() - head.born >= self._rotate_after_s):
            return True
        if (self._rotate_after_items > 0
                and head.filt.n_items >= self._rotate_after_items):
            return True
        return False

    def maybe_rotate(self) -> bool:
        """Rotate if a trigger is due; returns whether it did.

        The write path calls this at entry; a serving layer with a time
        trigger should also poke it periodically so expiry happens even
        when no writes arrive.
        """
        if self._due():
            self.rotate()
            return True
        return False

    def rotate(self):
        """Retire the oldest generation and publish a fresh empty head.

        The replacement head is built off to the side, then the ring is
        republished in one tuple assignment — queries racing the
        rotation see the old ring or the new one, never a mixture.
        Returns the retired filter.
        """
        if self._factory is None:
            raise ConfigurationError(
                "store has no construction factory (restored stores "
                "drop it); restore with factory= to rotate")
        stall0 = time.perf_counter()
        head = self._generations[0]
        fresh = _Generation(
            self._factory(head.seq + 1), head.seq + 1, self._clock())
        retired = self._generations[-1]
        self._generations = (fresh,) + self._generations[:-1]
        self._rotations += 1
        self._swap_count += 1
        if self.on_rotate is not None:
            self.on_rotate(RotationEvent(
                seq=fresh.seq,
                retired_seq=retired.seq,
                retired_n_items=retired.filt.n_items,
                live_generations=len(self._generations),
                stall_s=time.perf_counter() - stall0,
            ))
        return retired.filt

    # ------------------------------------------------------------------
    # Scalar path
    # ------------------------------------------------------------------
    def add(self, element: ElementLike, *args) -> None:
        """Insert *element* into the head (rotating first if due).

        Extra positional arguments pass through to the head's ``add``
        (ShBF_x takes the element's multiplicity).
        """
        self.maybe_rotate()
        self._generations[0].filt.add(element, *args)

    def query(self, element: ElementLike) -> bool:
        """OR across the live generations, early-exiting on a hit."""
        for gen in self._generations:
            if gen.filt.query(element):
                return True
        return False

    def __contains__(self, element: ElementLike) -> bool:
        return bool(self.query(element))

    def update(self, elements) -> None:
        """Insert every element of an iterable (scalar path)."""
        for element in elements:
            self.add(element)

    # ------------------------------------------------------------------
    # Batch path
    # ------------------------------------------------------------------
    def add_batch(
        self,
        elements: Sequence[ElementLike],
        counts: Optional[Sequence[int]] = None,
    ) -> None:
        """Batch insert into the head (rotating first if due).

        A batch is atomic: it is never split across two generations, so
        the head may overshoot ``rotate_after_items`` by at most one
        batch — the next write entry rotates.
        """
        elements = list(elements)
        if counts is not None and len(counts) != len(elements):
            raise ConfigurationError(
                "counts length %d != elements length %d"
                % (len(counts), len(elements))
            )
        if not elements:
            return
        self.maybe_rotate()
        head = self._generations[0].filt
        if counts is None:
            head.add_batch(elements)
        else:
            head.add_batch(elements, counts)

    def query_batch(self, elements: Sequence[ElementLike]) -> np.ndarray:
        """Batched OR sweep with scalar-equivalent billing.

        The head answers the full batch; each older generation is then
        probed only with the still-negative elements.  An element that
        hits therefore stops probing exactly where the scalar loop
        would, and a miss in all generations costs the full sweep —
        short-circuiting bills like :meth:`query` element for element.
        """
        gens = self._generations
        elements = list(elements)
        if not elements:
            return np.asarray(
                gens[0].filt.query_batch([]), dtype=bool)
        out = np.asarray(gens[0].filt.query_batch(elements), dtype=bool)
        for gen in gens[1:]:
            pending = np.flatnonzero(~out)
            if pending.size == 0:
                break
            sub = [elements[i] for i in pending]
            out[pending] = np.asarray(
                gen.filt.query_batch(sub), dtype=bool)
        return out

    # ------------------------------------------------------------------
    # Replication slot operations (shard delta protocol)
    # ------------------------------------------------------------------
    def replace_shard(self, slot: int, replacement):
        """Swap *replacement* in for one ring slot; returns the retired
        filter.

        The replace-mode half of the shard delta protocol: after a
        rotation every slot's identity shifts, so the primary ships
        each slot's authoritative blob and the standby swaps them in
        here.  Slot 0 is the head.
        """
        if not 0 <= slot < len(self._generations):
            raise ConfigurationError(
                "slot %d out of range for %d generations"
                % (slot, len(self._generations))
            )
        old = self._generations[slot]
        fresh = _Generation(replacement, old.seq, old.born)
        ring = list(self._generations)
        ring[slot] = fresh
        self._generations = tuple(ring)
        self._swap_count += 1
        return old.filt

    def merge_shard(self, slot: int, incoming) -> None:
        """Union *incoming* into one ring slot in place.

        The merge-mode half of the shard delta protocol: between
        rotations every journalled write landed in the primary's head,
        so the standby folds the shipped ``empty_like`` delta into its
        own slot 0.  Geometry incompatibility surfaces as
        :class:`~repro.errors.ConfigurationError`, the caller's signal
        to fall back to a full resync.
        """
        if not 0 <= slot < len(self._generations):
            raise ConfigurationError(
                "slot %d out of range for %d generations"
                % (slot, len(self._generations))
            )
        gen = self._generations[slot]
        union = getattr(gen.filt, "union", None)
        if union is None:
            raise UnsupportedOperationError(
                "generation %d (%s) does not support union"
                % (slot, type(gen.filt).__name__)
            )
        merged = union(incoming)
        # Same contract as the sharded store: a merge is an in-place
        # state update of a serving filter, so the live access model
        # carries across (union() builds its result with a fresh one).
        if hasattr(gen.filt, "bits") and hasattr(merged, "bits"):
            merged.bits.memory = gen.filt.bits.memory
        ring = list(self._generations)
        ring[slot] = _Generation(merged, gen.seq, gen.born)
        self._generations = tuple(ring)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def snapshot(self) -> bytes:
        """Serialise the ring to one ``SHBG`` container blob.

        The header carries the trigger config and per-generation blob
        sizes but no clock state or rotation counter — ages restart on
        restore, and a quiesced primary and its standby snapshot
        byte-identically.
        """
        from repro import persistence

        return persistence.dumps(self)

    @classmethod
    def restore(
        cls,
        blob: bytes,
        factory: Optional[Callable[[int], object]] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> "GenerationalStore":
        """Rebuild a store from :meth:`snapshot` output.

        Restored stores drop the construction factory (the blob cannot
        carry a callable); pass *factory* to make the restored store
        rotate again — read-only standbys don't need one.
        """
        from repro import persistence

        store = persistence.load_target(blob, factory=factory, clock=clock)
        if not isinstance(store, GenerationalStore):
            raise ConfigurationError(
                "not a generational-store container (bad magic)")
        return store

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return ("GenerationalStore(generations=%d, n_items=%d, "
                "rotations=%d)"
                % (len(self._generations), self.n_items,
                   self._rotations))
