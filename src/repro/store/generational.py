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
* **A ring is a slot store.**  Generations are the slots of
  :class:`~repro.store.slots.SlotStore` (slot 0 is the head), so
  replication ships a ring exactly like a sharded store: every write
  lands in slot 0 (:meth:`GenerationalStore.write_slots`), between
  rotations the head receives merge deltas, and a rotation shifts every
  slot's identity, so each slot ships its authoritative blob.
* **A restored ring keeps rotating.**  A snapshot cannot carry the
  construction factory; a ring without one builds each new head with
  the current head's ``empty_like()`` (same ``m``, ``k`` and hash
  family), so RESTORE, SUBSCRIBE and a full resync leave the trigger
  working.

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
from repro.errors import ConfigurationError
from repro.store.slots import SlotStore

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


class GenerationalStore(SlotStore):
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
        if rotate_after_items < 0:
            raise ConfigurationError(
                "rotate_after_items must be >= 0, got %d"
                % rotate_after_items)
        if rotate_after_s < 0:
            raise ConfigurationError(
                "rotate_after_s must be >= 0, got %r" % rotate_after_s)
        self._factory = factory
        self._clock = clock if clock is not None else time.monotonic
        self._rotate_after_items = rotate_after_items
        self._rotate_after_s = rotate_after_s
        self.on_rotate = on_rotate
        now = self._clock()
        # Head first; initial seqs descend G-1..0 so `seq` orders
        # generations by recency even before the first rotation.
        seqs = range(generations - 1, -1, -1)
        self._slots = tuple(factory(seq) for seq in seqs)
        #: ``(seq, born)`` per slot, parallel to ``_slots``: slot
        #: operations swap a slot's filter and keep its birth.
        self._births = tuple((seq, now) for seq in seqs)
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
        """Adopt pre-built generation filters, head first (the restore
        constructor).

        Birth readings restart at the adopting process's clock — age is
        process-local state, deliberately absent from snapshots.
        """
        store = cls(lambda seq: filters[len(filters) - 1 - seq],
                    len(filters), rotate_after_items, rotate_after_s,
                    clock)
        store._factory = factory
        return store

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_generations(self) -> int:
        """Ring size ``G``."""
        return len(self._slots)

    @property
    def generations(self) -> Tuple[object, ...]:
        """The generation filters, head (newest) first."""
        return self._slots

    @property
    def head(self):
        """The generation currently absorbing writes."""
        return self._slots[0]

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

    def generation_stats(self) -> List[GenerationStats]:
        """Per-generation ``(seq, n_items, age_s)`` rows, head first."""
        now = self._clock()
        return [
            GenerationStats(seq=seq, n_items=filt.n_items,
                            age_s=max(0.0, now - born))
            for filt, (seq, born) in zip(self._slots, self._births)
        ]

    # ------------------------------------------------------------------
    # Rotation
    # ------------------------------------------------------------------
    def _due(self) -> bool:
        if (self._rotate_after_s > 0 and self._clock()
                - self._births[0][1] >= self._rotate_after_s):
            return True
        if (self._rotate_after_items > 0
                and self._slots[0].n_items >= self._rotate_after_items):
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

        The replacement head is built off to the side — by the
        construction factory, or for a restored ring by the head's
        ``empty_like()`` — then the ring is republished in one tuple
        assignment: queries racing the rotation see the old ring or the
        new one, never a mixture.  Returns the retired filter.

        Raises:
            ConfigurationError: the ring has no factory and its head no
                ``empty_like`` (1Mem-BF); restore with ``factory=``.
        """
        stall0 = time.perf_counter()
        head = self._slots[0]
        if self._factory is None and not hasattr(head, "empty_like"):
            raise ConfigurationError(
                "store has no construction factory and its %s head has "
                "no empty_like(); restore with factory= to rotate"
                % type(head).__name__)
        seq = self._births[0][0] + 1
        fresh = (self._factory(seq) if self._factory is not None
                 else head.empty_like())
        retired, (retired_seq, _) = self._slots[-1], self._births[-1]
        self._births = ((seq, self._clock()),) + self._births[:-1]
        self._slots = (fresh,) + self._slots[:-1]
        self._rotations += 1
        self._swap_count += 1
        if self.on_rotate is not None:
            self.on_rotate(RotationEvent(
                seq=seq,
                retired_seq=retired_seq,
                retired_n_items=retired.n_items,
                live_generations=len(self._slots),
                stall_s=time.perf_counter() - stall0,
            ))
        return retired

    # ------------------------------------------------------------------
    # Scalar path
    # ------------------------------------------------------------------
    def add(self, element: ElementLike, *args) -> None:
        """Insert *element* into the head (rotating first if due).

        Extra positional arguments pass through to the head's ``add``
        (ShBF_x takes the element's multiplicity).
        """
        self.maybe_rotate()
        self._slots[0].add(element, *args)

    def query(self, element: ElementLike) -> bool:
        """OR across the live generations, early-exiting on a hit."""
        return any(filt.query(element) for filt in self._slots)

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
        head = self._slots[0]
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
        gens = self._slots
        elements = list(elements)
        if not elements:
            return np.asarray(gens[0].query_batch([]), dtype=bool)
        out = np.asarray(gens[0].query_batch(elements), dtype=bool)
        for filt in gens[1:]:
            pending = np.flatnonzero(~out)
            if pending.size == 0:
                break
            sub = [elements[i] for i in pending]
            out[pending] = np.asarray(filt.query_batch(sub), dtype=bool)
        return out

    def write_slots(self, elements: Sequence[ElementLike]):
        """Every write lands in the head: one slot-0 group."""
        return [(0, range(len(elements)))] if len(elements) else []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return ("GenerationalStore(generations=%d, n_items=%d, "
                "rotations=%d)"
                % (len(self._slots), self.n_items,
                   self._rotations))
