"""The slot-store core shared by sharded stores and TTL rings.

Both served stores hold one keyspace in a fixed number of filter
*slots*: :class:`~repro.store.ShardedFilterStore` gives each slot the
hash-routed slice of the keyspace, and
:class:`~repro.store.generational.GenerationalStore` gives each slot
one generation of the insert stream (slot 0 is the head).
:class:`SlotStore` owns the slot tuple and implements, once, everything
that needs only the tuple: the aggregate views, the in-place slot
operations replication applies and the container snapshot.

A subclass says which slot each element of a write lands in
(:meth:`SlotStore.write_slots`).  Together with the slot identities,
that is all the replication layer needs to ship any slot store: ShBF_M
filters of equal geometry merge by bitwise OR — the whole-filter
exchange of §2.2 — so one delta builder applies each slot's journalled
writes to an ``empty_like`` clone, and a standby folds it in through
:meth:`SlotStore.merge_shard`.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

from repro._util import ElementLike
from repro.errors import ConfigurationError, UnsupportedOperationError
from repro.harness.metrics import AggregateMemory

__all__ = ["SlotStore"]


class SlotStore:
    """A tuple of slot filters and the operations defined over it.

    Subclasses set ``_slots`` (a tuple, republished whole on every
    change, so a reader holding the old tuple never sees a half-applied
    swap) and ``_swap_count``, and define :meth:`write_slots`.
    """

    _slots: Tuple[object, ...]
    _swap_count: int

    def write_slots(
        self, elements: Sequence[ElementLike]
    ) -> Iterable[Tuple[int, Sequence[int]]]:
        """``(slot, indices)`` per slot a write of *elements* lands in
        (non-empty groups only, indices in input order)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        """Number of slots; replication addresses them like shard ids."""
        return len(self._slots)

    @property
    def shards(self) -> Tuple[object, ...]:
        """The slot filters, indexed by slot id."""
        return self._slots

    @property
    def swap_count(self) -> int:
        """Bumped whenever a slot's filter is swapped out, i.e. whenever
        served geometry may have changed without the store's own
        identity changing; the service keys its STATS static-fragment
        cache on this."""
        return self._swap_count

    @property
    def n_items(self) -> int:
        """Total elements across all slots."""
        return sum(filt.n_items for filt in self._slots)

    @property
    def size_bits(self) -> int:
        """Total memory footprint in bits across all slots."""
        return sum(filt.size_bits for filt in self._slots)

    @property
    def memory(self) -> AggregateMemory:
        """Aggregate access-model view (sum of the per-slot models)."""
        return AggregateMemory(lambda: self._slots)

    def __contains__(self, element: ElementLike) -> bool:
        return bool(self.query(element))

    def update(self, elements) -> None:
        """Insert every element of an iterable (scalar path)."""
        for element in elements:
            self.add(element)

    # ------------------------------------------------------------------
    # Slot operations
    # ------------------------------------------------------------------
    def _slot(self, slot: int):
        """The filter in *slot*, after the one bounds check."""
        if not 0 <= slot < len(self._slots):
            raise ConfigurationError(
                "slot %d out of range for %d slots"
                % (slot, len(self._slots)))
        return self._slots[slot]

    def _publish(self, slot: int, filt) -> None:
        self._slots = self._slots[:slot] + (filt,) + self._slots[slot + 1:]

    def replace_shard(self, slot: int, replacement):
        """Swap *replacement* in for one slot; returns the retired
        filter.

        The caller supplies an authoritative filter for the slot — a
        rebuild, or a primary's shipped copy — and it takes over
        serving at once.  Replication's replace-mode entries land here.
        """
        retired = self._slot(slot)
        self._publish(slot, replacement)
        self._swap_count += 1
        return retired

    def merge_shard(self, slot: int, incoming) -> None:
        """Union *incoming* into one slot in place.

        A standby folds a primary's delta filter (an ``empty_like``
        clone holding only the writes since the last ship) into its
        copy of the slot.  Geometry incompatibility surfaces as
        :class:`~repro.errors.ConfigurationError`, a filter without
        ``union`` as :class:`~repro.errors.UnsupportedOperationError`.
        """
        current = self._slot(slot)
        union = getattr(current, "union", None)
        if union is None:
            raise UnsupportedOperationError(
                "slot %d (%s) does not support union"
                % (slot, type(current).__name__))
        merged = union(incoming)
        # A merge is an in-place state update of a serving filter, not a
        # fresh deployment: carry the live access model across so the
        # paper's first-class counters stay monotonic (union() builds
        # its result with a brand-new MemoryModel).
        if hasattr(current, "bits") and hasattr(merged, "bits"):
            merged.bits.memory = current.bits.memory
        self._publish(slot, merged)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def snapshot(self) -> bytes:
        """Serialise the store to one container blob
        (:func:`repro.persistence.dumps`): per-slot ``SHBF`` blobs,
        each carrying its hash family, under one digest-guarded
        header."""
        from repro import persistence

        return persistence.dumps(self)

    @classmethod
    def restore(cls, blob: bytes, factory=None, clock=None):
        """Rebuild a store from :meth:`snapshot` output.

        A blob cannot carry callables: *factory* (the construction
        factory) and, for rings, *clock* pass through
        :func:`repro.persistence.load_target`.  A ring restored without
        a factory still rotates, building each new head with the
        current head's ``empty_like()``.
        """
        from repro import persistence

        store = persistence.load_target(blob, factory=factory, clock=clock)
        if not isinstance(store, cls):
            raise ConfigurationError(
                "not a %s container (bad magic)" % cls.__name__)
        return store
