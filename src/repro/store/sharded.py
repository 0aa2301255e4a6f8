"""A sharded filter store: one keyspace, N cooperating shard filters.

The paper's deployments already assume fleets rather than monoliths —
§1.1 routes packets through gateway filters and §2.2's Summary-Cache
nodes exchange whole filters — and a single Python-object filter tops
out long before "millions of users".  :class:`ShardedFilterStore`
partitions the keyspace across ``n_shards`` independent filters with a
:class:`~repro.store.router.ShardRouter`, and drives the batch fast
path *per shard*: a batch is grouped into per-shard sub-batches with
one vectorised routing pass, each shard absorbs its group through its
own ``add_batch``/``query_batch``, and the per-element results scatter
back into input order.

What sharding buys, beyond parallelism headroom:

* **rotation** — :meth:`rotate_shard` rebuilds one shard (e.g. into a
  larger geometry) while the other ``n_shards - 1`` keep serving;
* **bounded blast radius** — a corrupted or saturated shard is 1/N of
  the keyspace;
* **fleet merges** — :meth:`merge` unions two stores shard-by-shard,
  the Summary-Cache exchange pattern at store scale;
* **whole-store snapshots** — :meth:`snapshot`/:meth:`restore` ship the
  fleet as one integrity-checked container blob
  (:func:`repro.persistence.dumps`).

Accounting stays first-class: :attr:`memory` presents the sum of the
per-shard :class:`~repro.bitarray.memory.MemoryModel` tallies, so the
harness's :func:`~repro.harness.metrics.measure_accesses_per_query`
works on a store exactly as on a single filter, and :meth:`report`
breaks the traffic down per shard.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro._util import ElementLike, require_positive
from repro.bitarray.memory import AccessStats
from repro.errors import ConfigurationError, UnsupportedOperationError
from repro.harness.metrics import AggregateMemory, aggregate_access_stats
from repro.store.router import ShardRouter

__all__ = ["ShardAccessReport", "ShardedFilterStore", "StoreAccessReport"]


@dataclass(frozen=True)
class ShardAccessReport:
    """Per-shard slice of a :class:`StoreAccessReport`."""

    shard: int
    n_items: int
    size_bits: int
    stats: AccessStats


@dataclass(frozen=True)
class StoreAccessReport:
    """Store-level accounting: per-shard tallies plus their sum.

    ``imbalance`` is ``max load / mean load`` over the shards (1.0 is a
    perfectly even split); hash routing keeps it near 1 for large
    batches, and the report makes drift visible before it hurts FPR.
    """

    shards: Tuple[ShardAccessReport, ...]
    total: AccessStats

    @property
    def n_items(self) -> int:
        """Total elements across all shards."""
        return sum(s.n_items for s in self.shards)

    @property
    def imbalance(self) -> float:
        """``max(shard items) / mean(shard items)``; 0.0 when empty."""
        loads = [s.n_items for s in self.shards]
        mean = sum(loads) / len(loads)
        return max(loads) / mean if mean else 0.0


class ShardedFilterStore:
    """N shard filters behind one hash router, batch-routed.

    Args:
        factory: ``factory(shard_id) -> filter``; called once per shard
            at construction (and again on :meth:`rotate_shard` unless a
            replacement factory is given).  Any structure exposing
            ``add``/``query`` plus the batch twins works — ShBF_M,
            CShBF_M, ShBF_x (count-carrying), the generalized filter,
            plain/1Mem Bloom baselines; ShBF_A stores route through
            :meth:`build_batch` instead of :meth:`add_batch`.
        n_shards: number of shards.
        router: optional pre-built :class:`ShardRouter`; its
            ``n_shards`` must match.  Defaults to a fresh router with
            the library's routing seed.

    Example:
        >>> from repro.core import ShiftingBloomFilter
        >>> store = ShardedFilterStore(
        ...     lambda shard: ShiftingBloomFilter(m=4096, k=8),
        ...     n_shards=4)
        >>> store.add_batch([b"a", b"b", b"c"])
        >>> store.query_batch([b"a", b"nope"]).tolist()
        [True, False]
    """

    def __init__(
        self,
        factory: Callable[[int], object],
        n_shards: int,
        router: Optional[ShardRouter] = None,
    ):
        require_positive("n_shards", n_shards)
        if router is None:
            router = ShardRouter(n_shards)
        elif router.n_shards != n_shards:
            raise ConfigurationError(
                "router distributes over %d shards, store has %d"
                % (router.n_shards, n_shards)
            )
        self._router = router
        self._factory = factory
        self._shards: List[object] = [
            factory(shard) for shard in range(n_shards)
        ]
        self._swap_count = 0

    @classmethod
    def _from_shards(
        cls,
        shards: Sequence[object],
        router: ShardRouter,
        factory: Optional[Callable[[int], object]] = None,
    ) -> "ShardedFilterStore":
        """Adopt pre-built shard filters (restore/merge constructor)."""
        if len(shards) != router.n_shards:
            raise ConfigurationError(
                "%d shard filters for a %d-shard router"
                % (len(shards), router.n_shards)
            )
        store = cls.__new__(cls)
        store._router = router
        store._factory = factory
        store._shards = list(shards)
        store._swap_count = 0
        return store

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        """Number of shards."""
        return len(self._shards)

    @property
    def router(self) -> ShardRouter:
        """The element → shard router."""
        return self._router

    @property
    def shards(self) -> Tuple[object, ...]:
        """The shard filters, indexed by shard id."""
        return tuple(self._shards)

    @property
    def swap_count(self) -> int:
        """Bumped whenever a shard object is swapped out
        (:meth:`replace_shard`, and therefore :meth:`rotate_shard`),
        i.e. whenever served geometry may have changed without the
        store's own identity changing; the service keys its STATS
        static-fragment cache on this."""
        return self._swap_count

    @property
    def n_items(self) -> int:
        """Total elements across all shards."""
        return sum(shard.n_items for shard in self._shards)

    @property
    def size_bits(self) -> int:
        """Total memory footprint in bits across all shards."""
        return sum(shard.size_bits for shard in self._shards)

    @property
    def memory(self) -> AggregateMemory:
        """Aggregate access-model view (sum of the per-shard models)."""
        return AggregateMemory(lambda: self._shards)

    def report(self) -> StoreAccessReport:
        """Store-level access report with per-shard breakdown."""
        per_shard = tuple(
            ShardAccessReport(
                shard=i,
                n_items=shard.n_items,
                size_bits=shard.size_bits,
                stats=shard.memory.stats.snapshot(),
            )
            for i, shard in enumerate(self._shards)
        )
        return StoreAccessReport(
            shards=per_shard,
            total=aggregate_access_stats(s.stats for s in per_shard),
        )

    # ------------------------------------------------------------------
    # Scalar path
    # ------------------------------------------------------------------
    def add(self, element: ElementLike, *args) -> None:
        """Insert *element* into its owning shard.

        Extra positional arguments pass through to the shard's ``add``
        (ShBF_x takes the element's multiplicity).
        """
        self._shards[self._router.route(element)].add(element, *args)

    def query(self, element: ElementLike):
        """Query *element* against its owning shard."""
        return self._shards[self._router.route(element)].query(element)

    def __contains__(self, element: ElementLike) -> bool:
        return bool(self.query(element))

    def update(self, elements) -> None:
        """Insert every element of an iterable (scalar routing)."""
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
        """Batch insert: one vectorised routing pass, one ``add_batch``
        per non-empty shard group.

        *counts* (for multiplicity shards) is sliced alongside the
        elements, so each shard sees exactly its elements' counts.
        Shard state is identical to routing every element through
        :meth:`add` one at a time.
        """
        elements = list(elements)
        if counts is not None and len(counts) != len(elements):
            raise ConfigurationError(
                "counts length %d != elements length %d"
                % (len(counts), len(elements))
            )
        if not elements:
            return
        for shard_id, idx in self._router.group(elements):
            chunk = [elements[i] for i in idx]
            shard = self._shards[shard_id]
            if counts is None:
                shard.add_batch(chunk)
            else:
                shard.add_batch(chunk, [counts[i] for i in idx])

    def query_batch(self, elements: Sequence[ElementLike]):
        """Batch query with per-shard vectorised dispatch.

        Verdicts equal :meth:`query` element for element and come back
        in input order; the result container (bool/int64 ndarray, or a
        list for answer objects) mirrors the shard filters' own
        ``query_batch``.
        """
        elements = list(elements)
        if not elements:
            return self._shards[0].query_batch([])
        groups = list(self._router.group(elements))
        results = [
            self._shards[shard_id].query_batch([elements[i] for i in idx])
            for shard_id, idx in groups
        ]
        if isinstance(results[0], np.ndarray):
            out = np.empty(len(elements), dtype=results[0].dtype)
            for (shard_id, idx), result in zip(groups, results):
                out[idx] = result
            return out
        out_list: List[object] = [None] * len(elements)
        for (shard_id, idx), result in zip(groups, results):
            for i, answer in zip(idx, result):
                out_list[int(i)] = answer
        return out_list

    def build_batch(
        self, s1: Sequence[ElementLike], s2: Sequence[ElementLike]
    ) -> None:
        """Association-store construction: route both sets, build each
        shard from its slices (ShBF_A's ``build_batch`` per shard).

        An element in both sets routes to one shard, so the shard sees
        it in both of its slices and encodes the intersection offset —
        region semantics are preserved exactly.
        """
        from repro.workloads.sharded import partition_by_shard

        parts1 = partition_by_shard(s1, self._router)
        parts2 = partition_by_shard(s2, self._router)
        for shard_id in range(self.n_shards):
            if parts1[shard_id] or parts2[shard_id]:
                self._shards[shard_id].build_batch(
                    parts1[shard_id], parts2[shard_id])

    # ------------------------------------------------------------------
    # Fleet operations
    # ------------------------------------------------------------------
    def rotate_shard(
        self,
        shard_id: int,
        elements: Sequence[ElementLike],
        factory: Optional[Callable[[int], object]] = None,
        counts: Optional[Sequence[int]] = None,
    ):
        """Rebuild one shard from its catalog slice and swap it in.

        Bloom-family filters cannot enumerate their members, so capacity
        growth is a *rebuild*: the caller supplies the shard's elements
        (e.g. from :func:`repro.workloads.partition_by_shard` over the
        authoritative catalog), a replacement filter is constructed and
        filled **off to the side** — the live shard keeps answering
        queries throughout — and only then swapped in.  Returns the
        retired filter.

        Args:
            shard_id: which shard to rotate.
            elements: the shard's members; every one must route to
                *shard_id* (misrouted elements would silently vanish
                from the store, so they are rejected instead).
            factory: replacement filter builder; defaults to the
                store's construction factory.  Pass a factory with a
                larger ``m`` to grow the shard's capacity.
            counts: per-element multiplicities for ShBF_x shards.
        """
        if not 0 <= shard_id < self.n_shards:
            raise ConfigurationError(
                "shard_id %d out of range for %d shards"
                % (shard_id, self.n_shards)
            )
        elements = list(elements)
        if counts is not None and len(counts) != len(elements):
            # Validated before any filter is built: a misaligned rebuild
            # must never construct (let alone swap in) a replacement
            # from half-applied input.
            raise ConfigurationError(
                "rotate_shard(shard %d): counts length %d != elements "
                "length %d; a misaligned rebuild would partially apply"
                % (shard_id, len(counts), len(elements))
            )
        routed = self._router.route_batch(elements)
        misrouted = int((routed != shard_id).sum())
        if misrouted:
            raise ConfigurationError(
                "%d of %d elements do not route to shard %d; rebuild "
                "input must be the shard's own keyspace slice"
                % (misrouted, len(elements), shard_id)
            )
        make = factory if factory is not None else self._factory
        if make is None:
            raise ConfigurationError(
                "store has no construction factory (restored/merged "
                "stores drop it); pass factory= explicitly"
            )
        replacement = make(shard_id)
        if elements:
            if counts is None:
                replacement.add_batch(elements)
            else:
                replacement.add_batch(elements, counts)
        return self.replace_shard(shard_id, replacement)

    def replace_shard(self, shard_id: int, replacement):
        """Swap *replacement* in for one shard; returns the retired
        filter.

        The atomic swap primitive under :meth:`rotate_shard` and the
        replication layer's replace-mode delta application: the caller
        supplies an authoritative filter for the shard's keyspace slice
        (a rebuild, or the primary's shipped copy) and it takes over
        serving instantly.
        """
        if not 0 <= shard_id < self.n_shards:
            raise ConfigurationError(
                "shard_id %d out of range for %d shards"
                % (shard_id, self.n_shards)
            )
        retired, self._shards[shard_id] = (
            self._shards[shard_id], replacement)
        self._swap_count += 1
        return retired

    def merge_shard(self, shard_id: int, incoming) -> None:
        """Union *incoming* into one shard in place.

        The shard-wise half of :meth:`merge`, exposed for replication:
        a standby folds a primary's delta filter (an
        ``empty_like`` clone holding only the writes since the last
        ship) into its copy of the shard.  Geometry incompatibility
        (e.g. the primary rotated the shard to a new ``m``) surfaces as
        :class:`~repro.errors.ConfigurationError`, which callers treat
        as the signal to fall back to :meth:`replace_shard`.
        """
        if not 0 <= shard_id < self.n_shards:
            raise ConfigurationError(
                "shard_id %d out of range for %d shards"
                % (shard_id, self.n_shards)
            )
        shard = self._shards[shard_id]
        union = getattr(shard, "union", None)
        if union is None:
            raise UnsupportedOperationError(
                "shard %d (%s) does not support union"
                % (shard_id, type(shard).__name__)
            )
        merged = union(incoming)
        # A merge is an in-place state update of a *serving* shard, not
        # a fresh deployment: carry the live access model across so the
        # paper's first-class counters stay monotonic (union() builds
        # its result with a brand-new MemoryModel).
        if hasattr(shard, "bits") and hasattr(merged, "bits"):
            merged.bits.memory = shard.bits.memory
        self._shards[shard_id] = merged

    def merge(self, other: "ShardedFilterStore") -> "ShardedFilterStore":
        """Union-merge two stores with identical geometry, shard-wise.

        Both stores must share the routing function (seed and shard
        count) — otherwise an element's bits would land in different
        shards and the union would lose it.  Per-shard geometry is
        validated by each shard's own ``union``.  This is §2.2's
        Summary-Cache exchange at fleet scale: nodes ship whole stores
        (:meth:`snapshot`), peers merge them.
        """
        if not self._router.is_compatible(other._router):
            raise ConfigurationError(
                "stores route differently (%s vs %s); merge requires "
                "identical router seed and shard count"
                % (self._router.name, other._router.name)
            )
        merged = []
        for shard_id, (ours, theirs) in enumerate(
                zip(self._shards, other._shards)):
            union = getattr(ours, "union", None)
            if union is None:
                raise UnsupportedOperationError(
                    "shard %d (%s) does not support union"
                    % (shard_id, type(ours).__name__)
                )
            merged.append(union(theirs))
        return ShardedFilterStore._from_shards(
            merged, self._router, factory=self._factory)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def snapshot(self) -> bytes:
        """Serialise the whole store to one container blob.

        Delegates to :func:`repro.persistence.dumps`: an ``SHBS``
        container with a header (shard count, router family + seed,
        per-shard blob sizes), the per-shard snapshots — each carrying
        its filter's hash-family kind and seed — and a BLAKE2 digest
        over everything.  A restore therefore hashes *and* routes
        bit-identically whatever family the shards were wired with.
        """
        from repro import persistence

        return persistence.dumps(self)

    @classmethod
    def restore(cls, blob: bytes) -> "ShardedFilterStore":
        """Rebuild a store from :meth:`snapshot` output."""
        from repro import persistence

        store = persistence.load_target(blob)
        if not isinstance(store, ShardedFilterStore):
            raise ConfigurationError(
                "not a ShBF store container (bad magic)")
        return store

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "ShardedFilterStore(n_shards=%d, n_items=%d, router=%r)" % (
            self.n_shards, self.n_items, self._router)
