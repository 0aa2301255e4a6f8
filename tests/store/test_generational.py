"""Tests for the generational TTL store: triggers, rotation atomicity,
batch/scalar equivalence, slot operations and serde — plus a hypothesis
model check over randomized add/query/trigger schedules."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.one_mem_bloom import OneMemoryBloomFilter
from repro.core import ShiftingBloomFilter
from repro.errors import ConfigurationError, UnsupportedOperationError
from repro.hashing.family import family_spec
from repro.store import GenerationalStore, RotationEvent
from tests.conftest import make_elements

ELEMENTS = make_elements(600, "gen-member")
ABSENT = make_elements(600, "gen-absent")


class ManualClock:
    """An injectable monotonic clock the tests advance by hand."""

    def __init__(self, now: float = 0.0):
        self.now = now

    def tick(self, seconds: float) -> None:
        self.now += seconds

    def __call__(self) -> float:
        return self.now


def shbf_factory(seq):
    return ShiftingBloomFilter(m=8192, k=4)


def make_store(generations=3, **kwargs):
    return GenerationalStore(shbf_factory, generations=generations,
                             **kwargs)


class TestConstruction:
    def test_needs_two_generations(self):
        with pytest.raises(ConfigurationError, match=">= 2"):
            make_store(generations=1)
        with pytest.raises(ConfigurationError):
            make_store(generations=0)

    def test_negative_triggers_rejected(self):
        with pytest.raises(ConfigurationError):
            make_store(rotate_after_items=-1)
        with pytest.raises(ConfigurationError):
            make_store(rotate_after_s=-0.5)

    def test_initial_ring_shape(self):
        store = make_store(generations=4)
        assert store.n_generations == store.n_shards == 4
        assert store.n_items == 0
        assert store.rotations == 0
        # seqs descend head-first so recency is readable pre-rotation
        assert [row.seq for row in store.generation_stats()] == [3, 2, 1, 0]

    def test_size_bits_and_memory_aggregate(self):
        store = make_store(generations=3)
        assert store.size_bits == sum(
            gen.size_bits for gen in store.generations)
        store.add_batch(ELEMENTS[:50])
        assert store.memory.stats.write_ops > 0
        store.memory.reset()
        assert store.memory.stats.total_words == 0


class TestTriggers:
    def test_cardinality_trigger_rotates_on_next_write(self):
        store = make_store(rotate_after_items=10)
        store.add_batch(ELEMENTS[:10])
        assert store.rotations == 0  # batch is atomic, overshoot allowed
        store.add(ELEMENTS[10])
        assert store.rotations == 1
        assert store.head.n_items == 1

    def test_time_trigger_uses_injected_clock_only(self):
        clock = ManualClock()
        store = make_store(rotate_after_s=5.0, clock=clock)
        store.add(ELEMENTS[0])
        assert store.rotations == 0
        clock.tick(4.999)
        assert store.maybe_rotate() is False
        clock.tick(0.001)
        assert store.maybe_rotate() is True
        assert store.rotations == 1

    def test_no_triggers_means_manual_rotation_only(self):
        store = make_store()
        store.add_batch(ELEMENTS[:100])
        assert store.maybe_rotate() is False
        store.rotate()
        assert store.rotations == 1

    def test_pure_reads_never_mutate_the_ring(self):
        clock = ManualClock()
        store = make_store(rotate_after_s=1.0, clock=clock)
        store.add(ELEMENTS[0])
        clock.tick(100.0)
        before = store.generations
        store.query(ELEMENTS[0])
        store.query_batch(ELEMENTS[:20])
        assert store.generations == before
        assert store.rotations == 0


class TestExpiry:
    def test_element_expires_after_g_rotations(self):
        store = make_store(generations=3)
        store.add(ELEMENTS[0])
        for _ in range(2):
            store.rotate()
            assert store.query(ELEMENTS[0])  # still in the window
        store.rotate()
        assert not store.query(ELEMENTS[0])
        assert store.n_items == 0

    def test_rotation_event_payload(self):
        events = []
        store = make_store(generations=3, on_rotate=events.append)
        store.add_batch(ELEMENTS[:7])
        retired = store.rotate()
        assert retired.n_items == 0  # the oldest (empty) slot retires
        event = events[0]
        assert isinstance(event, RotationEvent)
        assert event.retired_n_items == 0
        assert event.retired_seq == 0
        assert event.seq == 3
        assert event.live_generations == 3
        assert event.stall_s >= 0.0
        # two more rotations walk the loaded generation off the ring
        store.rotate()
        retired = store.rotate()
        assert retired.n_items == 7
        assert events[-1].retired_n_items == 7
        assert events[-1].retired_seq == 2

    def test_rotate_requires_factory_after_restore(self):
        store = make_store()
        store.add_batch(ELEMENTS[:20])
        clone = GenerationalStore.restore(store.snapshot())
        old_head = clone.head
        clone.rotate()
        # Without a factory the new head is the old head's empty_like().
        assert (clone.head.m, clone.head.k) == (old_head.m, old_head.k)
        assert family_spec(clone.head.family) == \
            family_spec(old_head.family)
        assert clone.head.n_items == 0 and clone.generations[1] is old_head
        again = GenerationalStore.restore(
            store.snapshot(), factory=shbf_factory)
        again.rotate()
        assert again.rotations == 1

    def test_restored_ring_without_empty_like_refuses_to_rotate(self):
        store = GenerationalStore(
            lambda seq: OneMemoryBloomFilter(m=8192, k=4), generations=2)
        clone = GenerationalStore.restore(store.snapshot())
        with pytest.raises(ConfigurationError, match="factory"):
            clone.rotate()
        assert clone.rotations == 0


class TestQueryPaths:
    def test_batch_equals_scalar_across_generations(self):
        store = make_store(generations=3)
        store.add_batch(ELEMENTS[:100])
        store.rotate()
        store.add_batch(ELEMENTS[100:200])
        store.rotate()
        store.add_batch(ELEMENTS[200:300])
        mixed = ELEMENTS[:300] + ABSENT[:300]
        verdicts = store.query_batch(mixed)
        assert verdicts.tolist() == [store.query(e) for e in mixed]
        assert verdicts[:300].all()  # in-window: no false negatives

    def test_batch_billing_matches_scalar(self):
        """The pending-mask sweep must cost what the scalar loop costs:
        a hit stops probing, a miss sweeps every generation."""
        batch, scalar = make_store(), make_store()
        for store in (batch, scalar):
            store.add_batch(ELEMENTS[:100])
            store.rotate()
            store.add_batch(ELEMENTS[100:200])
            store.memory.reset()
        mixed = ELEMENTS[:200] + ABSENT[:200]
        batch.query_batch(mixed)
        for element in mixed:
            scalar.query(element)
        assert batch.memory.stats.read_words \
            == scalar.memory.stats.read_words

    def test_empty_batches_are_noops(self):
        store = make_store()
        store.add_batch([])
        assert store.n_items == 0
        assert store.query_batch([]).shape == (0,)

    def test_update_and_contains(self):
        store = make_store()
        store.update(ELEMENTS[:5])
        assert store.n_items == 5
        assert ELEMENTS[0] in store

    def test_counts_length_mismatch_rejected(self):
        store = make_store()
        with pytest.raises(ConfigurationError, match="counts"):
            store.add_batch(ELEMENTS[:3], [1, 2])


class TestSlotOperations:
    def test_replace_shard_swaps_and_bumps_swap_count(self):
        store = make_store()
        store.add_batch(ELEMENTS[:30])
        before = store.swap_count
        fresh = shbf_factory(0)
        retired = store.replace_shard(0, fresh)
        assert retired.n_items == 30
        assert store.head is fresh
        assert store.swap_count == before + 1
        with pytest.raises(ConfigurationError, match="out of range"):
            store.replace_shard(9, fresh)

    def test_rotation_bumps_swap_count(self):
        store = make_store()
        before = store.swap_count
        store.rotate()
        assert store.swap_count == before + 1

    def test_merge_shard_unions_in_place(self):
        store, donor = make_store(), shbf_factory(0)
        store.add_batch(ELEMENTS[:50])
        donor.add_batch(ELEMENTS[50:100])
        store.merge_shard(0, donor)
        assert store.query_batch(ELEMENTS[:100]).all()
        direct = shbf_factory(0)
        direct.add_batch(ELEMENTS[:50])
        direct.add_batch(ELEMENTS[50:100])
        assert store.head.bits.to_bytes() == direct.bits.to_bytes()

    def test_merge_shard_geometry_mismatch_surfaces(self):
        store = make_store()
        with pytest.raises(ConfigurationError, match="incompatible"):
            store.merge_shard(0, ShiftingBloomFilter(m=16384, k=4))
        with pytest.raises(ConfigurationError, match="out of range"):
            store.merge_shard(-1, None)


class TestSerde:
    def test_round_trip_is_byte_identical(self):
        store = make_store()
        store.add_batch(ELEMENTS[:100])
        store.rotate()
        store.add_batch(ELEMENTS[100:150])
        blob = store.snapshot()
        clone = GenerationalStore.restore(blob)
        assert clone.snapshot() == blob
        assert clone.n_generations == store.n_generations
        assert clone.rotate_after_items == store.rotate_after_items
        assert clone.rotate_after_s == store.rotate_after_s
        mixed = ELEMENTS[:150] + ABSENT[:150]
        assert clone.query_batch(mixed).tolist() \
            == store.query_batch(mixed).tolist()

    def test_snapshot_carries_no_clock_state(self):
        """Ages restart on restore: two stores with identical bits but
        wildly different clocks snapshot byte-identically."""
        young, old = ManualClock(0.0), ManualClock(1e6)
        a = make_store(rotate_after_s=3600.0, clock=young)
        b = make_store(rotate_after_s=3600.0, clock=old)
        a.add_batch(ELEMENTS[:40])
        b.add_batch(ELEMENTS[:40])
        assert a.snapshot() == b.snapshot()


# ----------------------------------------------------------------------
# Hypothesis: the store vs a transparent reference model
# ----------------------------------------------------------------------
def _ops():
    add = st.tuples(st.just("add"), st.integers(0, 59))
    tick = st.tuples(st.just("tick"), st.integers(1, 9))
    batch = st.tuples(
        st.just("batch"),
        st.lists(st.integers(0, 59), min_size=0, max_size=8))
    poke = st.tuples(st.just("poke"), st.just(0))
    return st.lists(st.one_of(add, tick, batch, poke),
                    min_size=1, max_size=40)


@st.composite
def _schedules(draw):
    return (draw(_ops()),
            draw(st.sampled_from([0, 3, 5, 8])),      # rotate_after_items
            draw(st.sampled_from([0.0, 5.0, 12.0])),  # rotate_after_s
            draw(st.integers(2, 4)))                  # generations


class _Model:
    """Exact mirror of the trigger/rotation semantics using sets."""

    def __init__(self, generations, rotate_items, rotate_s):
        self.rotate_items = rotate_items
        self.rotate_s = rotate_s
        self.now = 0.0
        # head first: [inserted_count, born, set_of_elements]
        self.ring = [[0, 0.0, set()] for _ in range(generations)]

    def _due(self):
        head = self.ring[0]
        if self.rotate_s > 0 and self.now - head[1] >= self.rotate_s:
            return True
        return self.rotate_items > 0 and head[0] >= self.rotate_items

    def maybe_rotate(self):
        if self._due():
            self.ring = [[0, self.now, set()]] + self.ring[:-1]

    def add(self, element):
        self.maybe_rotate()
        self.ring[0][0] += 1
        self.ring[0][2].add(element)

    def add_batch(self, elements):
        if not elements:
            return
        self.maybe_rotate()
        self.ring[0][0] += len(elements)
        self.ring[0][2].update(elements)

    @property
    def live(self):
        out = set()
        for _, _, members in self.ring:
            out |= members
        return out


@given(_schedules())
@settings(max_examples=40, deadline=None)
def test_store_matches_reference_model(schedule):
    ops, rotate_items, rotate_s, generations = schedule
    alphabet = make_elements(60, "hyp")
    clock = ManualClock()
    store = GenerationalStore(
        lambda seq: ShiftingBloomFilter(m=16384, k=4),
        generations=generations,
        rotate_after_items=rotate_items,
        rotate_after_s=rotate_s,
        clock=clock)
    model = _Model(generations, rotate_items, rotate_s)
    for op, arg in ops:
        if op == "add":
            store.add(alphabet[arg])
            model.add(alphabet[arg])
        elif op == "tick":
            clock.tick(float(arg))
            model.now += float(arg)
        elif op == "batch":
            chunk = [alphabet[i] for i in arg]
            store.add_batch(chunk)
            model.add_batch(chunk)
        else:  # poke
            store.maybe_rotate()
            model.maybe_rotate()

    # no false negatives anywhere in the live window
    live = sorted(model.live)
    if live:
        assert store.query_batch(live).all()
        assert all(store.query(e) for e in live)

    # exact n_items accounting, per generation and in total
    rows = store.generation_stats()
    assert [row.n_items for row in rows] \
        == [count for count, _, _ in model.ring]
    assert store.n_items == sum(count for count, _, _ in model.ring)
    # seqs stay strictly descending head-first through any schedule
    seqs = [row.seq for row in rows]
    assert seqs == sorted(seqs, reverse=True)

    # serde round-trip preserves bits and verdicts exactly
    blob = store.snapshot()
    clone = GenerationalStore.restore(blob)
    assert clone.snapshot() == blob
    assert clone.query_batch(alphabet).tolist() \
        == store.query_batch(alphabet).tolist()
