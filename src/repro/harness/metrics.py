"""Measurement primitives for the evaluation harness.

Three quantities drive every figure in the paper's §6:

* **false positive rate** — fraction of absent elements reported present;
* **memory accesses per query** — word fetches per query under the §3.1
  byte-aligned cost model (measured via each structure's
  :class:`~repro.bitarray.memory.MemoryModel`);
* **query processing speed** — queries per second.  The paper reports
  Mqps from a C++ build; our wall-clock numbers are Python-speed, so the
  harness reports them as *relative* series (the shapes and ratios are
  the reproducible part — see DESIGN.md §1.4).
"""

from __future__ import annotations

import time
from typing import Callable, Iterable, Sequence

from repro._util import ElementLike, require_positive
from repro.bitarray.memory import AccessStats

__all__ = [
    "AggregateMemory",
    "access_stats_dict",
    "aggregate_access_stats",
    "measure_accesses_per_query",
    "measure_fpr",
    "measure_throughput",
]


def access_stats_dict(stats: AccessStats) -> dict:
    """Plain-dict form of an :class:`AccessStats` tally.

    The JSON-facing twin of the dataclass: the service's STATS response
    and benchmark result files both ship access accounting over
    process boundaries, where the consumer wants keys, not attributes.
    """
    return {
        "read_words": stats.read_words,
        "write_words": stats.write_words,
        "read_ops": stats.read_ops,
        "write_ops": stats.write_ops,
    }


def aggregate_access_stats(stats: Iterable[AccessStats]) -> AccessStats:
    """Sum several :class:`AccessStats` into one fleet-level tally.

    Logical accesses are additive across independent memory models, so a
    sharded store's traffic is simply the sum over its shards — this is
    the accounting rule behind
    :meth:`repro.store.ShardedFilterStore.memory`, which makes
    :func:`measure_accesses_per_query` work unchanged on a whole store.
    """
    total = AccessStats()
    for item in stats:
        total.read_words += item.read_words
        total.write_words += item.write_words
        total.read_ops += item.read_ops
        total.write_ops += item.write_ops
    return total


class AggregateMemory:
    """Read-only view summing several filters' memory models.

    Quacks enough like a :class:`~repro.bitarray.memory.MemoryModel`
    (``stats``, ``reset``, ``snapshot``, ``word_bits``) for the
    measurement helpers, so a sharded store or a generational ring is
    measured exactly like one filter.  *filters* is called on every
    access and returns the current members (shards swap on rotation);
    recording always happens on the members' models, never here.
    """

    def __init__(self, filters: Callable[[], Sequence]):
        self._filters = filters

    @property
    def stats(self) -> AccessStats:
        return aggregate_access_stats(
            filt.memory.stats for filt in self._filters())

    @property
    def word_bits(self) -> int:
        return self._filters()[0].memory.word_bits

    def reset(self) -> None:
        for filt in self._filters():
            filt.memory.reset()

    def snapshot(self) -> AccessStats:
        return self.stats


def measure_fpr(
    query: Callable[[ElementLike], bool],
    negatives: Sequence[ElementLike],
) -> float:
    """Fraction of *negatives* for which *query* answers True.

    Args:
        query: membership predicate (e.g. ``filt.query`` or a lambda
            adapting an association/multiplicity answer).
        negatives: elements known to be absent.
    """
    require_positive("len(negatives)", len(negatives))
    positives = sum(1 for element in negatives if query(element))
    return positives / len(negatives)


def measure_accesses_per_query(
    structure,
    queries: Iterable[ElementLike],
    op: str = "query",
    batch_size: int = 0,
) -> float:
    """Mean word fetches per query, from the structure's memory model.

    Resets the structure's access statistics, replays *queries* through
    ``getattr(structure, op)`` and divides the recorded read words by the
    query count — exactly the quantity on the y-axis of Figures 8, 10(b)
    and 11(b).

    With a positive *batch_size* the queries are driven through the
    structure's ``query_batch`` fast path instead.  Batch queries bill
    the same logical accesses as scalar ones (the equivalence tests
    assert it), so the measured figure is unchanged — only wall-clock
    time drops.
    """
    memory = structure.memory
    memory.reset()
    count = 0
    if batch_size > 0:
        queries = list(queries)
        run_batch = getattr(structure, "%s_batch" % op)
        for i in range(0, len(queries), batch_size):
            chunk = queries[i : i + batch_size]
            run_batch(chunk)
            count += len(chunk)
    else:
        run = getattr(structure, op)
        for element in queries:
            run(element)
            count += 1
    require_positive("query count", count)
    return memory.stats.read_words / count


def measure_throughput(
    query: Callable[[ElementLike], object],
    queries: Sequence[ElementLike],
    repeats: int = 3,
) -> float:
    """Queries per second of *query* over *queries* (best of *repeats*).

    Best-of-N suppresses scheduler noise, the standard practice for
    micro-throughput measurement; the paper similarly averages 1000
    repetitions (§6.1).
    """
    require_positive("len(queries)", len(queries))
    require_positive("repeats", repeats)
    best = 0.0
    for _ in range(repeats):
        start = time.perf_counter()
        for element in queries:
            query(element)
        elapsed = time.perf_counter() - start
        if elapsed > 0:
            best = max(best, len(queries) / elapsed)
    return best
