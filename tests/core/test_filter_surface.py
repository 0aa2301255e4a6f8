"""Pin the public surface and state of the ten bit-array filter classes.

``filter_surface_golden.json`` holds, for each class, its constructor
signature and sorted public names, and — on one fixed instance driven
through scalar and batch adds, queries and (where supported) removals
under ``make_family("blake2b", 0)`` — its geometry, ``n_items``,
``size_bits``, ``hash_ops_per_query``, ``w_bar`` where the class has
one, the sha of its bit array, its SRAM access totals, the sha of its
answers and, for the counting variants, the sha and DRAM access totals
of the counter array.

A restructuring of the class hierarchy must reproduce the table
exactly, apart from the public names listed in :data:`ADDED_NAMES`:
members a shared base gives a class that it did not define before.

Regenerate the table only when a surface change is intended::

    PYTHONPATH=src python tests/core/test_filter_surface.py > \\
        tests/core/filter_surface_golden.json
"""

from __future__ import annotations

import hashlib
import inspect
import json
import pathlib

import pytest

from repro.baselines.bloom import BloomFilter
from repro.baselines.one_mem_bloom import OneMemoryBloomFilter
from repro.core.association import (CountingShiftingAssociationFilter,
                                    ShiftingAssociationFilter)
from repro.core.generalized import GeneralizedShiftingBloomFilter
from repro.core.log_shifting import LogShiftingBloomFilter
from repro.core.membership import (CountingShiftingBloomFilter,
                                   ShiftingBloomFilter)
from repro.core.multiplicity import (CountingShiftingMultiplicityFilter,
                                     ShiftingMultiplicityFilter)
from repro.hashing.family import make_family

GOLDEN = pathlib.Path(__file__).with_name("filter_surface_golden.json")

#: Public names a class gained from the shared skeleton
#: (:mod:`repro.core.base`): ``family`` and ``fill_ratio`` from
#: ``BitArrayFilter``, ``policy`` from ``ShiftedFilter`` and
#: ``check_synchronised`` from ``CountingTier``.
ADDED_NAMES = {
    "CountingShiftingAssociationFilter": {"fill_ratio"},
    "CountingShiftingBloomFilter": {"family", "fill_ratio", "policy"},
    "CountingShiftingMultiplicityFilter": {"check_synchronised",
                                           "fill_ratio"},
    "GeneralizedShiftingBloomFilter": {"family", "policy"},
    "LogShiftingBloomFilter": {"family", "policy"},
    "OneMemoryBloomFilter": {"family"},
    "ShiftingAssociationFilter": {"fill_ratio"},
    "ShiftingMultiplicityFilter": {"fill_ratio"},
}


def _keys(prefix: str, count: int) -> list:
    return [("%s-%04d" % (prefix, i)).encode() for i in range(count)]


MEMBERS = _keys("member", 120)
PROBE = MEMBERS[:40] + _keys("absent", 40)


def _sha(data) -> str:
    if not isinstance(data, bytes):
        data = repr(data).encode("utf-8")
    return hashlib.sha256(data).hexdigest()[:16]


def _stats(memory) -> list:
    s = memory.stats
    return [s.read_ops, s.read_words, s.write_ops, s.write_words]


def _element_filter(filt, remove: bool = False) -> list:
    """Scalar and batch adds, then scalar and batch queries."""
    filt.update(MEMBERS[:30])
    for element in MEMBERS[30:60]:
        filt.add(element)
    if hasattr(filt, "add_batch"):
        filt.add_batch(MEMBERS[60:])
    else:
        filt.update(MEMBERS[60:])
    if remove:
        for element in MEMBERS[:10]:
            filt.remove(element)
    answers = [filt.query(e) for e in PROBE[::2]]
    answers += [e in filt for e in PROBE[1::2]]
    if hasattr(filt, "query_batch"):
        answers += filt.query_batch(PROBE).tolist()
    return answers


def _association(filt, counting: bool) -> list:
    s1, s2 = MEMBERS[:80], MEMBERS[50:]
    if counting:
        for element in s1:
            filt.add_to_s1(element)
        for element in s2:
            filt.add_to_s2(element)
        filt.remove_from_s1(MEMBERS[0])
        filt.remove_from_s2(MEMBERS[60])
    else:
        filt.build_batch(s1, s2)
    answers = [filt.query(e).outcome for e in PROBE[::2]]
    answers += [a.outcome for a in filt.query_batch(PROBE[1::2])]
    return answers


def _multiplicity(filt, counting: bool) -> list:
    if counting:
        for i, element in enumerate(MEMBERS):
            for _ in range(1 + i % 5):
                filt.add(element)
        filt.update(MEMBERS[:10])
        filt.remove(MEMBERS[20])
    else:
        for i, element in enumerate(MEMBERS[:60]):
            filt.add(element, count=1 + i % 5)
        filt.add_batch(MEMBERS[60:], [1 + i % 7 for i in range(60)])
    answers = [filt.query(e).reported for e in PROBE[::2]]
    answers += [e in filt for e in PROBE[1::2]]
    answers += filt.query_batch(PROBE).tolist()
    return answers


def _family():
    return make_family("blake2b", 0)


#: class -> (factory of its fixed instance, the ops run on it).
CASES = {
    ShiftingBloomFilter: (
        lambda: ShiftingBloomFilter(m=4096, k=8, family=_family()),
        _element_filter),
    CountingShiftingBloomFilter: (
        lambda: CountingShiftingBloomFilter(m=4096, k=8, family=_family()),
        lambda f: _element_filter(f, remove=True)),
    ShiftingAssociationFilter: (
        lambda: ShiftingAssociationFilter(m=4096, k=6, family=_family()),
        lambda f: _association(f, counting=False)),
    CountingShiftingAssociationFilter: (
        lambda: CountingShiftingAssociationFilter(
            m=4096, k=6, family=_family()),
        lambda f: _association(f, counting=True)),
    ShiftingMultiplicityFilter: (
        lambda: ShiftingMultiplicityFilter(
            m=4096, k=6, c_max=8, family=_family()),
        lambda f: _multiplicity(f, counting=False)),
    CountingShiftingMultiplicityFilter: (
        lambda: CountingShiftingMultiplicityFilter(
            m=4096, k=6, c_max=8, family=_family()),
        lambda f: _multiplicity(f, counting=True)),
    GeneralizedShiftingBloomFilter: (
        lambda: GeneralizedShiftingBloomFilter(
            m=4096, k=12, t=2, family=_family()),
        _element_filter),
    LogShiftingBloomFilter: (
        lambda: LogShiftingBloomFilter(
            m=4096, k=16, levels=3, family=_family()),
        _element_filter),
    BloomFilter: (
        lambda: BloomFilter(m=4096, k=7, family=_family()),
        _element_filter),
    OneMemoryBloomFilter: (
        lambda: OneMemoryBloomFilter(m=4000, k=8, family=_family()),
        _element_filter),
}


def surface(cls) -> dict:
    """The golden row of one class."""
    factory, drive = CASES[cls]
    filt = factory()
    answers = drive(filt)
    row = {
        "signature": str(inspect.signature(cls.__init__)),
        "names": sorted(n for n in dir(cls) if not n.startswith("_")),
        "m": filt.m,
        "k": filt.k,
        "size_bits": filt.size_bits,
        "hash_ops_per_query": filt.hash_ops_per_query,
        "bits_sha": _sha(filt.bits.to_bytes()),
        "memory_stats": _stats(filt.memory),
        "answers_sha": _sha(answers),
    }
    for name in ("n_items", "w_bar"):
        if hasattr(filt, name):
            row[name] = getattr(filt, name)
    if hasattr(filt, "counters"):
        row["counters_sha"] = _sha(filt.counters.to_list())
        row["counters_stats"] = _stats(filt.counters.memory)
    return row


def filter_surface() -> dict:
    return {cls.__name__: surface(cls) for cls in CASES}


def expected_surface() -> dict:
    """The golden table plus the names the shared skeleton added."""
    table = json.loads(GOLDEN.read_text())
    for name, added in ADDED_NAMES.items():
        table[name]["names"] = sorted(set(table[name]["names"]) | added)
    return table


@pytest.mark.parametrize("cls", list(CASES), ids=lambda c: c.__name__)
def test_filter_surface_matches_golden_table(cls):
    assert surface(cls) == expected_surface()[cls.__name__]


def test_no_concrete_filter_subclasses_another():
    for cls in CASES:
        for other in CASES:
            assert other is cls or not issubclass(cls, other), (cls, other)


if __name__ == "__main__":
    print(json.dumps(filter_surface(), indent=1, sort_keys=True))
