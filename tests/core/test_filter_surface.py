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

``baseline_surface_golden.json`` holds the same kind of row for the
seven counter, sketch and fingerprint structures the paper compares
against (CBF, CM and SCM under both update rules, every Spectral BF
variant, DCF, iBF and the cuckoo filter).  Their arrays have no common
accessor, so a row records every :class:`BitArray` and
:class:`CounterArray` reachable from the instance by content, and every
memory model those arrays bill to by tier, word size and access totals.
It also pins the ``for_capacity`` sizing of BF and CBF.

Regenerate a table only when a surface change is intended::

    PYTHONPATH=src python tests/core/test_filter_surface.py > \\
        tests/core/filter_surface_golden.json
    PYTHONPATH=src python tests/core/test_filter_surface.py baselines > \\
        tests/core/baseline_surface_golden.json
"""

from __future__ import annotations

import enum
import hashlib
import inspect
import json
import pathlib
import sys

import pytest

from repro.baselines.bloom import BloomFilter
from repro.baselines.count_min import CountMinSketch
from repro.baselines.counting_bloom import CountingBloomFilter
from repro.baselines.cuckoo import CuckooFilter
from repro.baselines.dcf import DynamicCountFilter
from repro.baselines.ibf import IndividualBloomFilters
from repro.baselines.one_mem_bloom import OneMemoryBloomFilter
from repro.baselines.spectral import SpectralBloomFilter
from repro.bitarray.bitarray import BitArray
from repro.bitarray.counters import CounterArray
from repro.core.association import (CountingShiftingAssociationFilter,
                                    ShiftingAssociationFilter)
from repro.core.generalized import GeneralizedShiftingBloomFilter
from repro.core.log_shifting import LogShiftingBloomFilter
from repro.core.membership import (CountingShiftingBloomFilter,
                                   ShiftingBloomFilter)
from repro.core.multiplicity import (CountingShiftingMultiplicityFilter,
                                     ShiftingMultiplicityFilter)
from repro.core.scm import ShiftingCountMinSketch
from repro.errors import ReproError
from repro.hashing.family import make_family

GOLDEN = pathlib.Path(__file__).with_name("filter_surface_golden.json")
BASELINE_GOLDEN = pathlib.Path(__file__).with_name(
    "baseline_surface_golden.json")

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


# ----------------------------------------------------------------------
# The counter, sketch and fingerprint baselines
# ----------------------------------------------------------------------
def _outcome(call, *args, **kwargs):
    """The call's result, or the name of the library error it raised."""
    try:
        return call(*args, **kwargs)
    except ReproError as exc:
        return type(exc).__name__


def _count_structure(filt, remove: bool = False) -> list:
    """Counted and one-by-one adds, removals, then every query view."""
    for i, element in enumerate(MEMBERS[:80]):
        filt.add(element, count=1 + i % 5)
    filt.update(MEMBERS[80:])
    filt.update(MEMBERS[:20])
    answers = [_outcome(filt.remove, MEMBERS[0])]
    if remove:
        for element in MEMBERS[1:10]:
            answers.append(_outcome(filt.remove, element))
    answers += [filt.estimate(e) for e in PROBE[::2]]
    answers += [(a.candidates, a.reported)
                for a in map(filt.query, PROBE[1::2])]
    answers += [e in filt for e in PROBE]
    return answers


def _counting_bloom(filt) -> list:
    filt.update(MEMBERS[:60])
    for element in MEMBERS[60:]:
        filt.add(element)
    filt.update(MEMBERS[:10])
    for element in MEMBERS[:15]:
        filt.remove(element)
    answers = [_outcome(filt.remove, e) for e in PROBE[-5:]]
    answers += [filt.query(e) for e in PROBE[::2]]
    answers += [e in filt for e in PROBE[1::2]]
    answers += [filt.count_estimate(e) for e in PROBE]
    return answers


def _dynamic_count(filt) -> list:
    for i, element in enumerate(MEMBERS):
        filt.add(element, count=1 + i % 9)
    filt.update(MEMBERS[:30])
    answers = [_outcome(filt.remove, MEMBERS[i], count=1 + i % 3)
               for i in range(20)]
    answers.append(_outcome(filt.remove, PROBE[-1], count=50))
    answers += [filt.estimate(e) for e in PROBE[::2]]
    answers += [(a.candidates, a.reported)
                for a in map(filt.query, PROBE[1::2])]
    answers += [e in filt for e in PROBE]
    return answers


def _individual_blooms(filt) -> list:
    for element in MEMBERS[:80]:
        filt.add_to_s1(element)
    for element in MEMBERS[50:]:
        filt.add_to_s2(element)
    return [(a.outcome, a.clear) for a in map(filt.query, PROBE)]


def _cuckoo(filt) -> list:
    answers = [_outcome(filt.add, e) for e in MEMBERS[:70]]
    answers += [filt.remove(e) for e in MEMBERS[:10] + PROBE[-5:]]
    filt.update(MEMBERS[70:75])
    answers += [filt.query(e) for e in PROBE[::2]]
    answers += [e in filt for e in PROBE[1::2]]
    return answers


#: row name -> (class, factory of its fixed instance, ops run on it,
#: the geometry attributes recorded).
BASELINES = {
    "CountingBloomFilter": (
        CountingBloomFilter,
        lambda: CountingBloomFilter(m=2048, k=5, family=_family()),
        _counting_bloom, ("m", "k")),
    "CountMinSketch": (
        CountMinSketch,
        lambda: CountMinSketch(d=4, r=96, family=_family()),
        _count_structure, ("d", "r")),
    "CountMinSketch[conservative]": (
        CountMinSketch,
        lambda: CountMinSketch(d=4, r=96, counter_bits=5,
                               conservative=True, family=_family()),
        _count_structure, ("d", "r")),
    "ShiftingCountMinSketch": (
        ShiftingCountMinSketch,
        lambda: ShiftingCountMinSketch(d=4, r=96, family=_family()),
        _count_structure, ("d", "r", "rows", "w_bar")),
    "ShiftingCountMinSketch[conservative]": (
        ShiftingCountMinSketch,
        lambda: ShiftingCountMinSketch(d=6, r=64, counter_bits=5,
                                       word_bits=32, conservative=True,
                                       family=_family()),
        _count_structure, ("d", "r", "rows", "w_bar")),
    "SpectralBloomFilter[ms]": (
        SpectralBloomFilter,
        lambda: SpectralBloomFilter(m=512, k=4, family=_family()),
        lambda f: _count_structure(f, remove=True), ("m", "k", "variant")),
    "SpectralBloomFilter[mi]": (
        SpectralBloomFilter,
        lambda: SpectralBloomFilter(m=512, k=4, variant="mi",
                                    family=_family()),
        _count_structure, ("m", "k", "variant")),
    "SpectralBloomFilter[rm]": (
        SpectralBloomFilter,
        lambda: SpectralBloomFilter(m=512, k=4, variant="rm",
                                    counter_bits=5, secondary_fraction=0.25,
                                    family=_family()),
        lambda f: _count_structure(f, remove=True), ("m", "k", "variant")),
    "DynamicCountFilter": (
        DynamicCountFilter,
        lambda: DynamicCountFilter(m=512, k=4, fixed_bits=2,
                                   overflow_bits=1, family=_family()),
        _dynamic_count, ("m", "k", "overflow_bits", "rebuilds")),
    "IndividualBloomFilters": (
        IndividualBloomFilters,
        lambda: IndividualBloomFilters(m1=900, m2=700, k=5,
                                       family=_family()),
        _individual_blooms, ("k", "bf1.m", "bf2.m")),
    "IndividualBloomFilters.for_sets": (
        IndividualBloomFilters,
        lambda: IndividualBloomFilters.for_sets(
            MEMBERS[:40], MEMBERS[30:60], k=4, family=_family(),
            memory_scale=0.5),
        _individual_blooms, ("k", "bf1.m", "bf2.m")),
    "CuckooFilter": (
        CuckooFilter,
        lambda: CuckooFilter(capacity=48, fingerprint_bits=8,
                             family=_family(), seed=3),
        _cuckoo, ("n_buckets", "load_factor")),
}


def _attribute(obj, dotted: str):
    for name in dotted.split("."):
        obj = getattr(obj, name)
    return obj.value if isinstance(obj, enum.Enum) else obj


def _reachable(obj, found: dict) -> None:
    """Collect, by ``id``, the arrays held by *obj* and its sub-filters."""
    for value in vars(obj).values():
        if isinstance(value, (BitArray, CounterArray)):
            found[id(value)] = value
        elif (type(value).__module__.startswith("repro.")
              and hasattr(value, "__dict__")
              and not isinstance(value, enum.Enum)
              and id(value) not in found):
            found[id(value)] = None
            _reachable(value, found)


def baseline_surface(name: str) -> dict:
    """The golden row of one baseline instance."""
    cls, factory, drive, geometry = BASELINES[name]
    filt = factory()
    answers = drive(filt)
    found: dict = {}
    _reachable(filt, found)
    arrays = [a for a in found.values() if a is not None]
    memories = {id(a.memory): a.memory for a in arrays}
    memories[id(filt.memory)] = filt.memory
    row = {
        "signature": str(inspect.signature(cls.__init__)),
        "names": sorted(n for n in dir(cls) if not n.startswith("_")),
        "geometry": {g: _attribute(filt, g) for g in geometry},
        "size_bits": filt.size_bits,
        "hash_ops_per_query": filt.hash_ops_per_query,
        "arrays": sorted(
            ["bits", a.nbits, _sha(a.to_bytes())]
            if isinstance(a, BitArray) else
            ["counters", a.size, a.bits_per_counter, _sha(a.to_list())]
            for a in arrays),
        "memories": sorted([m.tier, m.word_bits, _stats(m)]
                           for m in memories.values()),
        "answers_sha": _sha(answers),
    }
    if hasattr(filt, "n_items"):
        row["n_items"] = filt.n_items
    return row


#: ``for_capacity`` inputs whose ``(m, k)`` the tables pin.
CAPACITIES = [(1, 0.5), (100, 0.01), (1000, 0.001), (5000, 0.2)]


def sizing() -> dict:
    return {cls.__name__: [[cls.for_capacity(n, fpr).m,
                            cls.for_capacity(n, fpr).k]
                           for n, fpr in CAPACITIES]
            for cls in (BloomFilter, CountingBloomFilter)}


def baseline_table() -> dict:
    table = {name: baseline_surface(name) for name in BASELINES}
    table["for_capacity"] = sizing()
    return table


#: Public names a baseline gained from the shared skeleton: ``family``
#: from ``HashedStructure``.
BASELINE_ADDED_NAMES = {
    name: {"family"}
    for name in ("CountMinSketch", "CountingBloomFilter", "CuckooFilter",
                 "DynamicCountFilter", "IndividualBloomFilters",
                 "ShiftingCountMinSketch", "SpectralBloomFilter")
}


def expected_baselines() -> dict:
    """The baseline table plus the names the shared skeleton added."""
    table = json.loads(BASELINE_GOLDEN.read_text())
    for name, row in table.items():
        added = BASELINE_ADDED_NAMES.get(name.split("[")[0].split(".")[0])
        if added:
            row["names"] = sorted(set(row["names"]) | added)
    return table


@pytest.mark.parametrize("name", list(BASELINES))
def test_baseline_surface_matches_golden_table(name):
    assert baseline_surface(name) == expected_baselines()[name]


def test_for_capacity_sizing_matches_golden_table():
    assert sizing() == expected_baselines()["for_capacity"]


def test_no_concrete_filter_subclasses_another():
    classes = set(CASES) | {case[0] for case in BASELINES.values()}
    for cls in classes:
        for other in classes:
            assert other is cls or not issubclass(cls, other), (cls, other)


if __name__ == "__main__":
    table = baseline_table() if sys.argv[1:] == ["baselines"] \
        else filter_surface()
    print(json.dumps(table, indent=1, sort_keys=True))
