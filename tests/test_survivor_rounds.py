"""Survivor-round batch queries against the scalar early-exit loops.

ShBF_M, CShBF_M and the standard Bloom filter answer ``query_batch`` in
survivor rounds (``repro._vector.survivor_rounds``): round ``j`` hashes
and probes lane ``j`` of only the rows still alive.  Across the batch
sizes where the kernels change form (empty, one, either side of
``mod_int64``'s floor-division cut-over at 1024, a full 4096 batch),
power-of-two and other ``m``, a ``w_bar`` override, and an eager
(BLAKE2b) and a lazy (vector64) lane source, the verdicts and the
``MemoryModel`` totals must equal a scalar ``query`` loop's.  With the
lazy source, a row is mixed only for the lanes it is probed with.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import BloomFilter
from repro.core import CountingShiftingBloomFilter, ShiftingBloomFilter
from repro.hashing import VectorizedFamily, make_family
from tests.conftest import make_elements

BATCH_SIZES = (0, 1, 63, 1023, 1024, 1025, 4096)
MEMBERS = make_elements(5000, "member")
ABSENT = make_elements(4096, "absent")

POW2_M, OTHER_M = 1 << 16, 60013

CONFIGS = [
    pytest.param(ShiftingBloomFilter, {"m": POW2_M}, id="shbf_m-pow2"),
    pytest.param(ShiftingBloomFilter, {"m": OTHER_M}, id="shbf_m-other"),
    pytest.param(ShiftingBloomFilter, {"m": OTHER_M, "w_bar": 20},
                 id="shbf_m-w_bar"),
    pytest.param(CountingShiftingBloomFilter, {"m": POW2_M},
                 id="cshbf_m-pow2"),
    pytest.param(CountingShiftingBloomFilter, {"m": OTHER_M},
                 id="cshbf_m-other"),
    pytest.param(CountingShiftingBloomFilter, {"m": POW2_M, "w_bar": 9},
                 id="cshbf_m-w_bar"),
    pytest.param(BloomFilter, {"m": POW2_M}, id="bf-pow2"),
    pytest.param(BloomFilter, {"m": OTHER_M}, id="bf-other"),
]


def build(cls, params, kind):
    filt = cls(k=8, family=make_family(kind, 3), **params)
    filt.add_batch(MEMBERS)
    return filt


def probes(n):
    """*n* queries, alternately a member and an absent key."""
    rng = np.random.default_rng(n)
    members = rng.integers(0, len(MEMBERS), n)
    return [MEMBERS[members[i]] if i % 2 else ABSENT[i] for i in range(n)]


@pytest.mark.parametrize("kind", ["vector64", "blake2b"])
@pytest.mark.parametrize("cls,params", CONFIGS)
def test_batch_query_matches_scalar_loop(cls, params, kind):
    filt = build(cls, params, kind)
    for n in BATCH_SIZES:
        queries = probes(n)
        before = filt.memory.stats.snapshot()
        verdicts = filt.query_batch(queries)
        batch_bill = filt.memory.stats.diff(before)
        before = filt.memory.stats.snapshot()
        expected = [filt.query(q) for q in queries]
        scalar_bill = filt.memory.stats.diff(before)
        assert verdicts.dtype == bool and verdicts.shape == (n,)
        assert verdicts.tolist() == expected
        assert batch_bill == scalar_bill
        assert verdicts[1::2].all()  # members: no false negatives


@pytest.mark.parametrize("cls,params", CONFIGS)
def test_lazy_lanes_mix_only_the_probed_rows(cls, params, monkeypatch):
    """With vector64, the rows mixed for the position lanes are exactly
    the probes billed; ShBF_M's offset lane adds one mix per row."""
    mixed = []
    lanes_batch = VectorizedFamily.lanes_batch

    def counting_lanes(self, elements, count):
        source = lanes_batch(self, elements, count)
        column = source.column

        def counted(j, rows=None):
            values = column(j, rows)
            mixed.append(len(values))
            return values

        source.column = counted
        return source

    monkeypatch.setattr(VectorizedFamily, "lanes_batch", counting_lanes)
    filt = build(cls, params, "vector64")
    queries = probes(4096)
    before = filt.memory.stats.snapshot()
    filt.query_batch(queries)
    probed = filt.memory.stats.diff(before).read_ops
    if cls is BloomFilter:
        assert sum(mixed) == probed
        assert probed < len(queries) * filt.k
    else:
        assert sum(mixed) == probed + len(queries)
        assert probed < len(queries) * filt.k // 2
