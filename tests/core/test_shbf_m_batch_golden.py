"""Golden pins for the ShBF_M / CShBF_M batch write and query paths.

The batch kernels are rewritten for speed from time to time; each
rewrite must leave filter bytes, verdicts and logical access totals
bit-identical.  These goldens were recorded from the reference
implementation (stacked ``(n*k/2, 2)`` offset writes, ``(n, 32)``
zero-padded hash ingest) and cover:

* uniform-width byte keys (the hash ingest's dense branch), 13 bytes
  wide (a partial last word) and 16 bytes wide (whole words);
* mixed-width keys of mixed types (the general ingest branch);
* the default BLAKE2b family (exercises the write kernels alone);
* an offset policy for 64-bit words billed against a 32-bit memory
  model, where a pair may straddle two words.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.bitarray.memory import MemoryModel
from repro.core import CountingShiftingBloomFilter, ShiftingBloomFilter
from repro.hashing.family import make_family


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _stats(memory) -> tuple:
    s = memory.stats
    return (s.read_ops, s.read_words, s.write_ops, s.write_words)


def _keys(kind: str, start: int, count: int) -> list:
    ids = range(start, start + count)
    if kind == "flow13":
        return [b"flow-%08d" % i for i in ids]
    if kind == "word16":
        return [i.to_bytes(16, "little") for i in ids]
    if kind == "mixed":
        return [("k%d" % i) if i % 3 == 0 else
                (b"b%d" % i if i % 3 == 1 else i * 7919) for i in ids]
    raise AssertionError(kind)


def _drive(filt, kind: str):
    """Two add batches, then one query batch of members and absentees."""
    filt.add_batch(_keys(kind, 0, 1200))
    filt.add_batch(_keys(kind, 1200, 800))
    probe = _keys(kind, 1000, 2000)  # half members, half absent
    return filt.query_batch(probe)


# (kind, family, bits sha, verdicts sha, positives, bit-array stats)
SHBF_M_GOLDEN = [
    ("flow13", "vector64", "35b67e62beb4d744", "eadd494e10c242a9", 1029,
     (5657, 5657, 8000, 8000)),
    ("flow13", "blake2b", "b0a326dbddf2132e", "eec7dccd9fd76251", 1023,
     (5569, 5569, 8000, 8000)),
    ("word16", "vector64", "2bd3ebd087f012b3", "637c2e7ebbed6ffe", 1027,
     (5574, 5574, 8000, 8000)),
    ("word16", "blake2b", "6e35747ed5a2bffe", "f0a0949d285f9f8d", 1020,
     (5593, 5593, 8000, 8000)),
    ("mixed", "vector64", "ddfa9f259041bf39", "92ef509e93a0596b", 1027,
     (5649, 5649, 8000, 8000)),
    ("mixed", "blake2b", "cb39a4c18efca6d0", "6cdb1e36f8394f6d", 1030,
     (5665, 5665, 8000, 8000)),
]


@pytest.mark.parametrize(
    "kind,family,bits_sha,verdicts_sha,positives,stats", SHBF_M_GOLDEN)
def test_shbf_m_batch_golden(kind, family, bits_sha, verdicts_sha,
                             positives, stats):
    filt = ShiftingBloomFilter(m=1 << 14, k=8,
                               family=make_family(family, seed=0))
    verdicts = _drive(filt, kind)
    assert (_sha(filt.bits.to_bytes()), _sha(verdicts.tobytes()),
            int(verdicts.sum()), _stats(filt.memory)) == (
        bits_sha, verdicts_sha, positives, stats)


# (kind, bits sha, counters sha, verdicts sha, sram stats, dram stats)
CSHBF_M_GOLDEN = [
    ("flow13", "c5ec03bc19795a64", "d56e46fe1ca4f2d9", "67e9822e75c3707f",
     (5672, 5672, 8000, 8000), (0, 0, 8000, 8000)),
    ("mixed", "83160a85b1360783", "65e9eaeffa134ea9", "f0230df98ad85efc",
     (5612, 5612, 8000, 8000), (0, 0, 8000, 8000)),
]


@pytest.mark.parametrize(
    "kind,bits_sha,counters_sha,verdicts_sha,sram,dram", CSHBF_M_GOLDEN)
def test_cshbf_m_batch_golden(kind, bits_sha, counters_sha, verdicts_sha,
                              sram, dram):
    filt = CountingShiftingBloomFilter(
        m=1 << 14, k=8, family=make_family("vector64", seed=0))
    verdicts = _drive(filt, kind)
    counters = np.array(filt.counters.to_list(), dtype=np.uint8)
    assert (_sha(filt.bits.to_bytes()), _sha(counters.tobytes()),
            _sha(verdicts.tobytes()), _stats(filt.memory),
            _stats(filt.counters.memory)) == (
        bits_sha, counters_sha, verdicts_sha, sram, dram)
    assert filt.check_synchronised()


def test_wide_policy_over_narrow_memory_model_golden():
    """A 64-bit offset policy billed against 32-bit words: a pair whose
    span crosses a 32-bit boundary costs two write words."""
    filt = ShiftingBloomFilter(
        m=1 << 14, k=8, family=make_family("vector64", seed=0),
        word_bits=64, memory=MemoryModel(word_bits=32))
    filt.add_batch(["x%d" % i for i in range(500)])
    assert _stats(filt.memory) == (0, 0, 2000, 3004)
    assert _sha(filt.bits.to_bytes()) == "d4decd4bd310cb14"
    verdicts = filt.query_batch(["x%d" % i for i in range(250, 750)])
    assert int(verdicts[:250].sum()) == 250
    assert (_sha(verdicts.tobytes()), _stats(filt.memory)) == (
        "e14453447784e703", (1263, 1891, 2000, 3004))
