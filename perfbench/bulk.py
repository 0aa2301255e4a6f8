"""``bulk_membership``: one large ShBF_M driven in-process.

Batch-4096 ``add_batch``/``query_batch`` calls, one add per four
queries, half the probes absent.  The bit array (2^25 bits = 4 MiB) is
twice a core's 2 MiB L2, so ``hashing``, ``core`` and ``bitarray`` do
almost all the work and ``store``/``service.*`` are bypassed.
"""

from __future__ import annotations

import resource

import numpy as np

from common import (SETUP_REPEATS, Outcome, chunks, flow_keys, interleave,
                    median, run_inprocess, timed_setup)
from spans import SpanRecorder

PARAMS = {
    "structure": "ShiftingBloomFilter", "m_bits": 1 << 25, "k": 8,
    "family": "vector64", "batch": 4096, "preload": 1_500_000,
    "add_pool": 500_000, "absent_probes": 2_000_000,
    "query_batches": 64, "adds_per_query": 0.25,
}
#: Sizes for the short probe other workloads' traced runs make.
PROBE_PARAMS = dict(PARAMS, m_bits=1 << 21, preload=96_000,
                    add_pool=32_000, absent_probes=128_000,
                    query_batches=8)


class Inputs:
    """All keys of one run, generated before any clock starts."""

    def __init__(self, seed: int, p: dict):
        self.p = p
        n_pre, n_pool, n_abs = p["preload"], p["add_pool"], p["absent_probes"]
        self.preload = flow_keys(seed, 0, n_pre)
        self.pool = flow_keys(seed, n_pre, n_pool)
        self.absent = flow_keys(seed, n_pre + n_pool, n_abs)
        rng = np.random.default_rng([seed, 1])
        half = p["batch"] // 2
        self.query_batches = []
        for q in range(p["query_batches"]):
            members = [self.preload[i] for i in
                       rng.integers(0, n_pre, half)]
            absent = [self.absent[i] for i in rng.integers(0, n_abs, half)]
            self.query_batches.append(interleave(seed + q, members, absent))
        self.add_batches = chunks(self.pool, p["batch"])


def build(p: dict, keys):
    from repro.core.membership import ShiftingBloomFilter
    from repro.hashing.family import make_family

    filt = ShiftingBloomFilter(m=p["m_bits"], k=p["k"],
                               family=make_family(p["family"], seed=0))
    for batch in chunks(keys, p["batch"]):
        filt.add_batch(batch)
    return filt


def op_sequence(inputs: Inputs, filt):
    """The fixed cycle: each pool batch is added once, and every add is
    followed by four query batches."""
    def member_misses(mask):
        return lambda verdicts: int((~verdicts[mask]).sum())

    ops = []
    per_add = round(1 / inputs.p["adds_per_query"])
    queries = inputs.query_batches
    for j, batch in enumerate(inputs.add_batches):
        ops.append(("add", filt.add_batch, batch, len(batch), None))
        for q in range(j * per_add, (j + 1) * per_add):
            keys, mask = queries[q % len(queries)]
            ops.append(("query", filt.query_batch, keys, len(keys),
                        member_misses(mask)))
    return ops


def verify(inputs: Inputs, filt, outcome: Outcome) -> None:
    """Final-state pass: every key added, then members and absent keys."""
    for batch in inputs.add_batches:  # idempotent: completes the cycle
        filt.add_batch(batch)
    before = filt.memory.stats.snapshot()
    misses = positives = 0
    for batch in chunks(inputs.preload + inputs.pool, 65536):
        misses += int((~filt.query_batch(batch)).sum())
    for batch in chunks(inputs.absent, 65536):
        positives += int(filt.query_batch(batch).sum())
    reads = filt.memory.stats.diff(before)
    members = len(inputs.preload) + len(inputs.pool)
    queries = members + len(inputs.absent)
    outcome.attempted += queries
    outcome.violation(misses, "false negative")
    outcome.metrics.update({
        "fpr": positives / len(inputs.absent),
        "exact_answer_ratio": (queries - positives - misses) / queries,
        "mem_reads_per_query": reads.read_words / queries,
        "bits_per_key": filt.size_bits / members,
    })


def run(seed: int, seconds: float) -> Outcome:
    outcome = Outcome()
    inputs = Inputs(seed, PARAMS)
    setups = []
    for repeat in range(SETUP_REPEATS + 1):
        filt, took = timed_setup(lambda: build(PARAMS, inputs.preload))
        if repeat:  # the first set-up is a discarded warm-up
            setups.append(took)
    outcome.attempted += len(inputs.preload)
    events, windows = run_inprocess(op_sequence(inputs, filt), seconds,
                                    outcome)
    outcome.timing(events, windows, 0, per_busy=True)
    verify(inputs, filt, outcome)
    outcome.metrics["setup_s"] = median(setups)
    outcome.metrics["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    outcome.detail.update(params=PARAMS, setup_samples=setups)
    return outcome


def ledger(seed: int, seconds: float, full: bool, outcome: Outcome) -> dict:
    """Per-layer figures for ``hashing``, ``core`` and ``bitarray``.

    Replays this workload's operation cycle with spans around each
    layer's public function, then queries a same-m/k/family standard
    Bloom filter beside it on the same probes (the paper's baseline).
    """
    from repro.baselines.bloom import BloomFilter
    from repro.bitarray.bitarray import BitArray
    from repro.bitarray.memory import MemoryModel
    from repro.core.membership import ShiftingBloomFilter
    from repro.hashing.family import make_family
    from repro.hashing.vectorized import VectorizedFamily

    p = PARAMS if full else PROBE_PARAMS
    inputs = Inputs(seed, p)
    filt = build(p, inputs.preload)
    recorder = SpanRecorder()
    targets = [
        (ShiftingBloomFilter, "add_batch", "core.shbf_m.add_batch"),
        (ShiftingBloomFilter, "query_batch", "core.shbf_m.query_batch"),
        (VectorizedFamily, "values_batch", "hashing.values_batch"),
        (BitArray, "test_pairs_batch", "bitarray.test_pairs_batch"),
        (MemoryModel, "read_cost_batch", "bitarray.read_cost_batch"),
    ]
    with recorder.patched(targets):
        _, windows = run_inprocess(op_sequence(inputs, filt), seconds,
                                   outcome)
    for batch in inputs.add_batches:
        filt.add_batch(batch)
    bf = BloomFilter(m=p["m_bits"], k=p["k"],
                     family=make_family(p["family"], seed=0))
    for batch in chunks(inputs.preload + inputs.pool, p["batch"]):
        bf.add_batch(batch)
    probes = [keys for keys, _ in inputs.query_batches]
    counts = {}
    with recorder.patched([(BloomFilter, "query_batch",
                            "core.bf.query_batch")]):
        for name, structure in (("bf", bf), ("shbf_m", filt)):
            before = structure.memory.stats.snapshot()
            for batch in probes:
                structure.query_batch(batch)
            counts[name] = structure.memory.stats.diff(before).read_words
    n_probe = sum(len(b) for b in probes)
    table = recorder.summary()
    return {
        "metrics": {
            "hashing.values_batch_ns_per_elem":
                recorder.ns_per_elem("hashing.values_batch", table),
            "core.shbf_m.query_batch_ns_per_elem":
                recorder.ns_per_elem("core.shbf_m.query_batch", table),
            "core.shbf_m.add_batch_ns_per_elem":
                recorder.ns_per_elem("core.shbf_m.add_batch", table),
            "bitarray.test_pairs_batch_ns_per_elem":
                recorder.ns_per_elem("bitarray.test_pairs_batch", table),
            "bitarray.read_cost_batch_ns_per_elem":
                recorder.ns_per_elem("bitarray.read_cost_batch", table),
            "core.bf.query_batch_ns_per_elem":
                recorder.ns_per_elem("core.bf.query_batch", table),
            "core.bf.reads_per_query": counts["bf"] / n_probe,
            "core.shbf_m.reads_per_query": counts["shbf_m"] / n_probe,
            "env.ref_loop_ms": median(windows.ref_ms),
        },
        "recorder": recorder,
        "params": p,
    }
