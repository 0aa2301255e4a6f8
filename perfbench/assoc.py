"""``assoc_multiplicity``: the paper's association and multiplicity
queries, in-process.

ShBF_A is built with ``build_batch`` over two overlapping sets and
queried at batch 4096 over S1-only, S2-only, intersection and absent
keys.  ShBF_x is fed bounded-Zipf counts (c_max 57) with
``add_batch(counts)`` and queried over members and absent keys.  Both
kernels are bypassed by the other two workloads.

The timed phase cycles a fixed sequence: rebuild ShBF_A from the two
sets, re-encode a fresh ShBF_x chunk by chunk, then query both.  Every
rebuilt filter must be byte-identical to the one built in set-up.
"""

from __future__ import annotations

import resource

import numpy as np

from common import (SETUP_REPEATS, Outcome, chunks, flow_keys, median,
                    run_inprocess, timed_setup)
from spans import SpanRecorder

PARAMS = {
    "association": {"structure": "ShiftingAssociationFilter", "k": 8,
                    "n1": 40_000, "n2": 40_000, "n_intersection": 10_000,
                    "sizing": "optimal m = (n1 + n2 - n3) k / ln 2"},
    "multiplicity": {"structure": "ShiftingMultiplicityFilter", "k": 8,
                     "n_distinct": 50_000, "c_max": 57, "zipf_skew": 1.0,
                     "sizing": "m = n k / ln 2"},
    "family": "vector64", "batch": 4096, "absent_probes": 100_000,
    "query_batches": 8,
}
PROBE_PARAMS = dict(
    PARAMS, absent_probes=16_384, query_batches=2,
    association=dict(PARAMS["association"], n1=8_000, n2=8_000,
                     n_intersection=2_000),
    multiplicity=dict(PARAMS["multiplicity"], n_distinct=8_000))


class Inputs:
    """Both key sets, counts and probe batches, made before any clock."""

    def __init__(self, seed: int, p: dict):
        from repro.core.association_types import Association
        from repro.traces.zipf import bounded_zipf_counts

        self.p = p
        a, x = p["association"], p["multiplicity"]
        n_s1_only = a["n1"] - a["n_intersection"]
        n_s2_only = a["n2"] - a["n_intersection"]
        n_a = n_s1_only + a["n_intersection"] + n_s2_only
        keys = flow_keys(seed, 0, n_a + x["n_distinct"] + p["absent_probes"])
        self.s1_only = keys[:n_s1_only]
        self.both = keys[n_s1_only:n_s1_only + a["n_intersection"]]
        self.s2_only = keys[n_s1_only + a["n_intersection"]:n_a]
        self.s1 = self.s1_only + self.both
        self.s2 = self.both + self.s2_only
        self.x_keys = keys[n_a:n_a + x["n_distinct"]]
        counts = bounded_zipf_counts(self.x_keys, c_max=x["c_max"],
                                     skew=x["zipf_skew"], seed=seed)
        self.x_counts = [counts[key] for key in self.x_keys]
        self.absent = keys[n_a + x["n_distinct"]:]
        self.truth = {}
        for region, elems in ((Association.S1_ONLY, self.s1_only),
                              (Association.BOTH, self.both),
                              (Association.S2_ONLY, self.s2_only)):
            self.truth.update(dict.fromkeys(elems, region))
        rng = np.random.default_rng([seed, 2])
        quarter, half = p["batch"] // 4, p["batch"] // 2

        def pick(pool, n):
            return [pool[i] for i in rng.integers(0, len(pool), n)]

        self.a_batches = [
            pick(self.s1_only, quarter) + pick(self.s2_only, quarter)
            + pick(self.both, quarter) + pick(self.absent, quarter)
            for _ in range(p["query_batches"])]
        self.x_batches = []
        for _ in range(p["query_batches"]):
            idx = rng.integers(0, len(self.x_keys), half)
            self.x_batches.append(
                ([self.x_keys[i] for i in idx] + pick(self.absent, half),
                 np.array([self.x_counts[i] for i in idx]
                          + [0] * half)))
        self.x_chunks = list(zip(chunks(self.x_keys, p["batch"]),
                                 chunks(self.x_counts, p["batch"])))


def build_association(p: dict, inputs: Inputs):
    from repro.core.association import ShiftingAssociationFilter
    from repro.hashing.family import make_family

    a = p["association"]
    m = ShiftingAssociationFilter.optimal_m(a["n1"], a["n2"],
                                            a["n_intersection"], a["k"])
    filt = ShiftingAssociationFilter(
        m=m, k=a["k"], family=make_family(p["family"], seed=0))
    filt.build_batch(inputs.s1, inputs.s2)
    return filt


def new_multiplicity(p: dict):
    from repro.core.multiplicity import ShiftingMultiplicityFilter
    from repro.hashing.family import make_family

    x = p["multiplicity"]
    m = int(np.ceil(x["n_distinct"] * x["k"] / np.log(2)))
    return ShiftingMultiplicityFilter(
        m=m, k=x["k"], c_max=x["c_max"],
        family=make_family(p["family"], seed=0))


def build_multiplicity(p: dict, inputs: Inputs):
    filt = new_multiplicity(p)
    for keys, counts in inputs.x_chunks:
        filt.add_batch(keys, counts)
    return filt


def op_sequence(inputs: Inputs, assoc, mult):
    """One cycle: rebuild ShBF_A, re-encode ShBF_x, query both."""
    p = inputs.p
    a_ref, x_ref = assoc.bits.to_bytes(), mult.bits.to_bytes()
    state = {}

    def rebuild_a(_):
        state["a"] = build_association(p, inputs)

    def add_x(i):
        if i == 0:
            state["x"] = new_multiplicity(p)
        keys, counts = inputs.x_chunks[i]
        state["x"].add_batch(keys, counts)

    def differs(ref, key):
        return lambda _: int(state[key].bits.to_bytes() != ref)

    def region_misses(batch):
        truth = [inputs.truth.get(e) for e in batch]

        def check(answers):
            return sum(1 for t, ans in zip(truth, answers)
                       if t is not None and t not in ans.candidates)
        return check

    def undercounts(truth):
        return lambda reported: int((reported < truth).sum())

    n_a = len(set(inputs.s1) | set(inputs.s2))
    last = len(inputs.x_chunks) - 1
    ops = [("add.a", rebuild_a, None, n_a, differs(a_ref, "a"))]
    for i, (keys, _) in enumerate(inputs.x_chunks):
        ops.append(("add.x", add_x, i, len(keys),
                    differs(x_ref, "x") if i == last else None))
    for a_batch, (x_batch, truth) in zip(inputs.a_batches,
                                         inputs.x_batches):
        ops.append(("query.a", assoc.query_batch, a_batch, len(a_batch),
                    region_misses(a_batch)))
        ops.append(("query.x", mult.query_batch, x_batch, len(x_batch),
                    undercounts(truth)))
    return ops


def verify(inputs: Inputs, assoc, mult, outcome: Outcome) -> dict:
    """Score every member and the absent probes against ground truth."""
    stats = {}
    a_members = inputs.s1_only + inputs.both + inputs.s2_only
    before = assoc.memory.stats.snapshot()
    answers = []
    for batch in chunks(a_members + inputs.absent, 65536):
        answers.extend(assoc.query_batch(batch))
    a_reads = assoc.memory.stats.diff(before).read_words
    n_mem = len(a_members)
    wrong = clear = 0
    for key, ans in zip(a_members, answers[:n_mem]):
        truth = inputs.truth[key]
        if truth not in ans.candidates:
            wrong += 1
        elif ans.clear and ans.candidates == {truth}:
            clear += 1
    a_fp = sum(1 for ans in answers[n_mem:] if ans.candidates)
    outcome.violation(wrong, "association answer excluding the true region")

    before = mult.memory.stats.snapshot()
    reported = np.concatenate([
        mult.query_batch(batch)
        for batch in chunks(inputs.x_keys + inputs.absent, 65536)])
    x_reads = mult.memory.stats.diff(before).read_words
    truth = np.array(inputs.x_counts)
    n_x = len(inputs.x_keys)
    outcome.violation(int((reported[:n_x] < truth).sum()),
                      "multiplicity undercount")
    exact_x = int((reported[:n_x] == truth).sum())
    x_fp = int((reported[n_x:] > 0).sum())

    n_abs = len(inputs.absent)
    queries = n_mem + n_x + 2 * n_abs
    outcome.attempted += queries
    stats["core.shbf_a.clear_answer_ratio"] = clear / n_mem
    stats["core.shbf_x.exact_count_ratio"] = exact_x / n_x
    outcome.metrics.update({
        "fpr": (a_fp + x_fp) / (2 * n_abs),
        "exact_answer_ratio": (clear + exact_x + 2 * n_abs - a_fp - x_fp)
        / queries,
        "mem_reads_per_query": (a_reads + x_reads) / queries,
        "bits_per_key": (assoc.size_bits + mult.size_bits) / (n_mem + n_x),
    })
    return stats


def setup(inputs: Inputs):
    return (build_association(inputs.p, inputs),
            build_multiplicity(inputs.p, inputs))


def run(seed: int, seconds: float) -> Outcome:
    outcome = Outcome()
    inputs = Inputs(seed, PARAMS)
    setups = []
    for repeat in range(SETUP_REPEATS + 1):
        (assoc, mult), took = timed_setup(lambda: setup(inputs))
        if repeat:  # the first set-up is a discarded warm-up
            setups.append(took)
    events, windows = run_inprocess(op_sequence(inputs, assoc, mult),
                                    seconds, outcome)
    outcome.timing(events, windows, 0, per_busy=True)
    verify(inputs, assoc, mult, outcome)
    outcome.metrics["setup_s"] = median(setups)
    outcome.metrics["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    outcome.detail.update(params=PARAMS, setup_samples=setups)
    return outcome


def ledger(seed: int, seconds: float, full: bool, outcome: Outcome) -> dict:
    """Per-layer figures for the ShBF_A and ShBF_x kernels."""
    from repro.core.association import ShiftingAssociationFilter
    from repro.core.multiplicity import ShiftingMultiplicityFilter

    p = PARAMS if full else PROBE_PARAMS
    inputs = Inputs(seed, p)
    assoc, mult = setup(inputs)
    recorder = SpanRecorder()
    targets = [
        (ShiftingAssociationFilter, "build_batch", "core.shbf_a.build_batch",
         lambda args, kw: len(set(args[0]) | set(args[1]))),
        (ShiftingAssociationFilter, "query_batch", "core.shbf_a.query_batch"),
        (ShiftingMultiplicityFilter, "add_batch", "core.shbf_x.add_batch"),
        (ShiftingMultiplicityFilter, "query_batch", "core.shbf_x.query_batch"),
    ]
    with recorder.patched(targets):
        _, windows = run_inprocess(op_sequence(inputs, assoc, mult),
                                   seconds, outcome)
    ratios = verify(inputs, assoc, mult, outcome)
    table = recorder.summary()
    metrics = {name + "_ns_per_elem": recorder.ns_per_elem(name, table)
               for _, _, name, *_ in targets}
    metrics.update(ratios)
    metrics["env.ref_loop_ms"] = median(windows.ref_ms)
    return {"metrics": metrics, "recorder": recorder, "params": p}
