"""Self-tests of the benchmark itself.

Usage, from the root of a checkout::

    python3 perfbench/selftest.py

Checks that ``BENCHMARK.json`` and ``provenance.json`` agree with the
code, that span self time never exceeds span duration, that the
correctness gate counts a broken filter's wrong verdicts, that the
served-path session passes its gate (verdicts over the wire
bit-identical to a reference store), that two same-seed runs of every
workload give identical verification-pass metrics and wire bytes, and
that a different seed still passes the gate.  Exits non-zero on any
failure.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import bulk  # noqa: E402
import ledger  # noqa: E402
import served  # noqa: E402
from common import Outcome, run_inprocess  # noqa: E402
from spans import SpanRecorder  # noqa: E402

DETERMINISTIC = ("fpr", "bits_per_key", "mem_reads_per_query",
                 "exact_answer_ratio")
_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
_UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
FAILURES = []


def check(ok: bool, what: str) -> None:
    print("%s  %s" % ("ok  " if ok else "FAIL", what), flush=True)
    if not ok:
        FAILURES.append(what)


def test_spec() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    with open(os.path.join(HERE, "provenance.json")) as handle:
        prov = json.load(handle)
    check(set(spec) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    names = [w["name"] for w in spec["workloads"]]
    check(names == list(ledger.WORKLOADS) == list(prov["workloads"]),
          "workloads agree across BENCHMARK.json, ledger and provenance")
    check(all(len(w["why"]) <= 200 and "\n" not in w["why"]
              for w in spec["workloads"]), "workload reasons are one line")
    metrics = spec["end_to_end"] + spec["per_layer"]
    all_names = names + [m["name"] for m in metrics]
    check(len(set(all_names)) == len(all_names)
          and all(_NAME.match(n) for n in all_names), "names well formed")
    check(all(_UNIT.match(m["unit"]) for m in metrics), "units well formed")
    check(all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"]),
          "bounds within (0, 0.25]")
    check(any(m["name"] == "setup_s" and m["unit"] == "s"
              and m["better"] == "lower" for m in spec["end_to_end"]),
          "setup_s present")
    check(set(prov["end_to_end"]) == {m["name"] for m in spec["end_to_end"]},
          "provenance explains every end-to-end metric")
    check(set(prov["per_layer_moves"])
          == {m["name"] for m in spec["per_layer"]},
          "provenance maps every per-layer metric to what it moves")


def test_self_time() -> None:
    recorder = SpanRecorder()
    with recorder.span("outer"):
        with recorder.span("child"):
            time.sleep(0.002)
        with recorder.span("child"):
            with recorder.span("grandchild"):
                time.sleep(0.001)
    probe = bulk.ledger(5, 3.0, False, Outcome())["recorder"]
    for rec, label in ((recorder, "synthetic"), (probe, "bulk probe")):
        selfs = rec.self_times()
        check(all(0.0 <= s <= span[4] - span[3] + 1e-12
                  for s, span in zip(selfs, rec.spans)),
              "self time within [0, duration] (%s spans)" % label)
    outer = recorder.spans[0]
    covered = sum(s[4] - s[3] for s in recorder.spans if s[1] == 0)
    check(abs(recorder.self_times()[0] - (outer[4] - outer[3] - covered))
          < 1e-9, "self time = duration minus children")


def test_gate_catches_wrong_verdicts() -> None:
    import numpy as np

    inputs = bulk.Inputs(6, bulk.PROBE_PARAMS)
    filt = bulk.build(bulk.PROBE_PARAMS, inputs.preload)
    filt.query_batch = lambda keys: np.zeros(len(keys), dtype=bool)
    outcome = Outcome()
    run_inprocess(bulk.op_sequence(inputs, filt), 0.2, outcome)
    check(outcome.failed > 0 and outcome.violations,
          "a filter answering False everywhere fails the gate")


def test_served_gate() -> None:
    outcome = Outcome()
    part = served.ledger(8, 6.0, False, outcome)
    check(not outcome.violations and not outcome.failures
          and part["detail"]["verification"]["fpr"] > 0,
          "served path: wire verdicts match the reference store")


def test_wire_bytes_repeat() -> None:
    first = served.wire_bytes_per_elem(served.Inputs(7, served.PROBE_PARAMS))
    again = served.wire_bytes_per_elem(served.Inputs(7, served.PROBE_PARAMS))
    check(first == again, "service.protocol.wire_bytes_per_elem repeats "
          "for a seed (%r)" % first)


def run_once(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "4", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    result["exit"] = proc.returncode
    return result


def test_runs() -> None:
    for workload in ledger.WORKLOADS:
        first, second = run_once(workload, 11), run_once(workload, 11)
        other = run_once(workload, 12)
        same = all(first["metrics"][m]["value"]
                   == second["metrics"][m]["value"] for m in DETERMINISTIC)
        check(same, "%s: same seed gives identical %s"
              % (workload, ", ".join(DETERMINISTIC)))
        check(other["exit"] == 0 and other["correct"]
              and other["failed"] == 0,
              "%s: another seed passes the correctness gate" % workload)


def main() -> int:
    test_spec()
    test_self_time()
    test_gate_catches_wrong_verdicts()
    test_served_gate()
    test_wire_bytes_repeat()
    test_runs()
    print("%d failure(s)" % len(FAILURES))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
