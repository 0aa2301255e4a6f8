"""Dispatch one run: the untraced end-to-end measurement, or the traced
run that produces the per-layer ledger.

A traced run reports every per-layer metric.  The workload's own
ledger measures ``hashing``, ``core`` and ``bitarray`` on its own
inputs; the other workload's ledger runs as a short probe at small
sizes; and the served-path session (``served.py``: a real server, the
closed-loop load client, the span join and the in-process replay through
``store``) runs at full size for ``SERVED_SECONDS``.  The side file's
``source`` says where each figure came from.  End-to-end numbers never
come from a traced run.
"""

from __future__ import annotations

import assoc
import bulk
import served
from common import Outcome, out_path, write_side_file

#: End-to-end workloads, by the name ``BENCHMARK.json`` gives them.
WORKLOADS = {
    "bulk_membership": bulk,
    "assoc_multiplicity": assoc,
}
PROBE_SECONDS = 6.0
SERVED_SECONDS = 12.0


def run(workload: str, seed: int, seconds: float, traced: bool) -> Outcome:
    tag = "%s-seed%d-trace%d" % (workload, seed, int(traced))
    if not traced:
        outcome = WORKLOADS[workload].run(seed, seconds)
        outcome.metrics["op_success_ratio"] = 1.0 - outcome.error_ratio
        outcome.detail["failures"] = outcome.failures
        outcome.detail["violations"] = outcome.violations
        write_side_file(tag + ".json", {"metrics": outcome.metrics,
                                        "detail": outcome.detail})
        return outcome

    outcome = Outcome()
    source, parts = {}, {}
    # The probe first, the workload itself last: its own figures win.
    plan = [(name, module, PROBE_SECONDS, False)
            for name, module in WORKLOADS.items() if name != workload]
    plan += [("served_path", served, SERVED_SECONDS, True),
             (workload, WORKLOADS[workload], seconds, True)]
    for name, module, length, full in plan:
        part = module.ledger(seed, length, full, outcome)
        parts[name] = part
        for metric, value in part["metrics"].items():
            outcome.metrics[metric] = value
            source[metric] = name if full else name + " (probe)"
        part["recorder"].dump(out_path("%s-%s-spans.jsonl" % (tag, name)))
    write_side_file(tag + ".json", {
        "metrics": outcome.metrics, "source": source,
        "params": {name: part["params"] for name, part in parts.items()},
        "detail": {name: part.get("detail", {})
                   for name, part in parts.items()},
        "spans": {name: part["recorder"].summary()
                  for name, part in parts.items()},
        "violations": outcome.violations, "failures": outcome.failures})
    return outcome
