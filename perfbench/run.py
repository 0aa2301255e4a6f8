"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload bulk_membership --seed 1 \
        --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics (tracing off);
``--trace 1`` makes the traced run that gives the per-layer ledger.
Every metric is printed by name with its unit; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is non-zero on any wrong
verdict.  Per-run details (latency sample counts, reference-loop
times, STATS deltas, spans) go under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("perfbench: no program sources at %s; run from the root of "
              "a full checkout" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    # A SIGTERM unwinds like an exception, so the server child is
    # stopped and waited for by the workload's own clean-up.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print("perfbench: unknown workload %r (have %s)"
              % (args.workload, ", ".join(names)), file=sys.stderr)
        return 2

    import ledger
    outcome = ledger.run(args.workload, args.seed, args.seconds,
                         traced=bool(args.trace))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in outcome.metrics]
    if missing:
        raise RuntimeError("workload did not measure %s" % missing)
    metrics = {m["name"]: {"value": float(outcome.metrics[m["name"]]),
                           "unit": m["unit"]} for m in wanted}
    for name, entry in metrics.items():
        print("%-44s %14.6g %s" % (name, entry["value"], entry["unit"]))
    for violation in outcome.violations:
        print("WRONG: %s" % violation)
    correct = not outcome.violations
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
