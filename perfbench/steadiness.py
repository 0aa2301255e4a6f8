"""Steadiness report: repeat one workload over several seeds and give
each metric's median and inter-quartile spread.

Usage, from the root of a checkout::

    python3 perfbench/steadiness.py --workload bulk_membership --runs 10

A metric's spread is ``(q3 - q1) / median`` over the runs, with the
quartiles of ``statistics.quantiles(values, n=4)``.  It is compared
with the metric's ``bound`` in ``BENCHMARK.json``: a spread below a
third of the bound is steady.  The exit code is non-zero if any spread
other than ``setup_s``'s exceeds its bound or a run fails.  The report
is also written to ``.perfbench_out/steadiness-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1000)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    values = {m["name"]: [] for m in wanted}
    walls, ok = [], True
    for i in range(args.runs):
        seed = args.seed0 + i
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        walls.append(time.monotonic() - t0)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if proc.returncode or not result.get("correct"):
            ok = False
            print("seed %d FAILED (exit %d)\n%s" % (
                seed, proc.returncode, proc.stderr[-2000:]))
            continue
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print("seed %d: %.1f s" % (seed, walls[-1]), flush=True)

    report = {"workload": args.workload, "runs": args.runs,
              "seconds": args.seconds, "wall_s": walls, "metrics": {}}
    print("%-40s %12s %8s %8s %s" % ("metric", "median", "spread",
                                     "bound", "verdict"))
    for metric in wanted:
        name, vals = metric["name"], values[metric["name"]]
        if len(vals) < 2:
            continue
        med, q1, q3, rel = spread(vals)
        bound = metric.get("bound")
        verdict = ""
        if bound is not None:
            verdict = ("steady" if rel < bound / 3 else
                       "within bound" if rel <= bound else "TOO NOISY")
            if rel > bound and name != "setup_s":
                ok = False
        print("%-40s %12.6g %7.2f%% %7s %s" % (
            name, med, 100 * rel,
            "" if bound is None else "%.0f%%" % (100 * bound), verdict))
        report["metrics"][name] = {"values": vals, "median": med, "q1": q1,
                                   "q3": q3, "spread": rel, "bound": bound}
    os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
    with open(os.path.join(ROOT, ".perfbench_out", "steadiness-%s-trace%d.json"
                           % (args.workload, args.trace)), "w") as handle:
        json.dump(report, handle, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
