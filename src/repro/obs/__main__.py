"""Command-line telemetry tools for a live service.

Three subcommands::

    python -m repro.obs scrape --port 4000 [--json] [--output FILE]
    python -m repro.obs tail --log node.log [--trace HEX | --last]
    python -m repro.obs top --port 4000 --rounds 3 --interval 1.0

``scrape`` issues one METRICS wire op and prints (or writes) the
Prometheus text exposition — or the JSON snapshot with ``--json``, the
mergeable form :meth:`repro.obs.MetricsRegistry.merge_dict` accepts.
``tail`` reads JSON span lines out of a log file (non-JSON lines are
skipped, so a node's whole stdout log works) and renders one trace as
an indented path; without ``--trace`` it lists the traces it found.
``top`` scrapes twice per round and prints the fastest-moving counters
as per-second rates plus the key latency percentiles — a poor man's
``htop`` for the serving stack.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys

from repro.cli import add_endpoint_args, add_timeout_args, connect, run
from repro.errors import ReproError
from repro.obs.tracing import (
    load_span_records,
    parse_trace_id,
    render_trace,
)


async def _fetch(args: argparse.Namespace, fmt: str):
    client = await connect(args)
    try:
        return await client.metrics(fmt)
    finally:
        await client.close()


async def _scrape(args: argparse.Namespace) -> int:
    if args.json:
        text = json.dumps(await _fetch(args, "json"), sort_keys=True,
                          indent=2) + "\n"
    else:
        text = await _fetch(args, "text")
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print("wrote %d bytes to %s" % (len(text), args.output))
    else:
        sys.stdout.write(text)
    return 0


def _tail(args: argparse.Namespace) -> int:
    if args.log == "-":
        lines = sys.stdin.readlines()
    else:
        with open(args.log) as handle:
            lines = handle.readlines()
    records = load_span_records(lines)
    if not records:
        print("no span records in %s" % args.log, file=sys.stderr)
        return 1
    if args.trace:
        print(render_trace(records, parse_trace_id(args.trace)))
        return 0
    # Traces in first-seen order; --last renders the newest one fully.
    order = []
    for record in records:
        if record["trace"] not in order:
            order.append(record["trace"])
    if args.last:
        print(render_trace(records, parse_trace_id(order[-1])))
        return 0
    for trace in order:
        spans = [r for r in records if r["trace"] == trace]
        print("%s  %3d spans  %s" % (
            trace, len(spans),
            " -> ".join(sorted({r["span"] for r in spans}))))
    print("(%d traces; re-run with --trace HEX or --last for the path)"
          % len(order))
    return 0


def _counter_rates(before: dict, after: dict, dt: float) -> list:
    def table(snapshot):
        return {
            (e["name"], tuple(sorted(e["labels"].items()))): e["value"]
            for e in snapshot["metrics"] if e["type"] == "counter"}
    old, new = table(before), table(after)
    rates = []
    for key, value in new.items():
        delta = value - old.get(key, 0)
        if delta > 0:
            name, labels = key
            label_text = ",".join("%s=%s" % kv for kv in labels)
            rates.append((delta / dt, name, label_text))
    rates.sort(reverse=True)
    return rates


async def _top(args: argparse.Namespace) -> int:
    for round_no in range(args.rounds):
        before = await _fetch(args, "json")
        await asyncio.sleep(args.interval)
        after = await _fetch(args, "json")
        print("== %s:%d  round %d/%d (%.1fs window) =="
              % (args.host, args.port, round_no + 1, args.rounds,
                 args.interval))
        rates = _counter_rates(before, after, args.interval)
        if not rates:
            print("  (no counter movement)")
        for rate, name, labels in rates[:args.limit]:
            print("  %10.1f/s  %s%s"
                  % (rate, name, ("{%s}" % labels) if labels else ""))
        for entry in after["metrics"]:
            if entry["type"] == "histogram" and entry["count"]:
                labels = ",".join(
                    "%s=%s" % kv for kv in sorted(entry["labels"].items()))
                print("  %-42s n=%-8d p50=%.6f p99=%.6f max=%.6f"
                      % ("%s{%s}" % (entry["name"], labels),
                         entry["count"], entry["p50"], entry["p99"],
                         entry["max"]))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    scrape = sub.add_parser(
        "scrape", help="fetch one METRICS exposition from a server")
    add_endpoint_args(scrape)
    add_timeout_args(scrape)
    scrape.add_argument("--json", action="store_true",
                        help="fetch the JSON snapshot instead of the "
                             "Prometheus text format")
    scrape.add_argument("--output", default="",
                        help="write the exposition to this file instead "
                             "of stdout")

    tail = sub.add_parser(
        "tail", help="reconstruct traces from JSON span logs")
    tail.add_argument("--log", default="-",
                      help="span log file ('-' reads stdin); non-JSON "
                           "lines are skipped")
    tail.add_argument("--trace", default="",
                      help="render this trace id (hex) as a path")
    tail.add_argument("--last", action="store_true",
                      help="render the most recent trace in the log")

    top = sub.add_parser(
        "top", help="live counter rates and latency percentiles")
    add_endpoint_args(top)
    add_timeout_args(top)
    top.add_argument("--interval", type=float, default=1.0,
                     help="seconds between the two scrapes of a round")
    top.add_argument("--rounds", type=int, default=1)
    top.add_argument("--limit", type=int, default=12,
                     help="counters shown per round")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run(args, {"scrape": _scrape, "tail": _tail, "top": _top})
    except BrokenPipeError:  # stdout consumer (head, less) went away
        return 0
    except (ConnectionError, OSError, ReproError) as exc:
        print("repro.obs %s failed: %s" % (args.command, exc),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
