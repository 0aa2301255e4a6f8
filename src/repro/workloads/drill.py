"""One drill harness: driver, oracle, contract checker and bench main.

Every serving drill checks ShBF_M's membership verdict contract (§3 of
the paper): no false negatives, and false positives that match bit for
bit a replay with the same hash family and geometry.  A drill is a
scenario — a fleet builder plus a fault or event script — on top of
four shared parts:

* :func:`drive` runs ``(kind, batch)`` ops through any clients that
  have ``add``/``query``, pipelined, and times every op;
* :class:`Oracle` is a store built from the fleet's
  :class:`~repro.store.StoreSpec`, replaying the acknowledged writes
  in acknowledged order.  It holds no event loop, so a state-machine
  test can drive it directly;
* :class:`Contract` checks the four clauses — no false negatives,
  false positives bit-identical to the oracle, no write lost (served
  ``n_items`` not below the oracle's) and no write applied twice (not
  above it) — next to a scenario's own named checks, and returns one
  JSON report;
* :func:`bench_main` is the command line of every drill bench:
  ``--smoke``, ``--check``, ``--output``, the
  ``BENCH_<name>[.smoke].json`` file and its ``{"config", "results"}``
  payload.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import pathlib
import time
from dataclasses import dataclass
from typing import (Any, Awaitable, Callable, Dict, List, Optional,
                    Sequence, Tuple)

import numpy as np

from repro.store.spec import StoreSpec
from repro.workloads.service import build_service_workload

__all__ = ["Contract", "Op", "Oracle", "Run", "bench_main", "drive",
           "print_checks", "render"]

#: One drill op: ``("add", batch)`` or ``("query", batch)``.
Op = Tuple[str, List[bytes]]


@dataclass
class Run:
    """What :func:`drive` saw: total wall time, each op's answer and
    ``(start, end)`` times, and op indices in acknowledgement order."""

    elapsed_s: float
    answers: List[Any]
    spans: List[Tuple[float, float]]
    acked: List[int]

    def latencies(self) -> List[float]:
        return [end - start for start, end in self.spans]


async def drive(clients: Sequence[Any], ops: Sequence[Op],
                pipeline: int = 1,
                after: Optional[Callable[[int, Any], Awaitable]] = None,
                ) -> Run:
    """Run *ops* through *clients* and time them.

    Op ``i`` goes to ``clients[i % len(clients)]``; each client issues
    its ops in index order and keeps up to *pipeline* of them in
    flight.  *after*, when given, is awaited with an op's index and
    answer inside that op's timing window.
    """
    n_ops = len(ops)
    answers: List[Any] = [None] * n_ops
    spans: List[Tuple[float, float]] = [(0.0, 0.0)] * n_ops
    acked: List[int] = []

    async def lane(client, indices) -> None:
        window = asyncio.Semaphore(pipeline)

        async def one(i: int) -> None:
            kind, batch = ops[i]
            start = time.perf_counter()
            try:
                answers[i] = await getattr(client, kind)(batch)
                acked.append(i)
                if after is not None:
                    await after(i, answers[i])
                spans[i] = (start, time.perf_counter())
            finally:
                window.release()

        tasks = []
        for i in indices:
            await window.acquire()
            tasks.append(asyncio.ensure_future(one(i)))
        await asyncio.gather(*tasks)

    start = time.perf_counter()
    await asyncio.gather(*(
        lane(client, range(c, n_ops, len(clients)))
        for c, client in enumerate(clients)))
    return Run(time.perf_counter() - start, answers, spans, acked)


class Oracle:
    """The fault-free replay every drill compares against.

    *spec* (with *router*, for a cluster's shard map) builds the same
    filters the fleet serves, so its verdicts — false positives
    included — agree with a correct fleet bit for bit.  With no spec
    the oracle only knows which elements were written, enough for the
    no-false-negative clause against a fleet of unknown geometry (and
    no ``n_items`` to hold a fleet to).
    """

    def __init__(self, spec: Optional[StoreSpec] = None, router=None,
                 preload: int = 0, seed: int = 0) -> None:
        self.store = spec.build(router=router) if spec is not None else None
        self.members: set = set()
        if preload > 0:
            self.add(list(build_service_workload(preload,
                                                 seed=seed).members))

    def add(self, batch: Sequence[bytes]) -> None:
        self.members.update(batch)
        if self.store is not None:
            self.store.add_batch(list(batch))

    def query(self, batch: Sequence[bytes]) -> np.ndarray:
        return np.asarray(self.store.query_batch(list(batch)), dtype=bool)

    @property
    def n_items(self) -> int:
        return self.store.n_items


class Contract:
    """The four verdict-contract clauses plus a scenario's named checks.

    Feed it answered queries (:meth:`verdicts`, or :meth:`replay` for a
    whole :class:`Run`) and the fleet's item count (:meth:`items`);
    :meth:`report` evaluates every clause that was fed.  Without an
    oracle it only collects named checks.
    """

    def __init__(self, oracle: Optional[Oracle] = None) -> None:
        self.oracle = oracle
        self.compared = 0
        self.members_checked = 0
        self.false_negatives = 0
        self.fp_mismatches = 0
        self.served_items: Optional[int] = None
        self.extras: List[Tuple[str, Optional[bool], str]] = []

    def replay(self, ops: Sequence[Op], run: Run) -> int:
        """Apply *run*'s acknowledged ops to the oracle in the order
        they were acknowledged, checking each query against the oracle
        as it stood then; returns the wrong verdicts found."""
        wrong = 0
        for i in run.acked:
            kind, batch = ops[i]
            if kind == "add":
                self.oracle.add(batch)
            else:
                wrong += self.verdicts(batch, run.answers[i])
        return wrong

    def verdicts(self, batch: Sequence[bytes], answers,
                 members=None) -> int:
        """Check one answered batch; returns its wrong verdicts.

        *members* flags the elements that must answer True (by default,
        those the oracle saw written); every other verdict must equal
        the oracle's, when it has a store to ask.
        """
        answers = np.asarray(answers, dtype=bool)
        if members is None:
            members = [e in self.oracle.members for e in batch]
        members = np.asarray(members, dtype=bool)
        fn = int(np.count_nonzero(members & ~answers))
        fp = 0
        if self.oracle.store is not None:
            fp = int(np.count_nonzero(
                ~members & (answers != self.oracle.query(batch))))
        self.compared += len(answers)
        self.members_checked += int(members.sum())
        self.false_negatives += fn
        self.fp_mismatches += fp
        return fn + fp

    @property
    def wrong_verdicts(self) -> int:
        return self.false_negatives + self.fp_mismatches

    def items(self, served: int) -> None:
        self.served_items = int(served)

    def check(self, name: str, ok: Optional[bool], label: str) -> None:
        """A scenario's own check; ``ok=None`` reports it as skipped."""
        self.extras.append((name, None if ok is None else bool(ok), label))

    def absorb(self, report: Dict[str, Any], scope: str) -> None:
        """Take over every check of another contract's report, its
        names and labels prefixed with *scope*."""
        self.extras.extend(("%s.%s" % (scope, c["name"]), c["ok"],
                            "%s: %s" % (scope, c["label"]))
                           for c in report["checks"])

    def clauses(self) -> List[Tuple[str, bool, str]]:
        out = []
        if self.compared:
            out.append(("no_false_negatives", self.false_negatives == 0,
                        "no false negatives (%d of %d member verdicts "
                        "False)" % (self.false_negatives,
                                    self.members_checked)))
            if self.oracle.store is not None:
                out.append((
                    "false_positives_identical", self.fp_mismatches == 0,
                    "false positives bit-identical to the oracle (%d of "
                    "%d verdicts differ)" % (self.fp_mismatches,
                                             self.compared)))
        if self.served_items is not None:
            served, expected = self.served_items, self.oracle.n_items
            out.append(("no_lost_writes", served >= expected,
                        "n_items %d not below the oracle's %d (no write "
                        "lost)" % (served, expected)))
            out.append(("no_duplicate_writes", served <= expected,
                        "n_items %d not above the oracle's %d (no write "
                        "applied twice)" % (served, expected)))
        return out

    def report(self) -> Dict[str, Any]:
        checks = [{"name": name, "ok": ok, "label": label}
                  for name, ok, label in self.clauses() + self.extras]
        return {
            "ok": all(c["ok"] is not False for c in checks),
            "checks": checks,
            "verdicts_compared": self.compared,
            "false_negatives": self.false_negatives,
            "false_positive_mismatches": self.fp_mismatches,
            "n_items": self.served_items,
            "oracle_n_items": (None if self.served_items is None
                               else int(self.oracle.n_items)),
        }


def print_checks(checks: Sequence[dict]) -> bool:
    """Print one ``OK:``/``FAIL:``/``SKIP:`` line per check; True when
    none failed."""
    for c in checks:
        print("%s: %s" % ({True: "OK", False: "FAIL", None: "SKIP"}[c["ok"]],
                          c["label"]))
    return all(c["ok"] is not False for c in checks)


def render(results: Dict[str, Any], path: str = "") -> List[str]:
    """One line per dict in *results* with its scalar fields, and one
    per row of each list of dicts; contracts are left to ``--check``."""
    fields = ["%s=%s" % (k, "%g" % v if isinstance(v, float) else v)
              for k, v in results.items()
              if not isinstance(v, (dict, list))]
    lines = []
    if fields:
        lines.append("%s: %s" % (path or "results", " ".join(fields)))
    for key, value in results.items():
        name = (path + "." if path else "") + key
        if isinstance(value, dict) and key != "contract":
            lines += render(value, name)
        elif isinstance(value, list):
            for i, row in enumerate(value):
                if isinstance(row, dict):
                    lines += render(row, "%s[%d]" % (name, i))
    return lines


#: Where a drill bench writes its ``BENCH_*.json`` by default: the root
#: of the source checkout the benches run from.
REPO_ROOT = pathlib.Path(__file__).resolve().parents[3]


def bench_main(name: str, doc: str,
               run: Callable[[argparse.Namespace], Dict[str, Any]],
               smoke: Callable[[argparse.Namespace], Optional[str]],
               argv=None, **options) -> int:
    """Parse, run, print and save one drill bench.

    Each keyword of *options* is one of the bench's own flags —
    ``--name-with-dashes``, typed like its default (``None`` stands for
    an int that may be left out).  *smoke* shrinks the parsed args for
    ``--smoke``, or returns why this run cannot be a smoke run; *run*
    returns the results, whose ``"contract"`` report holds the checks
    ``--check`` prints and gates on.  The payload's ``config`` is every
    parsed option but ``--check`` and ``--output``.
    """
    parser = argparse.ArgumentParser(description=doc)
    for dest, default in options.items():
        parser.add_argument("--" + dest.replace("_", "-"), default=default,
                            type=int if default is None else type(default))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny workload (CI sanity run)")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero if any check fails")
    parser.add_argument("--output", type=pathlib.Path, default=None)
    args = parser.parse_args(argv)
    error = smoke(args) if args.smoke else None
    if error:
        parser.error(error)
    output = args.output or REPO_ROOT / (
        "BENCH_%s%s.json" % (name, ".smoke" if args.smoke else ""))
    results = run(args)
    print("\n".join(render(results)))
    config = {key: value for key, value in vars(args).items()
              if key not in ("check", "output")}
    output.write_text(json.dumps({"config": config, "results": results},
                                 indent=2) + "\n")
    print("\nwrote %s" % output)
    if args.check and not print_checks(results["contract"]["checks"]):
        return 1
    return 0
