"""Kill-a-worker recovery drill against a live mpserve fleet.

Used by the ``mpserve-smoke`` CI job, and usable as an operator
health check.  Against a running fleet it:

1. reads the fleet map off the supervisor control port (STATS),
2. writes a fresh member batch through the shared serve port and
   barriers on the writer's ``pending_writes == 0`` (publish is
   synchronous on the writer loop, so the barrier is exact),
3. records the fleet's verdicts on the members plus a slab of
   never-written elements — members must answer True, and the
   never-written verdicts (false positives included) become the
   reference,
4. SIGKILLs one read worker,
5. keeps querying through the shared port on a fresh connection per
   round — reconnecting when one lands on the dead worker — and
   requires every answer to be bit-identical to the recorded
   verdicts,
6. waits for the supervisor to restart the worker (new pid, restart
   counter bumped), queries the replacement directly on its admin
   port, and requires it to answer bit-identically too.

The checks go through the drill harness's contract
(:mod:`repro.workloads.drill`): the members are the no-false-negative
clause, and the pre-kill record stands in for the oracle's false
positives, since the tool does not know the fleet's geometry or
preload.  Exit 0 only if every check held and the killed worker came
back.

::

    PYTHONPATH=src python tools/mpserve_recovery_check.py \
        --control-port 47501 --port 47500
"""

from __future__ import annotations

import argparse
import asyncio
import os
import signal
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src"))

from repro.mpserve.fleet import (  # noqa: E402
    fleet_stats,
    query_replacement,
    query_riding,
    wait_published,
)
from repro.service.client import ServiceClient  # noqa: E402
from repro.workloads.drill import Contract, Oracle, print_checks  # noqa: E402


async def drill(args: argparse.Namespace) -> int:
    fleet = await fleet_stats(args.host, args.control_port)
    victim = fleet["workers"][0]
    print("fleet: %d workers alive, generation %d, victim worker %d "
          "pid %d" % (fleet["workers_alive"], fleet["generation"],
                      victim["worker_id"], victim["pid"]))

    members = [b"recovery-%d" % i for i in range(args.n)]
    absent = [b"never-written-%d" % i for i in range(args.n)]
    probe = members + absent
    # The fleet's geometry and preload are unknown here: the oracle
    # knows the members written, and the pre-kill record stands in for
    # the false-positive half of the contract.
    contract = Contract(Oracle())
    client = await ServiceClient.connect(args.host, args.port)
    acked = await client.add(members)
    await client.close()
    contract.oracle.add(members)
    contract.check("writes_acknowledged", acked == len(members),
                   "%d of %d writes acknowledged" % (acked, len(members)))
    try:
        await wait_published(args.host, fleet["writer"]["port"])
        expected = await query_riding(args.host, args.port, probe)
        contract.verdicts(probe, expected)
        print("recorded %d verdicts (%d false positives on never-written "
              "elements)" % (len(expected), sum(expected[len(members):])))
        if not contract.report()["ok"]:  # no kill under a broken fleet
            print_checks(contract.report()["checks"])
            return 1

        os.kill(victim["pid"], signal.SIGKILL)
        print("killed worker %d (pid %d)"
              % (victim["worker_id"], victim["pid"]))

        # A fresh connection per round, so the rounds spread over the
        # surviving workers and, once it binds, the replacement.
        wrong = 0
        for _ in range(args.probes):
            verdicts = await query_riding(args.host, args.port, probe)
            wrong += sum(1 for got, want in zip(verdicts, expected)
                         if got != want)
            await asyncio.sleep(0.05)
        contract.check("recovery_identical", wrong == 0,
                       "%d verdicts mid-recovery diverged from the "
                       "pre-kill record" % wrong)

        replacement, verdicts = await query_replacement(
            args.host, args.control_port, victim, probe)
    except (ConnectionError, TimeoutError) as exc:
        print("FAIL: %s" % exc)
        return 1
    print("worker %d restarted as pid %d (restarts=%d), queried on its "
          "admin port %d" % (replacement["worker_id"], replacement["pid"],
                             replacement["restarts"],
                             replacement["admin_port"]))
    contract.check("replacement_identical", verdicts == expected,
                   "the replacement worker's verdicts equal the "
                   "pre-kill record")
    if not print_checks(contract.report()["checks"]):
        return 1
    print("OK: fleet served through a kill -9 with verdicts "
          "bit-identical to the pre-kill record and restarted the "
          "worker")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True,
                        help="the fleet's shared serve port")
    parser.add_argument("--control-port", type=int, required=True,
                        help="the supervisor PING/STATS/METRICS port")
    parser.add_argument("--n", type=int, default=200,
                        help="members written (and never-written "
                             "elements) probed")
    parser.add_argument("--probes", type=int, default=20,
                        help="query rounds driven mid-recovery")
    return asyncio.run(drill(parser.parse_args(argv)))


if __name__ == "__main__":
    sys.exit(main())
