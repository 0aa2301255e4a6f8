"""The one flag scaffold of the serving CLIs.

The service, replication, mpserve, cluster, chaos and obs CLIs take
their shared flags from the groups below, so one flag means one thing
everywhere; a command with other defaults (mpserve's free port, the
drills' small geometries and short timeouts) sets them with
``parser.set_defaults``.  :func:`from_args` turns parsed flags into
the config dataclasses whose fields they are named after —
:func:`spec_from_args` and :func:`coalescer_from_args` into what a
server is built from.
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import inspect

from repro.hashing.family import FAMILY_KINDS, SERVING_FAMILY
from repro.obs.tracing import Tracer
from repro.service.client import ServiceClient
from repro.service.server import CoalescerConfig
from repro.store.spec import StoreSpec


def add_endpoint_args(parser: argparse.ArgumentParser,
                      port: bool = True) -> None:
    parser.add_argument("--host", default="127.0.0.1")
    if port:
        parser.add_argument("--port", type=int, default=4000)


def add_timeout_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--op-timeout", type=float, default=30.0,
                        help="per-request deadline in seconds")
    parser.add_argument("--connect-timeout", type=float, default=5.0,
                        help="TCP connect bound in seconds")


def add_family_arg(parser: argparse.ArgumentParser,
                   help: str = "probe-hash family kind; snapshots carry "
                               "it, so standbys and restores hash "
                               "identically") -> None:
    parser.add_argument("--family", default=SERVING_FAMILY,
                        choices=sorted(FAMILY_KINDS), help=help)


def add_store_args(parser: argparse.ArgumentParser, shards: bool = True,
                   family: bool = True) -> None:
    """The hosted filters' geometry: :class:`StoreSpec` fields."""
    if shards:
        parser.add_argument("--shards", type=int, default=4,
                            help="shard count; 0 hosts a single filter")
    parser.add_argument("--m", type=int, default=262144,
                        help="bits per shard filter")
    parser.add_argument("--k", type=int, default=8)
    if family:
        add_family_arg(parser)


def add_generation_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--generations", type=int, default=0,
                        help="host a generational TTL ring of this many "
                             "filters instead of a sharded store (0: "
                             "off); writes land in the head generation "
                             "and queries OR the live window")
    parser.add_argument("--rotate-items", type=int, default=0,
                        help="cardinality trigger: rotate once the head "
                             "generation holds this many elements "
                             "(0: off)")
    parser.add_argument("--rotate-seconds", type=float, default=0.0,
                        help="time trigger: rotate once the head "
                             "generation is this old (0: off); a "
                             "background poker fires it even with no "
                             "writes arriving")


def add_coalescer_args(parser: argparse.ArgumentParser,
                       shedding: bool = False) -> None:
    parser.add_argument("--max-batch", type=int, default=512,
                        help="coalescer flush threshold; 1 = uncoalesced")
    parser.add_argument("--max-delay-us", type=int, default=200)
    parser.add_argument("--max-inflight", type=int, default=1024)
    if shedding:
        parser.add_argument("--adaptive-shed", action="store_true",
                            help="shed reads early (at --shed-ratio of "
                                 "--max-inflight) so writes and health "
                                 "probes survive overload")
        parser.add_argument("--shed-ratio", type=float, default=0.75,
                            help="fraction of --max-inflight where "
                                 "adaptive read shedding begins")


def add_preload_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--preload", type=int, default=0,
                        help="insert this many seeded catalog items")
    parser.add_argument("--seed", type=int, default=0)


def add_trace_log_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace-log", default="",
                        help="append JSON span records of traced "
                             "requests to this file (read back with "
                             "python -m repro.obs tail)")


def from_args(cls, args: argparse.Namespace, **overrides):
    """Dataclass *cls* from the parsed flags named like its fields,
    plus *overrides*; fields without a flag keep their defaults."""
    names = {f.name for f in dataclasses.fields(cls)}
    given = {k: v for k, v in vars(args).items() if k in names}
    return cls(**{**given, **overrides})


def spec_from_args(args: argparse.Namespace, **overrides) -> StoreSpec:
    """The :class:`StoreSpec` the flags describe (a cluster node
    overrides shard count and family with the shard map's)."""
    return from_args(StoreSpec, args, **overrides)


def coalescer_from_args(args: argparse.Namespace) -> CoalescerConfig:
    return from_args(CoalescerConfig, args)


def connect(args: argparse.Namespace):
    """Connect to ``--host``/``--port`` under the timeout flags."""
    return ServiceClient.connect(
        args.host, args.port, connect_timeout=args.connect_timeout,
        op_timeout=args.op_timeout)


def tracer_from_args(args: argparse.Namespace, component: str):
    """A :class:`Tracer` appending span records to ``--trace-log``
    (line-buffered), or ``None`` when the flag is empty."""
    if not args.trace_log:
        return None
    return Tracer(component=component,
                  sink=open(args.trace_log, "a", buffering=1))


def run(args: argparse.Namespace, commands: dict) -> int:
    """Run the chosen subcommand; coroutines get a fresh event loop."""
    command = commands[args.command]
    try:
        if inspect.iscoroutinefunction(command):
            return asyncio.run(command(args))
        return command(args)
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        return 130
