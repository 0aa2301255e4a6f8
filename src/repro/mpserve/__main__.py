"""CLI for the multi-process serving mode.

::

    # 4 read workers + 1 writer on port 47500, control port 47501
    python -m repro.mpserve serve --port 47500 --control-port 47501 \
        --workers 4 --shards 4 --preload 2000

    # remove leaked segments after a SIGKILLed fleet
    python -m repro.mpserve purge --base-name repro-mps-ab12cd34

``python -m repro.service serve --workers N`` delegates here, so one
entry point covers both serving modes.
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys

from repro.cli import (
    add_coalescer_args,
    add_endpoint_args,
    add_preload_args,
    add_store_args,
    coalescer_from_args,
    from_args,
    spec_from_args,
)
from repro.mpserve.segments import purge_segments
from repro.mpserve.supervisor import (
    MultiWorkerSupervisor,
    SupervisorConfig,
)

__all__ = ["build_parser", "main", "run_supervisor"]


async def run_supervisor(config: SupervisorConfig) -> int:
    # A plain `kill` must still unlink the shared segments: without a
    # SIGTERM handler the process dies before ``supervisor.stop()``
    # runs and the fleet's /dev/shm files outlive it (that is what
    # ``purge`` is for, but the graceful path should not need it).
    # Installed before start() so a kill during worker bring-up is
    # honoured as soon as start() returns.
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, stop.set)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass
    supervisor = MultiWorkerSupervisor(config)
    await supervisor.start()
    print("repro.mpserve serving on %s:%d (%d workers, writer :%d, "
          "control :%d, generation %d)"
          % (config.host, supervisor.serve_port, config.workers,
             supervisor.writer_port, supervisor.control_port,
             supervisor.generation()), flush=True)
    try:
        await stop.wait()
        return 0
    except (KeyboardInterrupt, asyncio.CancelledError):
        return 0
    finally:
        await supervisor.stop()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.mpserve",
        description="Multi-worker zero-copy serving mode.")
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser(
        "serve", help="run a supervisor + writer + N read workers")
    add_endpoint_args(serve)
    serve.set_defaults(port=0)
    serve.add_argument("--control-port", type=int, default=0,
                       help="supervisor PING/STATS/METRICS port")
    serve.add_argument("--writer-port", type=int, default=0,
                       help="stable writer port (0 picks a free one)")
    serve.add_argument("--workers", type=int, default=2,
                       help="number of read worker processes")
    add_store_args(serve)
    add_coalescer_args(serve)
    serve.add_argument("--publish-interval-ms", type=float, default=25.0,
                       help="min spacing between generation publishes")
    add_preload_args(serve)
    serve.add_argument("--fd-passing", action="store_true",
                       help="parent-acceptor fallback instead of "
                            "SO_REUSEPORT (the supervisor binds the "
                            "serve socket and passes its fd)")

    purge = sub.add_parser(
        "purge", help="unlink segments left by a SIGKILLed fleet")
    purge.add_argument("--base-name", required=True,
                       help="fleet namespace, e.g. repro-mps-ab12cd34")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "serve":
        try:
            return asyncio.run(run_supervisor(from_args(
                SupervisorConfig, args, store=spec_from_args(args),
                coalescer=coalescer_from_args(args))))
        except KeyboardInterrupt:
            return 0
    if args.command == "purge":
        removed = purge_segments(args.base_name)
        print("purged %d segment(s) of %s" % (removed, args.base_name))
        return 0
    return 2  # pragma: no cover - argparse enforces the choices


if __name__ == "__main__":
    sys.exit(main())
