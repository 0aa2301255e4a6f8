"""Request tracing: u64 trace ids on the wire, JSON span lines on disk.

A cluster request fans out — ``ClusterClient`` splits the batch per
owner, each sub-batch crosses the wire, the node ownership-checks it,
the coalescer parks it, a kernel batch answers it — and when one of
those hops stalls, nothing today says *which*.  Tracing closes that
loop with two pieces:

* a **trace id**: a random nonzero u64 minted by the edge client and
  stamped into every frame of the request's fan-out (see the
  ``TRACE_FLAG`` field in :mod:`repro.service.protocol`; untraced
  frames are byte-identical to the pre-tracing wire format, so old
  peers are unaffected);
* **span records**: each instrumented hop emits one JSON object —
  ``{"trace": "00ab...", "span": "coalescer.batch", "component":
  "node:127.0.0.1:47451", "start": ..., "dur_s": ..., ...}`` — to its
  process's :class:`Tracer` sink (a JSON-lines file, a logger, or a
  plain list in tests and drills).

Reconstruction needs no collector: :func:`reconstruct` gathers every
record of one trace id from any pile of span logs and orders it into
the request's path — which is exactly what ``python -m repro.obs tail``
does from the command line, and what the cluster drill's acceptance
test does from a seeded run.

Span timestamps are wall-clock (``time.time``) so records from
different processes order correctly; durations are measured with
``time.perf_counter`` so they stay monotonic.  Each record also
carries ``"mono"``, a per-process ``perf_counter`` reading taken when
the span *started*: wall clocks can step mid-request (NTP slew, manual
adjustment) and silently reorder sibling spans, so within one
component :func:`reconstruct` orders siblings by the monotonic key and
uses wall time only across processes, where monotonic readings are not
comparable.
"""

from __future__ import annotations

import contextlib
import io
import json
import logging
import random
import time
from typing import Callable, Dict, List, Optional, Sequence

__all__ = [
    "Tracer",
    "format_trace_id",
    "maybe_span",
    "parse_trace_id",
    "reconstruct",
    "render_trace",
]

logger = logging.getLogger("repro.trace")

#: Span names ship in a fixed vocabulary so reconstruction can order a
#: path even when two hops share a wall-clock millisecond.  Lower rank
#: = closer to the edge.
_SPAN_RANK = {
    "client.request": 0,
    "client.sub_request": 1,
    "server.request": 2,
    "node.ownership_check": 3,
    "coalescer.batch": 4,
}


def format_trace_id(trace_id: int) -> str:
    """A u64 trace id as fixed-width lowercase hex (the log form)."""
    return "%016x" % (trace_id & 0xFFFFFFFFFFFFFFFF)


def parse_trace_id(text: str) -> int:
    """Invert :func:`format_trace_id` (accepts any hex spelling)."""
    return int(text, 16)


class Tracer:
    """Mints trace ids and emits span records for one component.

    Args:
        component: stamped into every span (``"client"``,
            ``"node:127.0.0.1:47451"``, ...) — the *where* of a record.
        sink: called with each finished span dict.  ``None`` logs the
            JSON line at INFO on the ``repro.trace`` logger; a file-like
            object gets JSON lines written (and flushed) to it; a list
            collects dicts (tests, drills); any callable is used as-is.
        seed: seeds the id generator for replayable drills (``None`` =
            OS entropy).
    """

    def __init__(self, component: str = "", sink=None,
                 seed: Optional[int] = None) -> None:
        self.component = component
        self._rng = random.Random(seed)
        self._emit = self._make_emit(sink)

    @staticmethod
    def _make_emit(sink) -> Callable[[dict], None]:
        if sink is None:
            return lambda record: logger.info(
                "%s", json.dumps(record, sort_keys=True))
        if isinstance(sink, list):
            return sink.append
        if isinstance(sink, io.IOBase) or hasattr(sink, "write"):
            def emit(record: dict, _sink=sink) -> None:
                _sink.write(json.dumps(record, sort_keys=True) + "\n")
                if hasattr(_sink, "flush"):
                    _sink.flush()
            return emit
        if callable(sink):
            return sink
        raise TypeError(
            "tracer sink must be None, a list, a writable file or a "
            "callable, got %r" % type(sink).__name__)

    def new_trace_id(self) -> int:
        """A fresh nonzero u64 (zero is reserved for "untraced")."""
        trace_id = 0
        while trace_id == 0:
            trace_id = self._rng.getrandbits(64)
        return trace_id

    def emit(self, span: str, trace_id: int, start: float, dur_s: float,
             mono: Optional[float] = None, **fields) -> None:
        """Record one finished span (low-level; prefer :meth:`span`).

        *mono* is the per-process monotonic ordering key — the
        ``perf_counter`` reading at span start.  Callers that measured
        one (the coalescer's ``exec_t0``, :meth:`span`'s ``t0``) pass
        it; otherwise emit time is used, which still orders correctly
        for spans emitted in completion order.
        """
        record: Dict[str, object] = {
            "trace": format_trace_id(trace_id),
            "span": span,
            "component": self.component,
            "start": start,
            "dur_s": dur_s,
            "mono": time.perf_counter() if mono is None else mono,
        }
        record.update(fields)
        self._emit(record)

    @contextlib.contextmanager
    def span(self, name: str, trace_id: int, **fields):
        """Context manager measuring one hop of a traced request.

        Yields a dict; entries added to it by the body land in the
        emitted record (e.g. the owner an element batch routed to).
        The record is emitted even when the body raises, with an
        ``"error"`` field naming the exception type — a failed hop is
        part of the path, not a gap in it.
        """
        start = time.time()
        t0 = time.perf_counter()
        extra: Dict[str, object] = {}
        try:
            yield extra
        except BaseException as exc:
            extra["error"] = type(exc).__name__
            raise
        finally:
            extra.update(fields)
            self.emit(name, trace_id, start,
                      time.perf_counter() - t0, mono=t0, **extra)


def maybe_span(tracer: Optional[Tracer], name: str,
               trace_id: Optional[int], **fields):
    """:meth:`Tracer.span` when *tracer* and *trace_id* are both set,
    else a no-op context, so an untraced request pays one check."""
    if tracer is None or trace_id is None:
        return contextlib.nullcontext()
    return tracer.span(name, trace_id, **fields)


# ----------------------------------------------------------------------
# Reconstruction
# ----------------------------------------------------------------------
def reconstruct(records: Sequence[dict], trace_id: int) -> List[dict]:
    """Order one trace's span records into the request's path.

    *records* may mix many traces from many processes (the concatenated
    span logs of a whole fleet); only records whose ``"trace"`` matches
    are kept, ordered by span depth (client → server → coalescer) and
    then by start time — wall-clock skew between processes cannot
    reorder the hop *levels*, only siblings within one.

    Siblings emitted by the *same* component (one process's tracer)
    additionally carry a ``"mono"`` perf_counter key, which a stepping
    wall clock cannot disturb: within each ``(rank, component)`` group
    the members are re-ordered by it, occupying the same positions the
    wall-time sort gave the group.  Monotonic readings from different
    processes are not comparable, so cross-component order stays
    wall-clock.
    """
    wanted = format_trace_id(trace_id)
    hops = [r for r in records if r.get("trace") == wanted]
    hops.sort(key=lambda r: (
        _SPAN_RANK.get(r.get("span", ""), len(_SPAN_RANK)),
        r.get("start", 0.0)))
    groups: Dict[tuple, List[int]] = {}
    for pos, record in enumerate(hops):
        key = (_SPAN_RANK.get(record.get("span", ""), len(_SPAN_RANK)),
               record.get("component", ""))
        groups.setdefault(key, []).append(pos)
    for positions in groups.values():
        if len(positions) < 2:
            continue
        members = [hops[pos] for pos in positions]
        if not all("mono" in r for r in members):
            continue  # pre-mono records: keep the wall-clock order
        members.sort(key=lambda r: r["mono"])
        for pos, record in zip(positions, members):
            hops[pos] = record
    return hops


def render_trace(records: Sequence[dict], trace_id: int) -> str:
    """A human-readable tree of one trace (``repro.obs tail`` output)."""
    hops = reconstruct(records, trace_id)
    if not hops:
        return "trace %s: no spans found" % format_trace_id(trace_id)
    lines = ["trace %s (%d spans)" % (format_trace_id(trace_id),
                                      len(hops))]
    for record in hops:
        depth = _SPAN_RANK.get(record.get("span", ""), len(_SPAN_RANK))
        detail = " ".join(
            "%s=%s" % (k, v) for k, v in sorted(record.items())
            if k not in ("trace", "span", "component", "start", "dur_s"))
        lines.append("%s%-22s %9.3fms  [%s]%s" % (
            "  " * depth, record.get("span", "?"),
            1e3 * float(record.get("dur_s", 0.0)),
            record.get("component", ""),
            ("  " + detail) if detail else ""))
    return "\n".join(lines)


def load_span_records(lines: Sequence[str]) -> List[dict]:
    """Parse span records out of mixed log lines, skipping non-JSON.

    Tolerates whole log files: lines that are not JSON objects (server
    banners, warnings) are ignored, so ``repro.obs tail`` can be pointed
    at a node's combined stdout log.
    """
    records = []
    for line in lines:
        line = line.strip()
        if not line.startswith("{"):
            continue
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if isinstance(record, dict) and "trace" in record:
            records.append(record)
    return records
