"""In-memory span recording for the traced run.

A span is ``(id, parent, name, start, end, request, elems)``.  Spans
are recorded around calls into a layer's public function by patching
the function on its class for the duration of a ``with`` block, so
nothing under ``src/`` is instrumented.  Spans stay in memory and are
written out when the run ends; self time (a span's duration minus the
part of it its children cover) is computed from them afterwards.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

Span = Tuple[int, int, str, float, float, int, int]


def _first_len(args, kwargs) -> int:
    return len(args[0]) if args else 0


class SpanRecorder:
    """Collects nested spans; patches layer entry points on demand."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._request = 0

    @contextlib.contextmanager
    def request(self, request_id: int):
        """Tag spans opened inside the block with *request_id*."""
        previous, self._request = self._request, request_id
        try:
            yield
        finally:
            self._request = previous

    @contextlib.contextmanager
    def span(self, name: str, elems: int = 0):
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((span_id, parent, name, 0.0, 0.0,
                           self._request, elems))
        self._stack.append(span_id)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[span_id] = (span_id, parent, name, t0, t1,
                                   self._request, elems)

    def add(self, name: str, t0: float, t1: float, parent: int = -1,
            request: int = 0, elems: int = 0) -> int:
        """Record a span timed elsewhere (another process, a callback);
        ``t0``/``t1`` must be on the ``perf_counter`` clock."""
        span_id = len(self.spans)
        self.spans.append((span_id, parent, name, t0, t1, request, elems))
        return span_id

    def wrap(self, fn: Callable, name: str,
             count: Callable = _first_len) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, count(args[1:], kwargs)):
                result = fn(*args, **kwargs)
                # Generators do their work when drained: drain inside
                # the span so it covers the work, not just the call.
                if hasattr(result, "__next__"):
                    result = list(result)
                return result
        return traced

    @contextlib.contextmanager
    def patched(self, targets):
        """Patch ``(cls, attr, span_name[, count])`` entries for the block."""
        saved = []
        try:
            for target in targets:
                cls, attr, name = target[:3]
                count = target[3] if len(target) > 3 else _first_len
                original = cls.__dict__[attr]
                saved.append((cls, attr, original))
                setattr(cls, attr, self.wrap(original, name, count))
            yield self
        finally:
            for cls, attr, original in reversed(saved):
                setattr(cls, attr, original)

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def self_times(self) -> List[float]:
        """Per span: duration minus the union of its children's spans."""
        children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
        for span_id, parent, _, t0, t1, _, _ in self.spans:
            if parent >= 0:
                children[parent].append((t0, t1))
        out = []
        for span_id, _, _, t0, t1, _, _ in self.spans:
            covered = 0.0
            cursor = t0
            for c0, c1 in sorted(children.get(span_id, ())):
                c0, c1 = max(c0, cursor), min(c1, t1)
                if c1 > c0:
                    covered += c1 - c0
                    cursor = c1
            out.append(max(0.0, (t1 - t0) - covered))
        return out

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, elements, total and self seconds."""
        table: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "elems": 0, "total_s": 0.0, "self_s": 0.0})
        for span, self_s in zip(self.spans, self.self_times()):
            row = table[span[2]]
            row["calls"] += 1
            row["elems"] += span[6]
            row["total_s"] += span[4] - span[3]
            row["self_s"] += self_s
        return dict(table)

    def ns_per_elem(self, name: str, summary: Optional[dict] = None
                    ) -> float:
        row = (summary or self.summary())[name]
        return row["total_s"] * 1e9 / max(1, row["elems"])

    def dump(self, path: str) -> None:
        """Write every span, with its self time, as JSON lines."""
        with open(path, "w") as handle:
            for span, self_s in zip(self.spans, self.self_times()):
                span_id, parent, name, t0, t1, request, elems = span
                handle.write(json.dumps({
                    "id": span_id, "parent": parent, "name": name,
                    "start": t0, "end": t1, "request": request,
                    "elems": elems, "self_s": self_s}) + "\n")
