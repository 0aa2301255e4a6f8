"""Shared pieces of the benchmark: seeded keys, steady estimators,
``/proc`` readers and the per-run result record.

Every throughput the benchmark reports is the **median of fixed-length
window rates** over a long timed phase, with warm-up windows dropped;
never total/elapsed.  Keys are generated before any clock starts.

Window figures are stated at the reference box speed: on a shared VM
the box runs the same code up to 1.5x slower for seconds to minutes at
a time, so each window's rate is scaled by how long a fixed reference
loop took around that window, against ``REF_MS``.  The raw figures go
to the run's side file.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

#: Length of one rate window, in seconds.
WINDOW_S = 1.0
#: Windows discarded at the start of every timed phase.
WARMUP_WINDOWS = 2
#: How many times set-up is measured per run, after one discarded
#: warm-up set-up; ``setup_s`` is the median.
SETUP_REPEATS = 3
#: The reference box speed: the time ``ref_loop_ms`` takes on it.  It
#: fixes the scale of every speed-adjusted figure, so it never changes.
REF_MS = 1.5
#: Flow-ID-shaped keys: src ip, dst ip, src port, dst port, protocol.
KEY_BYTES = 13

_M64 = (1 << 64) - 1


def out_path(name: str) -> str:
    """A path under the benchmark's ignored output directory."""
    os.makedirs(OUT_DIR, exist_ok=True)
    return os.path.join(OUT_DIR, name)


# ----------------------------------------------------------------------
# Seeded keys
# ----------------------------------------------------------------------
def _mix64(z: np.ndarray) -> np.ndarray:
    """splitmix64's finaliser: a bijection on uint64."""
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


def flow_keys(seed: int, start: int, count: int) -> List[bytes]:
    """``count`` distinct 13-byte flow-ID-shaped keys.

    Key ``i`` is built from index ``start + i``: its first 8 bytes (the
    two addresses) are a seeded bijective mix of the index, so keys with
    different indices never collide and disjoint index ranges give
    disjoint key sets.  Ports and protocol come from a seeded generator.
    The same ``(seed, start, count)`` always gives the same keys.
    """
    index = np.arange(start, start + count, dtype=np.uint64)
    salt = np.uint64((seed * 0x9E3779B97F4A7C15 + 0x632BE59BD9B4E019) & _M64)
    head = _mix64(index ^ salt)
    rng = np.random.default_rng([seed, start, count])
    raw = np.empty((count, KEY_BYTES), dtype=np.uint8)
    raw[:, :8] = head.astype(">u8").view(np.uint8).reshape(count, 8)
    raw[:, 8:12] = rng.integers(0, 256, (count, 4), dtype=np.uint8)
    raw[:, 12] = rng.choice(np.array([6, 17], dtype=np.uint8), count)
    blob = raw.tobytes()
    return [blob[i:i + KEY_BYTES] for i in range(0, len(blob), KEY_BYTES)]


def interleave(seed: int, first: Sequence[bytes], second: Sequence[bytes]
               ) -> Tuple[List[bytes], np.ndarray]:
    """Seeded shuffle of two key lists; returns keys and a from-first mask."""
    keys = list(first) + list(second)
    mask = np.zeros(len(keys), dtype=bool)
    mask[:len(first)] = True
    order = np.random.default_rng([seed, 7]).permutation(len(keys))
    return [keys[i] for i in order], mask[order]


def chunks(items: Sequence, size: int) -> List:
    return [items[i:i + size] for i in range(0, len(items), size)]


# ----------------------------------------------------------------------
# Estimators
# ----------------------------------------------------------------------
def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100])."""
    ordered = sorted(samples)
    rank = max(1, int(np.ceil(q / 100.0 * len(ordered))))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


#: One completed operation: ``(kind, elements, end stamp, duration)``.
Event = Tuple[str, int, float, float]


class Windows:
    """Fixed-length measurement windows over one timed phase.

    The loop being measured calls :meth:`poll` after every operation;
    when a window is due it is closed, the reference loop runs *between*
    windows (outside both), and the next window opens.  A window's
    slowdown is the mean of the reference-loop times on either side of
    it over ``REF_MS``; rates are multiplied by it and times divided by
    it.  ``cpu_fn`` returns a tuple of CPU-second counters (this process,
    a server...) read at every window edge.
    """

    def __init__(self, cpu_fn=lambda: ()):
        self._cpu_fn = cpu_fn
        self.opens: List[Tuple[float, tuple]] = []
        self.closes: List[Tuple[float, tuple]] = []
        self.ref_ms: List[float] = []
        self._next = 0.0

    def start(self) -> float:
        prepare_timed_phase()
        self.ref_ms.append(ref_loop_ms())
        now = time.perf_counter()
        self.opens.append((now, self._cpu_fn()))
        self._next = now + WINDOW_S
        return now

    def poll(self, now: float) -> None:
        if now >= self._next:
            self.closes.append((now, self._cpu_fn()))
            self.ref_ms.append(ref_loop_ms())
            opened = time.perf_counter()
            self.opens.append((opened, self._cpu_fn()))
            self._next = opened + WINDOW_S

    def finish(self) -> None:
        """Drop the open (partial) window."""
        del self.opens[len(self.closes):]

    def slowdown(self, w: int) -> float:
        """Box slowdown during window *w*, against ``REF_MS``."""
        return (self.ref_ms[w] + self.ref_ms[w + 1]) / (2 * REF_MS)

    def measured(self) -> List[int]:
        """Indices of the windows kept: warm-up dropped, unless a phase
        too short for it would keep none."""
        first = min(WARMUP_WINDOWS, max(0, len(self.closes) - 1))
        return list(range(first, len(self.closes)))

    def _bins(self, events: Sequence[Event], kinds) -> Tuple[np.ndarray,
                                                              np.ndarray]:
        starts = np.array([t for t, _ in self.opens])
        elems = np.zeros(len(self.closes))
        busy = np.zeros(len(self.closes))
        for kind, n, end, dur in events:
            if kinds is not None and kind not in kinds:
                continue
            w = int(np.searchsorted(starts, end, side="right")) - 1
            if 0 <= w < len(self.closes) and end <= self.closes[w][0]:
                elems[w] += n
                busy[w] += dur
        return elems, busy

    def rates(self, events: Sequence[Event], kinds=None,
              per_busy: bool = False, only=None, raw: bool = False
              ) -> List[float]:
        """Per kept window: elements per wall second, or per second
        spent inside those operations (*per_busy*, for single-threaded
        loops mixing operation kinds); speed-adjusted unless *raw*.
        *only* restricts the windows."""
        elems, busy = self._bins(events, kinds)
        out = []
        for w in self.measured():
            if only is not None and w not in only:
                continue
            span = busy[w] if per_busy else (
                self.closes[w][0] - self.opens[w][0])
            if elems[w] > 0 and span > 0:
                out.append(elems[w] / span
                           * (1.0 if raw else self.slowdown(w)))
        return out

    def cpu_us_per_elem(self, events: Sequence[Event], which: int,
                        only=None) -> List[float]:
        """Per kept window: CPU counter *which* spent per element."""
        elems, _ = self._bins(events, None)
        out = []
        for w in self.measured():
            if only is not None and w not in only:
                continue
            cpu = self.closes[w][1][which] - self.opens[w][1][which]
            if elems[w] > 0:
                out.append(cpu * 1e6 / elems[w] / self.slowdown(w))
        return out

    def kept_latencies_ms(self, events: Sequence[Event], only=None
                          ) -> List[float]:
        """Speed-adjusted durations of operations that ended inside a
        kept window (restricted to the windows in *only*, if given)."""
        spans = [(self.opens[w][0], self.closes[w][0], self.slowdown(w))
                 for w in self.measured() if only is None or w in only]
        return [dur * 1e3 / slow for _, _, end, dur in events
                for lo, hi, slow in spans if lo <= end <= hi]


def run_inprocess(ops, seconds: float, outcome: "Outcome"
                  ) -> Tuple[List[Event], Windows]:
    """Cycle a fixed operation sequence for *seconds* of wall time.

    *ops* is a list of ``(kind, fn, arg, n, check)``; ``check(result)``
    returns the number of wrong verdicts.  Every element counts as one
    attempted operation.
    """
    windows = Windows(lambda: (self_cpu_s(),))
    events: List[Event] = []
    start = windows.start()
    deadline = start + seconds
    i = 0
    while True:
        kind, fn, arg, n, check = ops[i % len(ops)]
        t0 = time.perf_counter()
        result = fn(arg)
        t1 = time.perf_counter()
        events.append((kind, n, t1, t1 - t0))
        outcome.attempted += n
        if check is not None:
            outcome.violation(check(result), "wrong %s verdict" % kind)
        i += 1
        if t1 >= deadline:
            break
        windows.poll(t1)
    windows.finish()
    return events, windows


def ref_loop_ms() -> float:
    """Time one fixed reference loop (pure Python plus a NumPy op).

    It moves with the machine's speed only, so a run's ``env`` figures
    show which phases of the spread came from the box, not the code.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(20000):
        acc += i * i
    np.sort(np.arange(20000, dtype=np.int64)[::-1])
    return (time.perf_counter() - t0) * 1e3


def box_slowdown() -> float:
    """How much slower than the reference speed the box runs right now
    (the median of five reference loops over ``REF_MS``)."""
    return median([ref_loop_ms() for _ in range(5)]) / REF_MS


def timed_setup(build) -> Tuple[object, float]:
    """Run ``build()``; return its result and its speed-adjusted seconds."""
    before = box_slowdown()
    t0 = time.perf_counter()
    result = build()
    took = time.perf_counter() - t0
    return result, took * 2 / (before + box_slowdown())


def prepare_timed_phase() -> None:
    """Collect garbage so no collection left over from set-up lands
    inside the measured window."""
    gc.collect()


# ----------------------------------------------------------------------
# Process accounting
# ----------------------------------------------------------------------
_CLK_TCK = os.sysconf("SC_CLK_TCK")


def proc_cpu_s(pid: int) -> float:
    """utime + stime of a process from ``/proc/<pid>/stat``."""
    with open("/proc/%d/stat" % pid) as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def proc_hwm_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a process, in MiB."""
    with open("/proc/%d/status" % pid) as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM for pid %d" % pid)


def self_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


# ----------------------------------------------------------------------
# Result record
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    """What one workload run measured and verified.

    ``metrics`` maps a metric name to its value; units come from
    ``BENCHMARK.json``.  ``failed`` counts failed, refused or timed-out
    operations plus wrong verdicts; ``detail`` is written to the run's
    side file, not printed.
    """

    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, float] = field(default_factory=dict)
    detail: Dict[str, object] = field(default_factory=dict)
    violations: List[str] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)

    def violation(self, count: int, what: str) -> None:
        """Record *count* wrong verdicts (no-op for zero)."""
        if count:
            self.failed += int(count)
            self.violations.append("%d x %s" % (count, what))

    def fail(self, count: int, what: str) -> None:
        """Record *count* elements of a failed, refused or timed-out op."""
        self.failed += int(count)
        self.failures.append("%d x %s" % (count, what))

    @property
    def error_ratio(self) -> float:
        return self.failed / max(1, self.attempted)

    def timing(self, events: Sequence[Event], windows: Windows,
               cpu_index: int, per_busy: bool) -> None:
        """Fill the windowed end-to-end timing metrics from one phase.

        An operation kind may have sub-kinds (``query.a``, ``query.x``);
        each gets its own windowed median rate, and the kind's rate is
        that of the fixed mix: total elements over the summed time each
        sub-kind's share takes at its median rate.  Windows holding a
        different mix of slow and fast sub-kinds then cannot move it.
        """
        share: Dict[str, int] = {}
        for kind, n, _, _ in events:
            share[kind] = share.get(kind, 0) + n

        def mix_rate(prefix: str) -> float:
            subs = [k for k in share if k.split(".")[0] == prefix]
            total = sum(share[k] for k in subs)
            seconds = sum(
                share[k] / median(windows.rates(events, {k}, per_busy))
                for k in subs)
            return total / seconds

        lat = windows.kept_latencies_ms(events)
        self.metrics.update({
            "query_elems_per_s": mix_rate("query"),
            "add_elems_per_s": mix_rate("add"),
            "call_p50_ms": percentile(lat, 50),
            "call_p99_ms": percentile(lat, 99),
            "cpu_us_per_elem": median(
                windows.cpu_us_per_elem(events, cpu_index)),
        })
        self.detail.update({
            "latency_samples": len(lat),
            "samples_beyond_p99": sum(
                1 for x in lat if x > self.metrics["call_p99_ms"]),
            "windows_kept": len(windows.measured()),
            "raw_query_elems_per_s": median(windows.rates(
                events, {k for k in share if k.startswith("query")},
                per_busy, raw=True)),
            "query_window_rates": windows.rates(
                events, {k for k in share if k.startswith("query")},
                per_busy),
            "env.ref_loop_ms": windows.ref_ms,
        })


def write_side_file(name: str, payload: dict) -> str:
    path = out_path(name)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True, default=float)
    return path
