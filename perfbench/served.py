"""The served path: a real server process plus one closed-loop load client.

Every traced run includes this session; it is not an end-to-end
workload (see ``README.md``: on a shared 2-vCPU VM its timings moved
by more than the largest allowed bound between two ten-run sets).

The server is ``python -m repro.service serve --shards 4 --k 8 --family
vector64`` with the default coalescer; its four shard filters together
take 256 KiB, well inside one core's 2 MiB L2.  The load client keeps a
fixed number of requests in flight over two pipelined connections.
Requests carry 64 elements; 80% of elements are QUERY (half preloaded
members, half never-added keys) and 20% are ADD of pool keys.

The load client and the server it spawns share one CPU (see
:func:`one_cpu`).  Server CPU (utime + stime) and peak RSS come from
``/proc/<pid>``; the load client's own CPU is measured separately.  STATS
and METRICS are scraped before and after the timed phase, so their
deltas cover only it.  The final verdicts over the wire must be
bit-identical to an in-process reference store fed the same ADDs.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import json
import os
import re
import signal
import subprocess
import sys
import time

import numpy as np

from common import (ROOT, Outcome, Windows, chunks, flow_keys, interleave,
                    median, out_path, percentile, proc_cpu_s, proc_hwm_mb,
                    self_cpu_s)
from spans import SpanRecorder

PARAMS = {
    "server": "python -m repro.service serve", "shards": 4,
    "m_bits_per_shard": 1 << 19, "k": 8, "family": "vector64",
    "coalescer": "default (max_batch 512, max_delay_us 200)",
    "preload": 160_000, "add_pool": 50_000, "absent_probes": 200_000,
    "request_elems": 64, "connections": 2, "depth_per_connection": 8,
    "query_share": 0.8, "distinct_query_requests": 2048,
}
PROBE_PARAMS = dict(PARAMS, m_bits_per_shard=1 << 16, preload=20_000,
                    add_pool=6_000, absent_probes=20_000,
                    distinct_query_requests=256)
_READY = re.compile(r"listening on [^ ]+:(\d+) ")


class Inputs:
    """Preload, ADD pool, probes and the fixed request sequence."""

    def __init__(self, seed: int, p: dict):
        self.p = p
        n_pre, n_pool, n_abs = p["preload"], p["add_pool"], p["absent_probes"]
        self.preload = flow_keys(seed, 0, n_pre)
        self.pool = flow_keys(seed, n_pre, n_pool)
        self.absent = flow_keys(seed, n_pre + n_pool, n_abs)
        rng = np.random.default_rng([seed, 3])
        size = p["request_elems"]
        queries = []
        for q in range(p["distinct_query_requests"]):
            members = [self.preload[i] for i in
                       rng.integers(0, n_pre, size // 2)]
            absent = [self.absent[i] for i in
                      rng.integers(0, n_abs, size // 2)]
            queries.append(("query",) + interleave(seed + q, members, absent))
        # One cycle adds every pool key once, with query_share of the
        # elements in QUERY requests around the ADDs.
        per_add = round(p["query_share"] / (1 - p["query_share"]))
        self.requests = []
        for j, batch in enumerate(chunks(self.pool, size)):
            for q in range(j * per_add, (j + 1) * per_add):
                self.requests.append(queries[q % len(queries)])
            self.requests.append(("add", batch, None))


def reference_store(p: dict, keys):
    """An in-process store built exactly like the server's."""
    from repro.core.membership import ShiftingBloomFilter
    from repro.hashing.family import make_family
    from repro.store.sharded import ShardedFilterStore

    family = make_family(p["family"], seed=0)
    store = ShardedFilterStore(
        lambda shard: ShiftingBloomFilter(
            m=p["m_bits_per_shard"], k=p["k"], family=family),
        n_shards=p["shards"])
    for batch in chunks(keys, 4096):
        store.add_batch(batch)
    return store


@contextlib.contextmanager
def one_cpu():
    """Run this process, and the server it spawns, on one CPU.

    On a 2-vCPU VM, a load client and server on separate vCPUs saw their
    closed-loop rate swing up to 2x between runs minutes apart, with the
    host's placement of the vCPU pair.  Sharing one CPU, the loop runs at
    1 / (server + client CPU per element) and moved far less.
    """
    saved = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(saved)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, saved)


class Server:
    """One ``repro.service serve`` child process."""

    def __init__(self, p: dict, trace_log: str = ""):
        self._log = out_path("server-%d.log" % os.getpid())
        args = [sys.executable, "-m", "repro.service", "serve",
                "--host", "127.0.0.1", "--port", "0",
                "--shards", str(p["shards"]),
                "--m", str(p["m_bits_per_shard"]), "--k", str(p["k"]),
                "--family", p["family"]]
        if trace_log:
            args += ["--trace-log", trace_log]
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        self._out = open(self._log, "w+")
        self.proc = subprocess.Popen(args, stdout=self._out,
                                     stderr=subprocess.STDOUT, env=env,
                                     cwd=ROOT)
        self.pid = self.proc.pid
        self.port = self._wait_ready()

    def _wait_ready(self) -> int:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            self._out.seek(0)
            match = _READY.search(self._out.read())
            if match:
                return int(match.group(1))
            if self.proc.poll() is not None:
                break
            time.sleep(0.002)
        self.stop()
        raise RuntimeError("server did not come up; see %s" % self._log)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._out.close()


async def _connect(port: int, n: int):
    from repro.service.client import ServiceClient
    return [await ServiceClient.connect("127.0.0.1", port, op_timeout=30.0)
            for _ in range(n)]


async def _close(clients) -> None:
    for client in clients:
        await client.close()


async def _load(client, keys, outcome: Outcome) -> None:
    """ADD *keys* in 4096-element requests, four in flight."""
    batches = chunks(keys, 4096)
    for group in chunks(batches, 4):
        acks = await asyncio.gather(*(client.add(b) for b in group))
        for batch, ack in zip(group, acks):
            if ack != len(batch):
                outcome.fail(len(batch) - ack, "short ADD ack")
    outcome.attempted += len(keys)


async def _start_and_load(p: dict, inputs: Inputs, outcome: Outcome,
                          trace_log: str = ""):
    t0 = time.perf_counter()
    server = Server(p, trace_log)
    try:
        (loader,) = await _connect(server.port, 1)
        await _load(loader, inputs.preload, outcome)
    except BaseException:
        server.stop()
        raise
    return server, loader, time.perf_counter() - t0


async def closed_loop(clients, inputs: Inputs, seconds: float,
                      windows: Windows, outcome: Outcome,
                      client_spans=None):
    """Keep ``depth`` requests in flight per connection for *seconds*.

    With *client_spans* (a dict), requests sent while an odd-numbered
    window is open carry a trace id and get a client-side span there.
    """
    from repro.errors import ReproError

    events = []
    cursor = itertools.count()
    requests = inputs.requests
    start = windows.start()
    deadline = start + seconds
    done = False

    async def worker(client):
        nonlocal done
        while not done:
            i = next(cursor)
            kind, keys, mask = requests[i % len(requests)]
            trace_id = None
            if client_spans is not None and len(windows.closes) % 2:
                trace_id = i + 1
            t0 = time.perf_counter()
            try:
                if kind == "query":
                    verdicts = await client.query(keys, trace_id=trace_id)
                else:
                    ack = await client.add(keys, trace_id=trace_id)
            except (ReproError, OSError, asyncio.TimeoutError) as exc:
                outcome.attempted += len(keys)
                outcome.fail(len(keys), type(exc).__name__)
            else:
                t1 = time.perf_counter()
                outcome.attempted += len(keys)
                if kind == "query":
                    outcome.violation(int((~verdicts[mask]).sum()),
                                      "false negative over the wire")
                elif ack != len(keys):
                    outcome.fail(len(keys) - ack, "short ADD ack")
                events.append((kind, len(keys), t1, t1 - t0))
                if trace_id is not None:
                    client_spans[trace_id] = (t0, t1, len(keys))
            t1 = time.perf_counter()
            if t1 >= deadline:
                done = True
            else:
                windows.poll(t1)

    depth = inputs.p["depth_per_connection"]
    await asyncio.gather(*(worker(c) for c in clients for _ in range(depth)))
    windows.finish()
    return events


def _histogram_deltas(before: dict, after: dict) -> dict:
    """Count/sum deltas of every METRICS histogram series."""
    def index(snapshot):
        return {(s["name"], json.dumps(s["labels"], sort_keys=True)): s
                for s in snapshot["metrics"] if s["type"] == "histogram"}
    old, new = index(before), index(after)
    out = {}
    for key, series in new.items():
        prev = old.get(key, {"count": 0, "sum": 0.0})
        count = series["count"] - prev["count"]
        if count:
            out["%s%s" % key] = {"count": count,
                                 "mean": (series["sum"] - prev["sum"]) / count}
    return out


def _counter_deltas(before: dict, after: dict) -> dict:
    return {k: after["counters"][k] - before["counters"][k]
            for k in after["counters"]}


async def _verify(inputs: Inputs, client, outcome: Outcome) -> dict:
    """Complete the ADD cycle, then check every verdict bit for bit
    against an in-process reference store fed the same ADDs."""
    p = inputs.p
    await _load(client, inputs.pool, outcome)
    probes = inputs.preload + inputs.pool + inputs.absent
    before = await client.stats()
    wire = np.concatenate([await client.query(b)
                           for b in chunks(probes, 4096)])
    after = await client.stats()
    reference = reference_store(p, inputs.preload + inputs.pool)
    expected = np.concatenate([reference.query_batch(b)
                               for b in chunks(probes, 65536)])
    members = len(inputs.preload) + len(inputs.pool)
    outcome.attempted += len(probes)
    outcome.violation(int((~wire[:members]).sum()), "false negative")
    outcome.violation(int((wire != expected).sum()),
                      "verdict differing from the reference store")
    positives = int(wire[members:].sum())
    truth = np.arange(len(probes)) < members
    reads = after["access"]["read_words"] - before["access"]["read_words"]
    return {
        "fpr": positives / len(inputs.absent),
        "exact_answer_ratio": float((wire == truth).mean()),
        "mem_reads_per_query": reads / len(probes),
        "bits_per_key": after["size_bits"] / members,
    }


# ----------------------------------------------------------------------
# Span join and in-process replay
# ----------------------------------------------------------------------
def _read_server_spans(path: str):
    """The server's ``server.request`` and ``coalescer.batch`` records,
    each keyed by trace id."""
    spans = {"server.request": {}, "coalescer.batch": {}}
    with open(path) as handle:
        for line in handle:
            record = json.loads(line)
            if record["span"] in spans:
                spans[record["span"]][int(record["trace"], 16)] = record
    return spans["server.request"], spans["coalescer.batch"]


def _join_spans(recorder: SpanRecorder, client_spans: dict, requests: dict,
                batches: dict, since: float):
    """Nest client.request > server.request > coalescer.batch by trace id.

    The server stamps spans with its ``perf_counter`` (``mono``), which
    on Linux is the system-wide monotonic clock the load client uses too.
    Returns the span ids of the joined client and server requests.
    """
    client_ids, server_ids = [], []
    for trace_id, (t0, t1, n) in sorted(client_spans.items()):
        if t0 < since or trace_id not in requests or trace_id not in batches:
            continue
        req, batch = requests[trace_id], batches[trace_id]
        client = recorder.add("client.request", t0, t1, -1, trace_id, n)
        server = recorder.add("server.request", req["mono"],
                              req["mono"] + req["dur_s"], client, trace_id, n)
        recorder.add("coalescer.batch", batch["mono"],
                     batch["mono"] + batch["dur_s"], server, trace_id,
                     batch["batch_elements"])
        client_ids.append(client)
        server_ids.append(server)
    return client_ids, server_ids


def wire_bytes_per_elem(inputs: Inputs) -> float:
    """Request plus response frame bytes per element, one sequence pass."""
    from repro.service import protocol

    total = elems = 0
    for rid, (kind, keys, _) in enumerate(inputs.requests):
        if kind == "query":
            op = protocol.OP_QUERY
            answer = protocol.encode_verdicts(np.ones(len(keys), dtype=bool))
        else:
            op, answer = protocol.OP_ADD, protocol._U32.pack(len(keys))
        total += len(protocol.encode_frame(
            rid, op, protocol.encode_elements(keys)))
        total += len(protocol.encode_frame(rid, protocol.STATUS_OK, answer))
        elems += len(keys)
    return total / elems


def _replay(inputs: Inputs, batch_elems: int, seconds: float,
            recorder: SpanRecorder) -> dict:
    """Replay the recorded requests in-process, layer by layer.

    decode_elements -> ShardRouter.group -> ShardedFilterStore
    query_batch/add_batch -> shard query_batch -> values_batch, with the
    decoded requests coalesced to the batch size the server reported.
    The kernel spans below the store go to the span file; the kernel
    metrics themselves come from ``bulk_membership``'s batch-4096 path.
    """
    from repro.bitarray.bitarray import BitArray
    from repro.bitarray.memory import MemoryModel
    from repro.core.membership import ShiftingBloomFilter
    from repro.hashing.vectorized import VectorizedFamily
    from repro.service import protocol
    from repro.store.router import ShardRouter
    from repro.store.sharded import ShardedFilterStore

    store = reference_store(inputs.p, inputs.preload + inputs.pool)
    decoded = {"query": [], "add": []}
    for rid, (kind, keys, _) in enumerate(inputs.requests):
        with recorder.request(rid):
            with recorder.span("service.protocol.encode", len(keys)):
                payload = protocol.encode_elements(keys)
            with recorder.span("service.protocol.decode", len(keys)):
                decoded[kind].extend(protocol.decode_elements(payload)[0])
    batches = [("query", b) for b in chunks(decoded["query"], batch_elems)]
    batches += [("add", b) for b in chunks(decoded["add"], batch_elems)]
    targets = [
        (ShardedFilterStore, "query_batch", "store.query_batch"),
        (ShardedFilterStore, "add_batch", "store.add_batch"),
        (ShardRouter, "group", "store.route"),
        (ShiftingBloomFilter, "query_batch", "core.shbf_m.query_batch"),
        (ShiftingBloomFilter, "add_batch", "core.shbf_m.add_batch"),
        (VectorizedFamily, "values_batch", "hashing.values_batch"),
        (BitArray, "test_pairs_batch", "bitarray.test_pairs_batch"),
        (MemoryModel, "read_cost_batch", "bitarray.read_cost_batch"),
    ]
    first = len(recorder.spans)
    deadline = time.perf_counter() + seconds
    with recorder.patched(targets):
        while True:
            for kind, batch in batches:
                if kind == "query":
                    store.query_batch(batch)
                else:
                    store.add_batch(batch)
            if time.perf_counter() >= deadline:
                break
    spans = recorder.spans
    store_q = shard_q = 0.0
    for span in spans[first:]:
        if span[2] == "store.query_batch":
            store_q += span[4] - span[3]
        elif (span[2] == "core.shbf_m.query_batch" and span[1] >= 0
              and spans[span[1]][2] == "store.query_batch"):
            shard_q += span[4] - span[3]
    table = recorder.summary()
    return {
        "store.route_ns_per_elem": recorder.ns_per_elem("store.route", table),
        "store.query_batch_ns_per_elem":
            recorder.ns_per_elem("store.query_batch", table),
        "store.add_batch_ns_per_elem":
            recorder.ns_per_elem("store.add_batch", table),
        "store.overhead_ratio": store_q / shard_q,
        "service.protocol.encode_ns_per_elem":
            recorder.ns_per_elem("service.protocol.encode", table),
        "service.protocol.decode_ns_per_elem":
            recorder.ns_per_elem("service.protocol.decode", table),
        "service.protocol.wire_bytes_per_elem": wire_bytes_per_elem(inputs),
    }


async def _ledger(seed: int, seconds: float, full: bool,
                  outcome: Outcome) -> dict:
    p = PARAMS if full else PROBE_PARAMS
    inputs = Inputs(seed, p)
    trace_log = out_path("server-trace-%d.jsonl" % os.getpid())
    if os.path.exists(trace_log):
        os.remove(trace_log)
    client_spans = {}
    server, loader, setup_s = await _start_and_load(p, inputs, outcome,
                                                    trace_log)
    try:
        clients = await _connect(server.port, p["connections"])
        stats0, metrics0 = await loader.stats(), await loader.metrics("json")
        pid = server.pid
        windows = Windows(lambda: (self_cpu_s(), proc_cpu_s(pid)))
        events = await closed_loop(clients, inputs, seconds, windows,
                                   outcome, client_spans)
        stats1, metrics1 = await loader.stats(), await loader.metrics("json")
        await _close(clients)
        verified = await _verify(inputs, loader, outcome)
        peak_rss_mb = proc_hwm_mb(pid)
    finally:
        await loader.close()
        server.stop()
    counters = _counter_deltas(stats0, stats1)
    kept = windows.measured()
    odd = {w for w in kept if w % 2}
    untraced = set(kept) - odd
    requests, batches = _read_server_spans(trace_log)
    os.remove(trace_log)  # its joined spans go into the run's span file
    recorder = SpanRecorder()
    client_ids, server_ids = _join_spans(recorder, client_spans, requests,
                                         batches, windows.opens[kept[0]][0])
    selfs = recorder.self_times()
    exec_by_batch = {(b["component"], b["mono"]): b["dur_s"]
                     for b in batches.values()}
    mean_batch = ((counters["elements_queried"] + counters["elements_added"])
                  / max(1, counters["batches_executed"]))
    latencies = windows.kept_latencies_ms(events, untraced)
    metrics = {
        "service.session.query_elems_per_s": median(
            windows.rates(events, {"query"}, only=untraced)),
        "service.session.request_p50_ms": percentile(latencies, 50),
        "service.session.request_p99_ms": percentile(latencies, 99),
        "service.server.cpu_us_per_elem": median(
            windows.cpu_us_per_elem(events, 1, untraced)),
        "service.server.mean_batch_elems": mean_batch,
        "service.server.queue_wait_p50_ms": 1e3 * median(
            [b["wait_s"] for b in batches.values()]),
        "service.server.exec_ms_per_batch": 1e3 * median(
            list(exec_by_batch.values())),
        "service.server.request_self_ms": 1e3 * median(
            [selfs[i] for i in server_ids]),
        "service.client.outside_server_ms": 1e3 * median(
            [selfs[i] for i in client_ids]),
        "service.client.cpu_us_per_elem": median(
            windows.cpu_us_per_elem(events, 0, untraced)),
        "trace.overhead_ratio":
            median(windows.rates(events, only=odd))
            / median(windows.rates(events, only=untraced)),
    }
    metrics.update(_replay(inputs, max(1, round(mean_batch)),
                           min(2.0, seconds / 4), recorder))
    return {"metrics": metrics, "recorder": recorder, "params": p,
            "detail": {"traced_requests": len(client_ids),
                       "latency_samples": len(latencies),
                       "setup_s": setup_s, "peak_rss_mb": peak_rss_mb,
                       "verification": verified, "stats_delta": counters,
                       "metrics_delta": _histogram_deltas(metrics0,
                                                          metrics1),
                       "env.ref_loop_ms": windows.ref_ms}}


def ledger(seed: int, seconds: float, full: bool, outcome: Outcome) -> dict:
    with one_cpu():
        return asyncio.run(_ledger(seed, seconds, full, outcome))
