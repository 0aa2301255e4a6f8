"""Pins for what the in-process drills send and what they report.

Each drill runs once at a fixed seed and smoke size while the
``add``/``query`` methods of the three client classes are wrapped, so
the test sees every op the drill issues (only the outermost call: a
``FailoverClient`` retry or a ``ClusterClient`` fan-out is not an op of
its own).  The digest of that ``(op kind, batch)`` sequence, the
deterministic report fields and the sha of every snapshot the drill
fetched are pinned.  Timings, fault counters and ship counts vary from
run to run and are left out.

Drills with one client in flight pin the ops in the order they were
sent; the replication bench drives several clients at once, so its
digest is over the sorted ops.
"""

from __future__ import annotations

import asyncio
import contextvars
import hashlib
import importlib.util
import json
import pathlib

import pytest

from repro.chaos.drill import DrillConfig, run_drill
from repro.cluster.client import ClusterClient
from repro.cluster.drill import ClusterDrillConfig, run_cluster_drill
from repro.replication.__main__ import main as replication_main
from repro.replication.failover import FailoverClient
from repro.service.client import ServiceClient

BENCHMARKS = pathlib.Path(__file__).resolve().parents[2] / "benchmarks"

_INSIDE = contextvars.ContextVar("inside_client_op", default=False)


def _sha(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


class Sent:
    """What one drill sent: its ops and the snapshots it fetched."""

    def __init__(self):
        self.ops = []
        self.snapshots = []

    def digest(self, ordered: bool = True) -> str:
        return _sha(self.ops if ordered else sorted(self.ops))

    def snapshot_shas(self) -> set:
        return {hashlib.sha256(blob).hexdigest()[:16]
                for blob in self.snapshots}


@pytest.fixture
def sent(monkeypatch):
    record = Sent()

    def wrap(cls, kind):
        inner = getattr(cls, kind)

        async def outermost(self, elements, *args, **kwargs):
            if _INSIDE.get():
                return await inner(self, elements, *args, **kwargs)
            record.ops.append((kind, tuple(bytes(e) for e in elements)))
            token = _INSIDE.set(True)
            try:
                return await inner(self, elements, *args, **kwargs)
            finally:
                _INSIDE.reset(token)

        monkeypatch.setattr(cls, kind, outermost)

    for cls in (ServiceClient, FailoverClient, ClusterClient):
        wrap(cls, "add")
        wrap(cls, "query")
    snapshot = ServiceClient.snapshot

    async def recorded_snapshot(self, *args, **kwargs):
        blob = await snapshot(self, *args, **kwargs)
        record.snapshots.append(bytes(blob))
        return blob

    monkeypatch.setattr(ServiceClient, "snapshot", recorded_snapshot)
    return record


def _bench(name: str, tmp_path, *argv) -> dict:
    spec = importlib.util.spec_from_file_location(
        "pinned_" + name, BENCHMARKS / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    output = tmp_path / (name + ".json")
    assert module.main(["--smoke", "--output", str(output), *argv]) == 0
    return json.loads(output.read_text())["results"]


def test_chaos_drill(sent):
    report = asyncio.run(run_drill(DrillConfig(n=120, per_batch=40,
                                               seed=3)))
    assert report["ok"], report["invariants"]
    assert sent.digest() == "11c6346e527efbc5"
    totals = report["totals"]
    assert (totals["ops_run"], totals["elements_written"],
            totals["wrong_verdicts"], totals["duplicate_writes"]) \
        == (6, 120, 0, 0)


def test_cluster_drill(sent):
    report = run_cluster_drill(ClusterDrillConfig(
        n_nodes=3, n_shards=8, m=16384, k=8, n_members=600, n_ops=24,
        per_request=64, migrate_after_ops=8, seed=0))
    assert report["ok"], report["invariants"]
    assert sent.digest() == "3f49037b50e3dbbc"
    ops = report["ops"]
    assert (ops["reads"], ops["writes"], ops["wrong_verdicts_live"],
            ops["wrong_verdicts_sweep"]) == (19, 5, 0, 0)
    accounting = report["writes_accounting"]
    assert (accounting["cluster_n_items"],
            accounting["reference_n_items"]) == (600, 600)


def test_bench_ttl(sent, tmp_path):
    results = _bench("bench_ttl", tmp_path)
    assert sent.digest() == "263580bab4f0b49c"
    assert sent.snapshot_shas() == {"b67233a7f128a09f"}
    correctness, expiry, replay = (results["correctness"],
                                   results["expiry"], results["replay"])
    assert (correctness["live_verdicts_checked"],
            correctness["wrong_live_verdicts"],
            correctness["window_turnovers"]) == (9218, 0, 3)
    assert (expiry["expired_probes"], expiry["expired_positives"],
            expiry["observed_fpr"], expiry["predicted_fpr"]) \
        == (900, 1, 0.001111, 0.000838)
    assert (replay["snapshot_bytes"], replay["snapshot_byte_identical"],
            replay["reference_rotations"],
            results["serving"]["rotations"]) == (4856, True, 12, 12)


def test_bench_replication(sent, tmp_path):
    results = _bench("bench_replication", tmp_path)
    assert sent.digest(ordered=False) == "36412daa37a99180"
    assert sent.snapshot_shas() == {"fc469c96a6446ed5"}
    failover = results["failover"]
    assert (failover["verdicts_compared"], failover["bit_identical"],
            failover["false_negatives"],
            failover["snapshots_byte_identical"]) == (1200, True, 0, True)
    assert (results["throughput"]["elements"],
            results["shipping"]["snapshot_bytes"]) == (1800, 17137)


def test_replication_cli_drill(sent, capsys):
    assert replication_main(
        ["drill", "--n", "200", "--m", "16384", "--seed", "3"]) == 0
    assert sent.digest() == "6ae2837e33ae956f"
    assert "DRILL OK" in capsys.readouterr().out
