"""Golden pins for the element sequences the drills replay.

Every element, batch boundary and op kind must stay bit-identical, or
recorded verdict files and drill reports stop being comparable across
versions.  The digests were recorded before the drill workloads were
folded into ``build_service_workload``: the chaos drill's op sequence
at its defaults, and the replication drill's pre-/post-kill write
batches and read mix at the CLI's per-batch default, with the default
and an explicit kill point.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.chaos.drill import op_sequence
from repro.replication.pair import failover_script
from repro.workloads.service import build_service_workload


def _sha(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def test_chaos_op_sequence_golden():
    ops = list(op_sequence(build_service_workload(400, seed=7), 40))
    assert len(ops) == 20
    assert _sha(ops) == "ec0230e67525b4b7"


@pytest.mark.parametrize("n,seed,failover_at,at,digest", [
    (600, 11, -1, 450, "2c755a28808e2ba0"),
    (600, 11, 300, 300, "e607d012f8bf4fc8"),
    (2000, 0, -1, 1500, "684d7c7dc18f407b"),
    (2000, 0, 1234, 1234, "f16d2dded848a47a"),
])
def test_failover_script_golden(n, seed, failover_at, at, digest):
    script = failover_script(
        build_service_workload(n, seed=seed), failover_at, 64)
    assert script[0] == at
    assert _sha(script) == digest
