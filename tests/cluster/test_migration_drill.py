"""The seeded end-to-end migration drill as the acceptance test.

Continuous reads+writes through a :class:`ClusterClient` while a hot
shard migrates between live in-process nodes; every verdict replayed
against a fault-free single-store reference.  The drill's invariants
are the PR's acceptance bar, so the test asserts each one separately —
a failure names the broken guarantee, not just ``ok == False``.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.cluster.drill import (
    ClusterDrillConfig,
    run_cluster_drill,
    run_cluster_drill_async,
    start_local_cluster,
)
from repro.errors import ConfigurationError
from repro.store.spec import StoreSpec
from repro.workloads.service import build_service_workload

SMALL = dict(n_nodes=3, n_shards=8, m=16384, k=4, n_members=900,
             n_ops=36, per_request=48, migrate_after_ops=8)


class TestDrillInvariants:
    @pytest.mark.parametrize("seed", [0, 7])
    def test_drill_holds_every_invariant(self, seed):
        report = run_cluster_drill(ClusterDrillConfig(seed=seed, **SMALL))
        invariants = report["invariants"]
        assert invariants["zero_wrong_verdicts"], report["ops"]
        assert invariants["zero_lost_or_duplicate_writes"], \
            report["writes_accounting"]
        assert invariants["bounded_stall"], report["ops"]
        assert invariants["epoch_advanced"], report["epochs"]
        assert report["ok"]

    def test_drill_really_migrated(self):
        report = run_cluster_drill(ClusterDrillConfig(seed=1, **SMALL))
        migration = report["migration"]
        assert migration["to_epoch"] == migration["from_epoch"] + 1
        assert migration["source"] != migration["target"]
        assert migration["snapshot_bytes"] > 0
        # Every node ends at the successor epoch.
        assert set(report["epochs"].values()) == {migration["to_epoch"]}

    def test_drill_exercises_load_during_migration(self):
        report = run_cluster_drill(ClusterDrillConfig(seed=2, **SMALL))
        assert report["ops"]["reads"] > 0
        assert report["ops"]["writes"] > 0
        assert report["ops"]["max_stall_op_latency_s"] \
            <= report["config"]["stall_budget_s"]
        # The full sweep re-checked the whole universe.
        assert report["ops"]["wrong_verdicts_sweep"] == 0

    def test_accounting_is_exact_not_approximate(self):
        report = run_cluster_drill(ClusterDrillConfig(seed=3, **SMALL))
        accounting = report["writes_accounting"]
        assert accounting["cluster_n_items"] \
            == accounting["reference_n_items"] \
            == report["config"]["n_members"]


class TestExternalDrill:
    """``--external`` drills a fleet built at someone else's geometry.

    The live nodes run m, k and family unlike the drill config's
    defaults, at a load where absent elements hit false positives; the
    reference must still agree with them bit for bit.
    """

    FLEET = ClusterDrillConfig(n_nodes=3, n_shards=8, m=2048, k=6,
                               family="blake2b")

    def test_fleet_geometry_produces_false_positives(self):
        # Guards the test below: at this load a reference of the wrong
        # geometry or family would disagree on absent elements.
        default = ClusterDrillConfig()
        workload = build_service_workload(default.n_members,
                                          seed=default.seed)
        store = StoreSpec(shards=8, m=self.FLEET.m, k=self.FLEET.k,
                          family=self.FLEET.family).build()
        store.add_batch(list(workload.members))
        assert store.query_batch(list(workload.absent)).sum() > 50

    def test_default_config_drills_a_foreign_fleet_exactly(self):
        async def main():
            fleet = await start_local_cluster(self.FLEET)
            try:
                return await run_cluster_drill_async(
                    ClusterDrillConfig(endpoints=fleet.endpoints))
            finally:
                await fleet.close()

        report = asyncio.run(main())
        assert report["mode"] == "external"
        assert (report["config"]["m"], report["config"]["k"],
                report["config"]["family"]) == (2048, 6, "blake2b")
        assert report["ops"]["wrong_verdicts_live"] == 0
        assert report["ops"]["wrong_verdicts_sweep"] == 0
        assert report["ok"], report["invariants"]


class TestDrillConfig:
    def test_single_node_refused(self):
        with pytest.raises(ConfigurationError):
            ClusterDrillConfig(n_nodes=1)

    def test_bad_write_fraction_refused(self):
        with pytest.raises(ConfigurationError):
            ClusterDrillConfig(write_fraction=1.5)

    def test_bad_stall_budget_refused(self):
        with pytest.raises(ConfigurationError):
            ClusterDrillConfig(stall_budget_s=0)
