"""Tests for the query-workload builders."""

import pytest

from repro.core.association_types import Association
from repro.errors import ConfigurationError
from repro.replication.pair import failover_script
from repro.workloads import (
    build_association_workload,
    build_membership_workload,
    build_multiplicity_workload,
    build_service_workload,
    run_membership_queries,
)


class TestMembershipWorkload:
    def test_members_and_negatives_disjoint(self):
        workload = build_membership_workload(500, 2000, seed=1)
        assert not set(workload.members) & set(workload.negatives)
        assert workload.n == 500

    def test_mixed_queries_shape(self):
        """§6.2.2: 2n queries, n of them members."""
        workload = build_membership_workload(300, 300, seed=1)
        mixed = workload.mixed_queries()
        assert len(mixed) == 600
        members = set(workload.members)
        assert sum(1 for q in mixed if q in members) == 300

    def test_deterministic(self):
        a = build_membership_workload(100, 100, seed=9)
        b = build_membership_workload(100, 100, seed=9)
        assert a.members == b.members
        assert a.negatives == b.negatives

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            build_membership_workload(0, 10)

    def test_mixed_query_batches_preserve_order(self):
        workload = build_membership_workload(100, 100, seed=2)
        batches = workload.mixed_query_batches(64)
        assert [q for batch in batches for q in batch] \
            == workload.mixed_queries()
        assert all(len(batch) <= 64 for batch in batches)
        with pytest.raises(ConfigurationError):
            workload.mixed_query_batches(0)

    def test_run_membership_queries_scalar_vs_batch(self):
        from repro.core import ShiftingBloomFilter

        workload = build_membership_workload(200, 200, seed=3)
        structure = ShiftingBloomFilter(m=8192, k=8)
        structure.add_batch(list(workload.members))
        queries = workload.mixed_queries()
        scalar = run_membership_queries(structure, queries)
        stats_after_scalar = structure.memory.stats.snapshot()
        for batch_size in (1, 37, 128, 10_000):
            assert run_membership_queries(
                structure, queries, batch_size=batch_size) == scalar
        # batch driving bills the same traffic per pass as scalar driving
        delta = structure.memory.stats.diff(stats_after_scalar)
        assert delta.read_ops == 4 * stats_after_scalar.read_ops
        assert delta.read_words == 4 * stats_after_scalar.read_words


class TestAssociationWorkload:
    def test_region_geometry(self):
        workload = build_association_workload(
            n1=1000, n2=1000, n_intersection=250, n_queries=500, seed=1)
        assert workload.n1 == 1000
        assert workload.n2 == 1000
        assert workload.n_intersection == 250
        assert len(workload.s1_only) == 750
        assert len(workload.s2_only) == 750
        assert len(set(workload.s1) & set(workload.s2)) == 250

    def test_queries_balanced_over_regions(self):
        workload = build_association_workload(
            n1=600, n2=600, n_intersection=150, n_queries=3000, seed=2)
        from collections import Counter

        counts = Counter(truth for _, truth in workload.queries)
        for region in Association:
            assert counts[region] == pytest.approx(1000, rel=0.2)

    def test_query_truth_is_consistent(self):
        workload = build_association_workload(
            n1=200, n2=200, n_intersection=50, n_queries=400, seed=3)
        s1_only = set(workload.s1_only)
        both = set(workload.both)
        s2_only = set(workload.s2_only)
        for element, truth in workload.queries:
            if truth is Association.S1_ONLY:
                assert element in s1_only
            elif truth is Association.BOTH:
                assert element in both
            else:
                assert element in s2_only

    def test_empty_intersection_supported(self):
        workload = build_association_workload(
            n1=100, n2=100, n_intersection=0, n_queries=50, seed=1)
        assert workload.n_intersection == 0
        assert all(truth is not Association.BOTH
                   for _, truth in workload.queries)

    def test_oversized_intersection_rejected(self):
        with pytest.raises(ConfigurationError):
            build_association_workload(
                n1=100, n2=100, n_intersection=150, n_queries=10)


class TestMultiplicityWorkload:
    def test_counts_within_cap(self):
        workload = build_multiplicity_workload(
            n_distinct=500, c_max=57, n_absent=100, seed=1)
        assert workload.n_distinct == 500
        assert all(1 <= c <= 57 for _, c in workload.counts)
        assert len(workload.absent_queries) == 100

    def test_absent_disjoint_from_members(self):
        workload = build_multiplicity_workload(
            n_distinct=300, c_max=10, n_absent=300, seed=2)
        assert not set(workload.member_queries) & set(
            workload.absent_queries)

    def test_count_map_and_totals(self):
        workload = build_multiplicity_workload(
            n_distinct=100, c_max=5, seed=3)
        count_map = workload.count_map
        assert len(count_map) == 100
        assert workload.total_occurrences == sum(count_map.values())

    def test_deterministic(self):
        a = build_multiplicity_workload(50, c_max=8, seed=4)
        b = build_multiplicity_workload(50, c_max=8, seed=4)
        assert a.counts == b.counts

    def test_unrealistic_c_max_rejected(self):
        with pytest.raises(ConfigurationError):
            build_multiplicity_workload(10, c_max=100000)


class TestReplicationWorkload:
    """The failover drill's kill point, write split and read mix."""

    def test_failover_split_is_exact(self):
        workload = build_service_workload(1000, seed=2)
        assert failover_script(workload, -1, 64)[0] == 750  # 3/4
        assert failover_script(workload, 333, 64)[0] == 333
        assert failover_script(workload, 1000, 64)[0] == 1000

    def test_write_batches_never_straddle_the_kill(self):
        workload = build_service_workload(1000, seed=2)
        _, pre, post, _ = failover_script(workload, 333, 64)
        assert all(len(batch) <= 64 for batch in pre + post)
        assert tuple(e for batch in pre for e in batch) == (
            workload.members[:333])
        assert tuple(e for batch in post for e in batch) == (
            workload.members[333:])

    def test_read_mix_interleaves_acknowledged_and_absent(self):
        workload = build_service_workload(400, seed=3)
        at, _, _, mix = failover_script(workload, -1, 64)
        assert len(mix) == 2 * at
        assert tuple(mix[0::2]) == workload.members[:at]
        assert tuple(mix[1::2]) == workload.absent[:at]
        assert not set(mix[0::2]) & set(mix[1::2])

    def test_deterministic_by_seed(self):
        a = build_service_workload(200, seed=7)
        assert a == build_service_workload(200, seed=7)
        assert a != build_service_workload(200, seed=8)
        assert failover_script(a, -1, 64) == failover_script(
            build_service_workload(200, seed=7), -1, 64)

    def test_failover_beyond_stream_rejected(self):
        with pytest.raises(ConfigurationError):
            failover_script(build_service_workload(100), 101, 64)
