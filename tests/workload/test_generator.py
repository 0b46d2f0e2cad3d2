"""Tests for workload generation."""

import numpy as np
import pytest

from repro.core.partition import workload_skew
from repro.core.records import RObject, SObject
from repro.parallel import run_real_join
from repro.workload import DISTRIBUTIONS, WorkloadSpec, generate_workload


class TestWorkloadSpec:
    def test_paper_validation_full_scale(self):
        spec = WorkloadSpec.paper_validation(scale=1.0)
        assert spec.r_objects == spec.s_objects == 102_400
        assert spec.r_bytes == 128

    def test_scale_shrinks_proportionally(self):
        spec = WorkloadSpec.paper_validation(scale=0.1)
        assert spec.r_objects == 10_240

    def test_scale_floor(self):
        assert WorkloadSpec.paper_validation(scale=1e-9).r_objects == 64

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            WorkloadSpec.paper_validation(scale=0)

    def test_rejects_empty_relations(self):
        with pytest.raises(ValueError):
            WorkloadSpec(r_objects=0)


class TestGeneration:
    def test_deterministic_by_seed(self):
        a = generate_workload(WorkloadSpec(r_objects=200, s_objects=200, seed=1), 4)
        b = generate_workload(WorkloadSpec(r_objects=200, s_objects=200, seed=1), 4)
        assert a.r_partitions == b.r_partitions
        assert a.s_objects == b.s_objects

    def test_different_seeds_differ(self):
        a = generate_workload(WorkloadSpec(r_objects=200, s_objects=200, seed=1), 4)
        b = generate_workload(WorkloadSpec(r_objects=200, s_objects=200, seed=2), 4)
        assert a.r_partitions != b.r_partitions

    def test_partitions_equal_sized(self):
        wl = generate_workload(WorkloadSpec(r_objects=1000, s_objects=1000), 4)
        sizes = [len(p) for p in wl.r_partitions]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == 1000

    def test_pointers_in_range(self):
        wl = generate_workload(WorkloadSpec(r_objects=500, s_objects=100), 2)
        for partition in wl.r_partitions:
            for obj in partition:
                assert 0 <= obj.sptr < 100

    def test_rids_unique(self):
        wl = generate_workload(WorkloadSpec(r_objects=500, s_objects=100), 2)
        rids = [o.rid for p in wl.r_partitions for o in p]
        assert len(set(rids)) == 500

    def test_s_objects_at_their_index(self):
        wl = generate_workload(WorkloadSpec(r_objects=100, s_objects=100), 2)
        for i, obj in enumerate(wl.s_objects):
            assert obj.sid == i

    def test_s_partition_slices(self):
        wl = generate_workload(WorkloadSpec(r_objects=100, s_objects=100), 4)
        parts = [wl.s_partition(i) for i in range(4)]
        assert [len(p) for p in parts] == [25, 25, 25, 25]
        assert [o for p in parts for o in p] == wl.s_objects

    def test_rejects_nonpositive_disks(self):
        with pytest.raises(ValueError):
            generate_workload(WorkloadSpec(r_objects=10, s_objects=10), 0)


class TestWorkloadDescription:
    def test_uniform_skew_near_one(self):
        wl = generate_workload(
            WorkloadSpec(r_objects=20_000, s_objects=20_000, seed=5), 4
        )
        assert 1.0 <= wl.measured_skew() < 1.15

    def test_hot_distribution_raises_skew(self):
        wl = generate_workload(
            WorkloadSpec(
                r_objects=20_000,
                s_objects=20_000,
                distribution="partition_hot",
                distribution_args={"hot_fraction": 0.8, "hot_span": 0.2},
                seed=5,
            ),
            4,
        )
        assert wl.measured_skew() > 1.5

    def test_relation_parameters_carry_measured_skew(self):
        wl = generate_workload(WorkloadSpec(r_objects=2000, s_objects=2000), 4)
        rel = wl.relation_parameters()
        assert rel.r_objects == 2000
        assert rel.skew == pytest.approx(wl.measured_skew())

    def test_relation_parameters_unit_skew_option(self):
        wl = generate_workload(WorkloadSpec(r_objects=2000, s_objects=2000), 4)
        assert wl.relation_parameters(measured_skew=False).skew == 1.0

    def test_expected_pairs_cover_all_r(self):
        wl = generate_workload(WorkloadSpec(r_objects=300, s_objects=300), 3)
        pairs = wl.expected_pairs()
        assert len(pairs) == 300
        assert all(sid == wl.s_objects[sid].sid for _, sid in pairs)


class TestColumns:
    """The workload is its u64 columns; object views are derived on demand."""

    @pytest.fixture
    def wl(self):
        return generate_workload(
            WorkloadSpec(r_objects=1001, s_objects=777, seed=3), 3
        )

    def test_columns_are_read_only(self, wl):
        for column in (wl.r_rid, wl.r_sptr, wl.r_payload, wl.s_value, wl.s_payload):
            assert column.dtype == np.uint64
            with pytest.raises(ValueError):
                column[0] = 1

    def test_object_views_follow_the_columns(self, wl):
        for i in range(wl.disks):
            rid, sptr, payload = wl.r_columns(i)
            assert wl.r_partitions[i] == [
                RObject(*fields)
                for fields in zip(rid.tolist(), sptr.tolist(), payload.tolist())
            ]
            sid, value, payload = wl.s_columns(i)
            assert wl.s_partition(i) == [
                SObject(*fields)
                for fields in zip(sid.tolist(), value.tolist(), payload.tolist())
            ]

    @pytest.mark.parametrize("distribution", sorted(DISTRIBUTIONS))
    def test_measured_skew_equals_the_object_level_statistic(self, distribution):
        wl = generate_workload(
            WorkloadSpec(
                r_objects=3001, s_objects=2000, distribution=distribution, seed=9
            ),
            4,
        )
        assert wl.measured_skew() == workload_skew(wl.r_partitions, wl.pointer_map)

    def test_measured_skew_is_cached(self, wl):
        assert wl.measured_skew() is wl.measured_skew()

    def test_a_real_join_never_builds_the_object_views(self, wl, tmp_path):
        result = run_real_join(
            "grace", wl, str(tmp_path / "store"), use_processes=False,
            mem_budget=64 << 20,
        )
        result.stats_document(wl)
        assert len(result.pairs) == wl.r_objects_total
        assert "r_partitions" not in vars(wl)
        assert "s_objects" not in vars(wl)
