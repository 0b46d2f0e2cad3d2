"""The pass-pipeline engine: plan registry, dispatch edge cases, recovery.

These tests pin the engine's contracts rather than any one algorithm:
plans are validated declaratively, degenerate geometries (empty
partitions, a single disk) flow through the same executor path, and a
stage that faults on every attempt exhausts the retry budget, classifies
the failure, and leaves the store swept clean.
"""

import pytest

from repro.joins import verify_pairs
from repro.parallel import (
    FaultPlan,
    FaultSpec,
    REAL_ALGORITHMS,
    RealJoinError,
    run_real_join,
)
from repro.parallel.engine.stages import (
    ConservationRule,
    PassPlan,
    PassPlanError,
    ScanJoinStage,
    algorithms,
    plan_for,
)
from repro.workload import WorkloadSpec, generate_workload


def _stage(label="scan", kernel="nested_loops_pass0", emits="pairs"):
    return ScanJoinStage(label=label, kernel=kernel, emits=emits)


class TestPlanRegistry:
    def test_every_algorithm_has_a_plan(self):
        assert set(algorithms()) == set(REAL_ALGORITHMS)
        for algorithm in REAL_ALGORITHMS:
            plan = plan_for(algorithm)
            assert plan is not None and plan.algorithm == algorithm
            assert plan.stages  # non-empty by construction

    def test_unknown_algorithm_has_no_plan(self):
        assert plan_for("hash-loops") is None

    def test_duplicate_registration_rejected(self):
        from repro.parallel.engine.stages import register_plan

        with pytest.raises(PassPlanError, match="already registered"):
            register_plan(PassPlan("nested-loops", (_stage(),)))


class TestPlanValidation:
    def test_empty_stages_rejected(self):
        with pytest.raises(PassPlanError, match="needs stages"):
            PassPlan("x", ())

    def test_duplicate_labels_rejected(self):
        with pytest.raises(PassPlanError, match="duplicate stage label"):
            PassPlan("x", (_stage("a"), _stage("a", "nested_loops_pass1")))

    def test_unknown_emits_rejected(self):
        with pytest.raises(PassPlanError, match="emits"):
            _stage(emits="bogus")

    def test_conservation_rule_must_reference_known_stages(self):
        with pytest.raises(PassPlanError, match="unknown stage"):
            PassPlan(
                "x",
                (_stage("a"),),
                conservation=(
                    ConservationRule("pairs", (("ghost", "pairs"),)),
                ),
            )


class TestDegenerateGeometries:
    @pytest.mark.parametrize("algorithm", sorted(REAL_ALGORITHMS))
    def test_single_partition(self, algorithm, tmp_path):
        """disks=1: no redistribution targets, no pool — every plan must
        degenerate to a local join with the full answer."""
        workload = generate_workload(
            WorkloadSpec(r_objects=120, s_objects=120, seed=11), disks=1
        )
        result = run_real_join(
            algorithm, workload, str(tmp_path / algorithm),
        )
        assert verify_pairs(workload, result.pairs) == 120

    @pytest.mark.parametrize("algorithm", sorted(REAL_ALGORITHMS))
    def test_empty_partition(self, algorithm, tmp_path):
        """More disks than R objects leaves a partition with no records;
        its stages must still run (and conserve zero) for the barrier to
        release."""
        workload = generate_workload(
            WorkloadSpec(r_objects=3, s_objects=40, seed=13), disks=4
        )
        result = run_real_join(
            algorithm, workload, str(tmp_path / algorithm),
            use_processes=False,
        )
        assert verify_pairs(workload, result.pairs) == 3


class TestRetryExhaustion:
    @pytest.fixture()
    def workload(self):
        return generate_workload(
            WorkloadSpec(r_objects=60, s_objects=60, seed=17), disks=2
        )

    def test_stage_faulting_every_attempt_exhausts_budget(
        self, workload, tmp_path
    ):
        """Pool attempts, plus the inline fallback, all crash: the engine
        must give up with a classified RealJoinError naming the stage and
        the attempt budget — and sweep the store."""
        root = tmp_path / "db"
        every_attempt = FaultPlan(
            [
                FaultSpec("crash", "grace_partition", 1, attempt=a)
                for a in range(4)  # 1 + retries pool tries, then inline
            ]
        )
        with pytest.raises(RealJoinError) as info:
            run_real_join(
                "grace", workload, str(root), use_processes=False,
                retries=2, fault_plan=every_attempt,
            )
        message = str(info.value)
        assert "grace partition" in message
        assert "grace_partition" in message
        assert "3 attempt(s)" in message
        assert not root.exists()  # swept and destroyed on failure

    def test_budget_that_survives_one_attempt_recovers(
        self, workload, tmp_path
    ):
        crash_twice = FaultPlan(
            [
                FaultSpec("crash", "grace_partition", 1, attempt=0),
                FaultSpec("crash", "grace_partition", 1, attempt=1),
            ]
        )
        result = run_real_join(
            "grace", workload, str(tmp_path / "db"), use_processes=False,
            retries=2, fault_plan=crash_twice,
        )
        assert result.retries_total >= 2
        assert verify_pairs(workload, result.pairs) == 60
