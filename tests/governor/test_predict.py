"""Footprint prediction: the ladder, the fit loop, and model accuracy.

The accuracy contract (the issue's acceptance): for every real algorithm,
at a generous and at a tight memory budget, the worker-observed high-water
mark never exceeds the model's prediction, and the prediction is not
uselessly loose — within ``TOLERANCE``× of what was observed.
"""

import pytest

from repro.governor import JoinPlan, fit_plan, predict_footprint
from repro.governor.predict import (
    MAX_BUCKETS,
    MIN_BATCH_RECORDS,
    MIN_IRUN,
    PAGE_SIZE,
    PAIR_RECORD_BYTES,
)
from repro.parallel import REAL_ALGORITHMS, run_real_join
from repro.parallel.engine import plan_for
from repro.storage.relation import PAIR_RECORD_BYTES as REAL_PAIR_BYTES
from repro.storage.segment import PAGE_SIZE as REAL_PAGE_SIZE
from repro.workload import WorkloadSpec, generate_workload

R_OBJECTS = 300

#: Predicted may exceed observed by at most this factor (model looseness);
#: observed exceeding predicted at all is a model violation.
TOLERANCE = 3.0

#: (label, total mem budget): ~85% and ~9% of this workload's |R| bytes.
MEMORY_FRACTIONS = [("generous", 1 << 16), ("tight", 32 * 1024)]


@pytest.fixture(scope="module")
def workload():
    return generate_workload(
        WorkloadSpec(r_objects=R_OBJECTS, s_objects=R_OBJECTS, seed=7),
        disks=2,
    )


def test_mirrored_constants_match_storage():
    """predict.py duplicates these to stay import-cycle-free; pin them."""
    assert PAGE_SIZE == REAL_PAGE_SIZE
    assert PAIR_RECORD_BYTES == REAL_PAIR_BYTES


class TestLadder:
    def test_nested_loops_halves_batch_to_floor(self):
        plan = JoinPlan(batch_records=256)
        plan = plan.degraded("nested-loops")
        assert plan.batch_records == 128
        plan = plan.degraded("nested-loops")
        assert plan.batch_records == MIN_BATCH_RECORDS
        assert plan.degraded("nested-loops") == plan  # floor: no change

    def test_sort_merge_shrinks_runs_before_batches(self):
        plan = JoinPlan(batch_records=128, irun=128)
        plan = plan.degraded("sort-merge")
        assert (plan.irun, plan.batch_records) == (MIN_IRUN, 128)
        plan = plan.degraded("sort-merge")
        assert plan.batch_records == MIN_BATCH_RECORDS
        assert plan.degraded("sort-merge") == plan

    @pytest.mark.parametrize("runs", [1, 4, 64])
    def test_merge_high_water_is_one_batch_for_any_run_count(self, runs):
        """The k-way merge divides one batch among its runs, so the merge
        stage costs ``merge_batch x (r + s)`` however many runs it has."""
        workload = generate_workload(
            WorkloadSpec(r_objects=4_096, s_objects=4_096, seed=7), disks=2
        )
        merge = next(
            stage.label for stage in plan_for("sort-merge").stages
            if stage.kind == "merge"
        )
        for irun in range(1, 4_097):
            plan = JoinPlan(batch_records=64, irun=irun)
            estimate = predict_footprint("sort-merge", workload, plan)
            if estimate.details["merge_runs"] == runs:
                break
        else:
            pytest.fail(f"no irun cuts {runs} runs")
        r, s = workload.spec.r_bytes, workload.spec.s_bytes
        assert estimate.per_pass_mem_bytes[merge] == 64 * (r + s)

    def test_skewed_sort_merge_fits_a_tight_budget_unchanged(self):
        """partition_hot at paper scale (skew ~2.5) under a 3 MiB worker
        budget: the bounded merge fits the default plan, where a merge
        buffering a batch per run walked the whole ladder."""
        workload = generate_workload(
            WorkloadSpec(
                r_objects=102_400, s_objects=102_400,
                distribution="partition_hot",
            ),
            disks=4,
        )
        plan, steps, estimate = fit_plan(
            "sort-merge", workload, JoinPlan(), 3 << 20
        )
        assert steps == 0
        assert plan == JoinPlan()
        assert estimate.mem_high_water_bytes <= 3 << 20

    def test_grace_ladder_order(self):
        plan = JoinPlan(batch_records=128, buckets=16)
        first = plan.degraded("grace")
        assert first.spill_threshold == 4 * 128  # rung 1: chunked spilling
        second = first.degraded("grace")
        assert second.spill_threshold < first.spill_threshold  # rung 2
        current = second
        for _ in range(64):
            lowered = current.degraded("grace")
            if lowered == current:
                break
            current = lowered
        assert current.batch_records == MIN_BATCH_RECORDS
        assert current.buckets == MAX_BUCKETS  # last rung: finer buckets

    def test_disk_pressure_shrinks_batches(self):
        plan = JoinPlan(batch_records=256)
        for algorithm in REAL_ALGORITHMS:
            lowered = plan.degraded(algorithm, resource="disk")
            assert lowered.batch_records == 128


class TestFitPlan:
    @pytest.mark.parametrize("algorithm", sorted(REAL_ALGORITHMS))
    def test_generous_budget_needs_no_fitting(self, workload, algorithm):
        plan = JoinPlan()
        fitted, steps, estimate = fit_plan(algorithm, workload, plan, 1 << 20)
        assert steps == 0
        assert fitted == plan
        assert estimate.mem_high_water_bytes <= 1 << 20

    @pytest.mark.parametrize("algorithm", sorted(REAL_ALGORITHMS))
    def test_tight_budget_descends_and_fits(self, workload, algorithm):
        budget = 16 * 1024
        fitted, steps, estimate = fit_plan(
            algorithm, workload, JoinPlan(), budget
        )
        assert steps >= 1
        assert estimate.mem_high_water_bytes <= budget

    @pytest.mark.parametrize("algorithm", sorted(REAL_ALGORITHMS))
    def test_prediction_scales_down_the_ladder(self, workload, algorithm):
        full = predict_footprint(algorithm, workload, JoinPlan())
        floored, _, low = fit_plan(algorithm, workload, JoinPlan(), 16 * 1024)
        assert low.mem_high_water_bytes <= full.mem_high_water_bytes
        assert floored != JoinPlan()


class TestPredictedVsObserved:
    @pytest.mark.parametrize("algorithm", sorted(REAL_ALGORITHMS))
    @pytest.mark.parametrize("label,mem_budget", MEMORY_FRACTIONS)
    def test_observed_within_tolerance(
        self, workload, algorithm, label, mem_budget, tmp_path
    ):
        result = run_real_join(
            algorithm, workload, str(tmp_path / "db"), use_processes=False,
            mem_budget=mem_budget, on_pressure="degrade",
        )
        governor = result.governor
        predicted = governor["predicted"]["mem_high_water_bytes"]
        observed = governor["observed"]["worker_mem_high_water_bytes"]
        assert observed is not None
        # Upper bound: the model must never under-predict the meter.
        assert observed <= predicted, (algorithm, label, observed, predicted)
        # Looseness bound: nor over-predict into uselessness.
        assert predicted <= TOLERANCE * max(observed, PAGE_SIZE), (
            algorithm, label, observed, predicted
        )

    @pytest.mark.parametrize("algorithm", sorted(REAL_ALGORITHMS))
    def test_disk_prediction_covers_observed_peak(
        self, workload, algorithm, tmp_path
    ):
        result = run_real_join(
            algorithm, workload, str(tmp_path / "db"), use_processes=False,
            mem_budget=1 << 20, on_pressure="degrade",
        )
        governor = result.governor
        predicted = governor["predicted"]["disk_bytes"]
        observed = governor["observed"]["disk_peak_bytes"]
        assert 0 < observed <= predicted, (algorithm, observed, predicted)

    def test_merge_observed_high_water_is_one_batch(self, workload, tmp_path):
        """Ten-odd short runs per partition merged with 64-record batches:
        the run cursors share one batch, so every merge worker stays
        within ``64 x (r + s)`` however many runs it drains."""
        result = run_real_join(
            "sort-merge", workload, str(tmp_path / "db"), use_processes=False,
            irun=16, batch_records=64,
        )
        bound = 64 * (workload.spec.r_bytes + workload.spec.s_bytes)
        merge_workers = result.worker_metrics["merge-join"].values()
        assert merge_workers
        for snapshot in merge_workers:
            (high_water,) = [
                value for key, value in snapshot["gauges"].items()
                if key.startswith("worker.mem_high_water_bytes")
            ]
            assert 0 < high_water <= bound
