"""Vector-kernel equivalence: every plan reproduces the workload oracle and
the golden segment bytes.

The stage kernels are numpy columnar bodies.  Their reference is two-fold:
the workload oracle (pair count, order-independent checksum, the exact
multiset of pairs) and ``golden_segments.json`` (the sha256 of every
segment a kept store holds — relations, spills, runs, bucket files and
PAIRS blocks — recorded from a build whose per-record reference kernels
produced the same bytes; see :mod:`tests.parallel.golden`).  Every
configuration here runs the join and asserts both: identical pairs, and
byte-identical segment files on disk, at every ladder rung, after a crash
in every pass, and at the ladder's floor under a tight budget.
"""

import pytest

from repro.joins import verify_pairs
from repro.joins.reference import expected_checksum
from repro.parallel import FaultPlan
from tests.parallel.golden import (
    CASES,
    PLANS,
    RUNGS,
    golden,
    run_case,
    segment_drift,
    store_digests,
    workload,
)


def assert_matches_oracle(name, result):
    data = workload(CASES[name][0])
    assert result.pair_count == data.r_objects_total
    assert result.checksum == expected_checksum(data)
    if result.pairs is not None:
        assert verify_pairs(data, result.pairs) == data.r_objects_total


def assert_matches_golden(name, root):
    drift = segment_drift(name, root)
    assert not drift, "\n".join(drift)


class TestKernelEquivalence:
    @pytest.mark.parametrize("algorithm", PLANS)
    @pytest.mark.parametrize("rung", list(RUNGS))
    def test_rung_equivalence(self, algorithm, rung, tmp_path):
        name = f"{algorithm}/{rung}"
        result = run_case(name, tmp_path / "db")
        assert_matches_oracle(name, result)
        assert_matches_golden(name, tmp_path / "db")

    @pytest.mark.parametrize("algorithm", PLANS)
    def test_segment_bytes_identical(self, algorithm, tmp_path):
        """Pool workers write the same store, file by file: same segment
        names, same bytes — headers, bucket directories, pair blocks."""
        name = f"{algorithm}/default-plan"
        result = run_case(name, tmp_path / "db", use_processes=True)
        assert_matches_oracle(name, result)
        actual = store_digests(tmp_path / "db")
        assert sorted(actual) == sorted(golden()[name]) and actual
        assert_matches_golden(name, tmp_path / "db")

    def test_tight_memory_budget_degrades_identically(self, tmp_path):
        """A budget that drives grace down to the ladder's floor changes
        the plan, never the bytes that plan writes."""
        name = "grace/tight-budget"
        result = run_case(name, tmp_path / "db")
        assert_matches_oracle(name, result)
        assert result.governor["degradations_total"] >= 1
        assert_matches_golden(name, tmp_path / "db")

    @pytest.mark.parametrize("algorithm", PLANS)
    def test_crash_recovery_equivalence(self, algorithm, tmp_path):
        """A crash in every pass plus retries leaves output equal to a
        clean run and the golden store: retried passes overwrite torn
        state completely."""
        name = f"{algorithm}/default-plan"
        clean = run_case(name, tmp_path / "clean")
        recovered = run_case(
            name, tmp_path / "faulted",
            fault_plan=FaultPlan.crash_every_pass(algorithm), retries=2,
        )
        assert recovered.retries_total > 0
        assert recovered.pair_count == clean.pair_count
        assert recovered.checksum == clean.checksum
        assert recovered.pass_counts == clean.pass_counts
        assert recovered.pass_checksums == clean.pass_checksums
        assert_matches_oracle(name, recovered)
        assert_matches_golden(name, tmp_path / "faulted")


@pytest.mark.parametrize(
    "name", [name for name in CASES if "/zipf" in name or "/rebalance" in name]
)
def test_skewed_cases_match_golden(name, tmp_path):
    """The golden cases the tests above do not run: force-sharded plans
    on a partition_hot workload and the zipf cases."""
    result = run_case(name, tmp_path / "db")
    assert_matches_oracle(name, result)
    assert_matches_golden(name, tmp_path / "db")


def test_every_golden_case_is_defined():
    assert sorted(golden()) == sorted(CASES)
