"""Golden segment bytes: what every kept store must hold after a join.

``golden_segments.json`` maps a case name to the sha256 of every ``*.seg``
file (relations, spills, runs, bucket files and PAIRS blocks, keyed by
path relative to the store root) that a ``keep_store=True`` join leaves
behind.  A case is one plan on one workload with one set of plan knobs:
each plan at each degradation-ladder rung the governor can leave it on,
each plan force-sharded by the rebalancer, the learned/radix plans and
sort-merge's floor on a zipf workload, and grace driven to the ladder's
floor by a tight budget.

The hashes were recorded from a build that also ran per-record reference
kernels and asserted their bytes equal the columnar kernels' — so they
are the reference output, not just the output of the day.  The pair
checksum is order-independent; these bytes are not, so any drift in
record order, bucket layout, run cutting or headers shows up here.

Regenerate (only from a commit whose output is known to be right)::

    PYTHONPATH=src python tests/parallel/golden.py
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from functools import lru_cache
from pathlib import Path

from repro.parallel import REAL_ALGORITHMS, run_real_join
from repro.workload import WorkloadSpec, generate_workload

GOLDEN = Path(__file__).with_name("golden_segments.json")

PLANS = tuple(sorted(REAL_ALGORITHMS))

#: Degradation-ladder rungs the governor can leave a plan on: each knob
#: here is a value the ladder reaches on its way to the floor.
RUNGS = {
    "default-plan": {},
    "batch-floor": {"batch_records": 64},
    "small-runs": {"irun": 64},
    "finer-buckets": {"buckets": 29, "tsize": 16},
    "no-resident": {"resident_buckets": 0},
    # Sort-merge's floor: many short runs merged under a one-batch budget
    # that gives each run cursor a fraction of a run.
    "ladder-floor": {"irun": 64, "batch_records": 64},
}

#: Workload name -> (spec, disks).
WORKLOADS = {
    # Odd sizes: single-record buckets and uneven partition tails.
    "uniform-1021": (WorkloadSpec(r_objects=1021, s_objects=1021, seed=13), 4),
    # Half the pointers land in a quarter of S: the rebalancer's case.
    "hot-2000": (
        WorkloadSpec(
            r_objects=2_000,
            s_objects=2_000,
            distribution="partition_hot",
            distribution_args={"hot_fraction": 0.5, "hot_span": 0.25},
            seed=13,
        ),
        4,
    ),
    # Heavy pointer skew: the learned partitioner's case.
    "zipf-1021": (
        WorkloadSpec(
            r_objects=1_021,
            s_objects=1_021,
            distribution="zipf",
            distribution_args={"theta": 1.0},
            seed=96,
        ),
        4,
    ),
}


def _cases() -> dict:
    cases = {}
    for plan in PLANS:
        for rung, knobs in RUNGS.items():
            cases[f"{plan}/{rung}"] = ("uniform-1021", plan, knobs)
        cases[f"{plan}/rebalance-on"] = ("hot-2000", plan, {"rebalance": "on"})
        cases[f"{plan}/rebalance-on-floor"] = (
            "hot-2000", plan, {"rebalance": "on", **RUNGS["ladder-floor"]},
        )
    for plan in ("grace-learned", "grace-radix"):
        cases[f"{plan}/zipf"] = ("zipf-1021", plan, {})
    # Hot keys repeat across runs: the merge must deepen tied cursors.
    cases["sort-merge/zipf-floor"] = (
        "zipf-1021", "sort-merge", RUNGS["ladder-floor"],
    )
    cases["grace/tight-budget"] = (
        "uniform-1021",
        "grace",
        {"mem_budget": 64 * 1024, "on_pressure": "degrade"},
    )
    return cases


#: Case name -> (workload name, plan, run_real_join keyword arguments).
CASES = _cases()


@lru_cache(maxsize=None)
def workload(name: str):
    spec, disks = WORKLOADS[name]
    return generate_workload(spec, disks=disks)


def store_digests(root) -> dict:
    """sha256 of every segment file under a kept store, by relative path."""
    root = Path(root)
    return {
        str(path.relative_to(root)): hashlib.sha256(
            path.read_bytes()
        ).hexdigest()
        for path in sorted(root.rglob("*.seg"))
    }


def run_case(name: str, root, **overrides):
    """Run one golden case into ``root`` (kept), returning the result."""
    workload_name, plan, knobs = CASES[name]
    kwargs = {"use_processes": False, **knobs, **overrides}
    return run_real_join(
        plan, workload(workload_name), str(root), keep_store=True, **kwargs
    )


@lru_cache(maxsize=None)
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def segment_drift(name: str, root) -> list:
    """Human-readable differences between a kept store and its golden."""
    expected = golden()[name]
    actual = store_digests(root)
    drift = [
        f"{name}: {path} {'missing' if path not in actual else 'differs'}"
        for path in sorted(expected)
        if actual.get(path) != expected[path]
    ]
    drift += [
        f"{name}: {path} unexpected"
        for path in sorted(set(actual) - set(expected))
    ]
    return drift


def main() -> int:
    recorded = {}
    for name in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp, "db")
            run_case(name, root)
            recorded[name] = store_digests(root)
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(recorded)} cases to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
