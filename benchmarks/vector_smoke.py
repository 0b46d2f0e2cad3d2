"""CI smoke bench: the columnar stage kernels at scale 0.2, checked
against the workload oracle, with an end-to-end pairs/sec regression gate.

Standalone (no pytest): ``PYTHONPATH=src python benchmarks/vector_smoke.py``.
Runs the six registered plans (including the radix/learned partitioner
variants of grace) at 1/5th of the paper's validation geometry and
asserts every run reproduces the oracle's pair count and checksum.

Methodology mirrors ``bench_ext_real_mmap.py``: a plan's pass cost is the
best (minimum) summed join-pass wall over the rounds, since I/O noise is
strictly additive; ``pairs_per_sec`` divides pairs by that best pass wall.
Pass throughput is reported, not gated.

The end-to-end gate times what a caller waits for: ``generate_workload``
plus ``run_real_join(collect_pairs=True)`` (materialize, passes, pair
collection), best of the rounds per plan, and holds the six plans'
aggregate pairs/sec above ``END_TO_END_FLOOR``.
"""

import json
import sys
import tempfile
import time

from repro import config
from repro.joins.reference import expected_checksum
from repro.parallel import run_real_join
from repro.workload import WorkloadSpec, generate_workload

ALGORITHMS = (
    "nested-loops",
    "sort-merge",
    "grace",
    "grace-radix",
    "grace-learned",
    "hybrid-hash",
)
SCALE = 0.2
ROUNDS = 3

#: Six-plan aggregate of end-to-end pairs/sec (generate + join + collect,
#: inline workers, best of ROUNDS).  Measured on 2 vCPUs: ~235k with the
#: columnar data path, ~60k with the per-object one it replaced; the
#: floor sits a factor ~2 from each, so the old path fails it and a
#: runner half as fast passes.
END_TO_END_FLOOR = 120_000


def measure(workload, algorithm):
    pass_walls = []
    result = None
    for _ in range(ROUNDS):
        with tempfile.TemporaryDirectory() as root:
            result = run_real_join(
                algorithm, workload, root, use_processes=False,
                collect_metrics=False,
            )
        pass_walls.append(sum(result.pass_wall_ms.values()))
    best = min(pass_walls)
    return {
        "pass_ms": best,
        "pair_count": result.pair_count,
        "checksum": result.checksum,
        "pairs_per_sec": result.pair_count / (best / 1000.0),
    }


def measure_end_to_end(spec, algorithm):
    best = None
    for _ in range(ROUNDS):
        with tempfile.TemporaryDirectory() as root:
            started = time.perf_counter()
            workload = generate_workload(spec, disks=4)
            result = run_real_join(
                algorithm, workload, root, use_processes=False,
                collect_metrics=False, collect_pairs=True,
            )
            wall = time.perf_counter() - started
        best = wall if best is None else min(best, wall)
    return {
        "wall_ms": best * 1000.0,
        "pair_count": len(result.pairs),
        "checksum": result.checksum,
        "pairs_per_sec": len(result.pairs) / best,
    }


def main() -> int:
    spec = WorkloadSpec.paper_validation(scale=SCALE)
    workload = generate_workload(spec, disks=4)
    oracle = (workload.r_objects_total, expected_checksum(workload))
    report = {"scale": SCALE, "rounds": ROUNDS, "algorithms": {}}
    failures = []
    for algorithm in ALGORITHMS:
        passes = measure(workload, algorithm)
        if (passes["pair_count"], passes["checksum"]) != oracle:
            failures.append(
                f"{algorithm}: {passes['pair_count']} pairs / checksum "
                f"{passes['checksum']} disagree with the oracle's "
                f"{oracle[0]} / {oracle[1]}"
            )
        report["algorithms"][algorithm] = {"passes": passes}
        print(
            f"{algorithm:>14}: passes {passes['pass_ms']:7.1f} ms | "
            f"{passes['pairs_per_sec']:,.0f} pairs/sec"
        )

    e2e_pairs = e2e_seconds = 0.0
    for algorithm in ALGORITHMS:
        e2e = measure_end_to_end(spec, algorithm)
        if (e2e["pair_count"], e2e["checksum"]) != oracle:
            failures.append(f"{algorithm}: end-to-end run disagrees")
        report["algorithms"][algorithm]["end_to_end"] = e2e
        e2e_pairs += e2e["pair_count"]
        e2e_seconds += e2e["wall_ms"] / 1000.0
        print(
            f"{algorithm:>14}: end to end {e2e['wall_ms']:7.1f} ms | "
            f"{e2e['pairs_per_sec']:,.0f} pairs/sec"
        )
    e2e_rate = e2e_pairs / e2e_seconds
    report["end_to_end_pairs_per_sec"] = e2e_rate
    print(
        f"{'end to end':>14}: {e2e_rate:,.0f} pairs/sec "
        f"(floor {END_TO_END_FLOOR:,})"
    )
    if e2e_rate < END_TO_END_FLOOR:
        failures.append(
            f"end-to-end {e2e_rate:,.0f} pairs/sec fell below the "
            f"{END_TO_END_FLOOR:,} floor"
        )

    out = config.env_value("smoke_out")
    if out:
        with open(out, "w") as handle:
            json.dump(report, handle, indent=2)

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
