"""What the benchmark measures: workloads, metrics, bounds and geometry.

Workload names, metric names, units, directions and bounds are read
from ``BENCHMARK.json`` at the root of the checkout, the one place they
are written down; this module adds what the file does not hold — the
geometry, the plan cycle and the per-plan metric names.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict

from repro.parallel import REAL_ALGORITHMS

BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
)

#: Every op cycles through the six registered plans in this order.
PLANS = tuple(REAL_ALGORITHMS)

#: Partitions (worker processes per join) — the paper's geometry.
DISKS = 4

#: Seed reserved for confirming a claimed gain after tuning on others
#: (choosing-metrics §6.3).  Never use it while developing a change.
HELD_OUT_SEED = 20261017

RUN_SECONDS = BENCHMARK["run_seconds"]

WORKLOAD_NAMES = tuple(w["name"] for w in BENCHMARK["workloads"])


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float = 0.0


#: Reported with tracing off; ``bound`` is the share of the parent's
#: median by which each may worsen before a change is a regression.
END_TO_END = tuple(Metric(**m) for m in BENCHMARK["end_to_end"])

#: Printed with the end-to-end metrics but carried in the result line as
#: ``failed``/``attempted``: it is 0 on a healthy run, and a metric
#: compared by its median must never be 0.
ERROR_RATE = Metric("error_rate", "fraction", "lower")

#: Reported by the traced run; a plan added to the registry gets its
#: ``plan.<algorithm>.latency_ms_p50`` even before the file lists it.
PER_LAYER = tuple(Metric(**m) for m in BENCHMARK["per_layer"]) + tuple(
    Metric(f"plan.{plan}.latency_ms_p50", "ms", "lower")
    for plan in PLANS
    if not any(
        m["name"] == f"plan.{plan}.latency_ms_p50" for m in BENCHMARK["per_layer"]
    )
)

UNITS: Dict[str, str] = {
    metric.name: metric.unit for metric in (*END_TO_END, ERROR_RATE, *PER_LAYER)
}


@dataclass(frozen=True)
class Geometry:
    """Input sizes and repetition counts of one benchmark mode."""

    paper_scale: float = 1.0
    skew_scale: float = 1.0
    #: Total memory budget of skew-tight, split evenly over the workers:
    #: every bucketed plan descends two ladder rungs at admission and
    #: sort-merge walks to the ladder's floor; no plan fails.
    skew_mem_budget: int = 12 << 20
    serve_scale: float = 0.1
    setup_repeats: int = 5


#: Nominal seconds of one plan cycle (per client for serve-warm) on a
#: 2-vCPU machine.  ``--seconds`` fixes through these the number of whole
#: cycles a run measures, so the op count — and with it the tail's
#: percentile — depends on the arguments only, never on how fast the
#: code under test is.
CYCLE_S = {"paper-cold": 11.0, "skew-tight": 7.5, "serve-warm": 1.6}


def cycles(workload: str, seconds: float) -> int:
    return max(1, round(seconds / CYCLE_S[workload]))


FULL = Geometry()
#: The benchmark's own tests: same code path, seconds instead of minutes.
SMOKE = Geometry(
    paper_scale=0.02,
    skew_scale=0.05,
    skew_mem_budget=1 << 20,
    serve_scale=0.02,
    setup_repeats=1,
)
