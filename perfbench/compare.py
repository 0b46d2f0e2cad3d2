"""Compare two sets of benchmark runs, workload by workload.

    python3 perfbench/compare.py BASE NEW

``BASE`` and ``NEW`` are directories (or files) of run records written
by ``run.py --record``; only untraced records are compared.  Make the
two sets alternately — parent then change, change then parent, … — with
the same seeds on both sides: runs pair up per workload in seed order.

For every workload and end-to-end metric it prints both medians and
quartiles, the share of pairs the change won, and a verdict
(choosing-metrics §6–8, bounds from ``BENCHMARK.json``):

* ``improved``: the change won at least 9/10 of the pairs and the
  medians differ by more than the parent's quartile spread;
* ``unresolved``: the run-to-run spread exceeds the bound, unless every
  run of the change beats every run of the parent;
* ``regressed``: the change's median is worse by more than the bound,
  and the spread is within the bound or every run of the change is
  worse than every run of the parent;
* ``no worse`` otherwise.

``error_rate`` is compared as failed over attempted across all runs: any
increase is a regression.  Exit code 1 when anything regressed.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

import stats

ROOT = Path(__file__).resolve().parent.parent


def load_runs(path: Path) -> Dict[str, Dict[int, dict]]:
    """Untraced run records by workload, then seed."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs: Dict[str, Dict[int, dict]] = defaultdict(dict)
    for file in files:
        record = json.loads(file.read_text())
        provenance = record.get("provenance", {})
        if provenance.get("trace"):
            continue
        runs[provenance["workload"]][provenance["seed"]] = record
    return runs


def verdict(base: List[float], new: List[float], better: str, bound: float,
            pairs: List[Tuple[float, float]]) -> Tuple[str, float]:
    """The verdict for one metric and the share of pairs the change won."""
    sign = -1.0 if better == "lower" else 1.0  # sign * value: higher is better
    won = sum(1 for b, n in pairs if sign * (n - b) > 0) / max(1, len(pairs))
    base_q, new_q = stats.quartiles(base), stats.quartiles(new)
    gain = sign * (new_q[1] - base_q[1])
    spread = max((q[2] - q[0]) / abs(q[1]) if q[1] else 0.0 for q in (base_q, new_q))
    all_better = min(sign * v for v in new) > max(sign * v for v in base)
    all_worse = max(sign * v for v in new) < min(sign * v for v in base)
    if won >= 0.9 and gain > base_q[2] - base_q[0]:
        return "improved", won
    if -gain > bound * abs(base_q[1]) and (spread <= bound or all_worse):
        return "regressed", won
    if spread > bound and not all_better:
        return "unresolved", won
    return "no worse", won


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--benchmark", type=Path, default=ROOT / "BENCHMARK.json")
    args = parser.parse_args(argv)
    metrics = json.loads(args.benchmark.read_text())["end_to_end"]
    base_runs, new_runs = load_runs(args.base), load_runs(args.new)
    regressed = False
    for workload in sorted(set(base_runs) | set(new_runs)):
        base, new = base_runs.get(workload, {}), new_runs.get(workload, {})
        # Runs pair up in seed order: with the same seeds on both sides
        # (the way to make them), each pair shares its workload.
        pairs_of = list(zip(sorted(base), sorted(new)))
        print(f"{workload}: {len(base)} parent runs, {len(new)} change runs, "
              f"{len(pairs_of)} pairs")
        if not base or not new:
            print("  unresolved: one side has no runs")
            continue
        print(f"  {'metric':<28} {'parent q1/med/q3':>32} "
              f"{'change q1/med/q3':>32} {'won':>5}  verdict")
        for metric in metrics:
            name = metric["name"]

            def values(runs):
                return [r["metrics"][name]["value"] for r in runs.values()]

            pairs = [
                (base[b]["metrics"][name]["value"], new[n]["metrics"][name]["value"])
                for b, n in pairs_of
            ]
            result, won = verdict(
                values(base), values(new), metric["better"], metric["bound"], pairs
            )
            regressed |= result == "regressed"
            print(f"  {name:<28} {_q(values(base)):>32} {_q(values(new)):>32} "
                  f"{won:>5.0%}  {result}")
        rates = [
            sum(r["failed"] for r in runs.values())
            / max(1, sum(r["attempted"] for r in runs.values()))
            for runs in (base, new)
        ]
        result = (
            "regressed" if rates[1] > rates[0]
            else "improved" if rates[1] < rates[0] else "no worse"
        )
        regressed |= result == "regressed"
        print(f"  {'error_rate':<28} {rates[0]:>32.4g} {rates[1]:>32.4g} "
              f"{'':>5}  {result}")
    return 1 if regressed else 0


def _q(values: List[float]) -> str:
    return "/".join(f"{v:.4g}" for v in stats.quartiles(values))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
