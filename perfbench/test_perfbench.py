"""The benchmark's own tests.

    python3 -m pytest perfbench -q

Smoke runs of every workload (the same command at a small scale) must
emit every metric and pass the oracle; a flipped pair or two pairs with
swapped S halves must fail the run; ``BENCHMARK.json`` must follow the
result-line contract.
"""

from __future__ import annotations

import json
import re
from collections import Counter
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import compare  # noqa: E402
import oracle  # noqa: E402
import spec  # noqa: E402
import stats  # noqa: E402

WORKLOADS = spec.WORKLOAD_NAMES


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def smoke(workload: str, trace: int, *extra: str, seed: int = 3) -> tuple:
    proc = run_bench(
        "--workload", workload, "--seed", str(seed), "--seconds", "0",
        "--trace", str(trace), "--smoke", *extra,
    )
    return proc, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_every_metric(workload, trace):
    proc, result = smoke(workload, trace)
    assert proc.returncode == 0, proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 6
    metrics = spec.PER_LAYER if trace else spec.END_TO_END
    assert list(result["metrics"]) == [m.name for m in metrics]
    for m in metrics:
        value = result["metrics"][m.name]
        assert value["unit"] == m.unit
        assert isinstance(value["value"], (int, float))
    printed = [m.name for m in metrics] + ([] if trace else ["error_rate"])
    for name in printed:
        assert re.search(rf"^  {re.escape(name)} ", proc.stdout, re.M), name
    if not trace:
        for m in spec.END_TO_END:
            assert result["metrics"][m.name]["value"] > 0, m.name


@pytest.mark.parametrize("inject", ["flip", "swap"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_pairs_fail_the_run(workload, inject):
    proc, result = smoke(workload, 0, "--inject", inject)
    assert proc.returncode == 1
    assert not result["correct"] and result["failed"] == 1
    assert "FAILED" in proc.stderr


def test_oracle_gate_can_fail():
    oracle.self_test()
    pairs = [(rid, rid, rid * 3, rid + 7) for rid in range(5)]
    truth = oracle.Expected(*oracle.pairs_checksum(pairs), Counter(pairs))
    assert oracle.check(truth, pairs, *oracle.pairs_checksum(pairs)) is None
    flipped = oracle.flip_one(pairs)
    assert oracle.check(truth, flipped, *oracle.pairs_checksum(flipped)) is not None
    # Swapped S halves keep count and checksum: only the multiset sees it.
    swapped = oracle.swap_two(pairs)
    assert oracle.pairs_checksum(swapped) == oracle.pairs_checksum(pairs)
    assert oracle.check(truth, swapped, *oracle.pairs_checksum(pairs)) is not None


def test_counts_repeat_with_the_same_seed():
    names = (
        "governor.degradations", "engine.rebalance_splits",
        "storage.spill_bytes_per_input_byte",
    )
    first, second = (
        {k: v["value"] for k, v in smoke("skew-tight", 1)[1]["metrics"].items()}
        for _ in range(2)
    )
    for name in names:
        assert first[name] == second[name], name
    assert first["governor.degradations"] > 0
    stored = [
        smoke("skew-tight", 0)[1]["metrics"]["store_bytes_per_input_byte"]["value"]
        for _ in range(2)
    ]
    assert stored[0] == stored[1]


def test_benchmark_json_follows_its_contract():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    assert 2 <= len(doc["workloads"]) <= 8
    for w in doc["workloads"]:
        assert set(w) == {"name", "why"} and name.match(w["name"])
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    bounds = {}
    for m in doc["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
        bounds[m["name"]] = m["bound"]
    assert bounds["setup_s"] == max(bounds.values())
    for m in doc["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    every = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(every) == len(set(every))
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert name.match(m["name"]) and unit.match(m["unit"])
        assert m["better"] in ("lower", "higher")


def test_run_fails_without_the_program():
    bare = ROOT / ".perfbench" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run_bench("--workload", "paper-cold", "--seed", "1", "--trace", "0",
                         cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    value, percentile, n = stats.tail([float(v) for v in range(1, 31)])
    assert (value, n) == (20.0, 30)
    assert percentile == pytest.approx(200 / 3)
    # At or below 20 samples that percentile is no tail: the maximum is.
    assert stats.tail([float(v) for v in range(20, 0, -1)]) == (20.0, 100.0, 20)
    assert stats.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_compare_verdicts():
    base = [100.0, 101.0, 99.0, 100.5, 99.5]
    faster = [80.0, 81.0, 79.0, 80.5, 79.5]
    slower = [v * 1.3 for v in base]
    noisy = [60.0, 140.0, 100.0, 70.0, 130.0]
    pairs = list(zip(base, faster))
    assert compare.verdict(base, faster, "lower", 0.1, pairs)[0] == "improved"
    assert compare.verdict(base, slower, "lower", 0.1, list(zip(base, slower)))[0] == "regressed"
    assert compare.verdict(base, noisy, "lower", 0.1, list(zip(base, noisy)))[0] == "unresolved"
    assert compare.verdict(base, base, "lower", 0.1, list(zip(base, base)))[0] == "no worse"
    assert compare.verdict(base, faster, "higher", 0.1, pairs)[0] == "regressed"
