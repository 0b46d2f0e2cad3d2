"""The benchmark of the real-mmap join engine: one command, three workloads.

    python3 perfbench/run.py --workload paper-cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 1            # every workload in turn

Run from the root of a checkout; the program is imported from its
``src/`` directory.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics`` —
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1`` (which also writes a Chrome trace of its spans).  Every
op is checked against the workload oracle; the exit code is non-zero
when any op failed or raised.

``--smoke`` runs the same code at a small scale for the benchmark's own
tests; ``--inject flip`` (one pair points at the wrong S-object) and
``--inject swap`` (two pairs exchange their S halves, which keeps count
and checksum) corrupt the first op's received pairs to show the gate
fails.  ``BENCHMARK.json`` names the workloads and metrics;
``perfbench/README.md`` defines every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import traceback
from pathlib import Path
from typing import Dict, List

import numpy

import stats

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="default: every workload in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs, one set-up, one cycle")
    parser.add_argument("--inject", choices=("flip", "swap"),
                        help="corrupt the first op's received pairs "
                             "(the check must fail)")
    parser.add_argument("--record", type=Path, metavar="DIR",
                        help="also write the full run record (JSON) into DIR")
    return parser.parse_args(argv)


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import spec

    if args.workload is None:
        # One process per workload, so each reports its own peak RSS.
        codes = [
            subprocess.run(
                [sys.executable, __file__, *argv, "--workload", name]
            ).returncode
            for name in spec.WORKLOAD_NAMES
        ]
        return max(codes)
    if args.workload not in spec.WORKLOAD_NAMES:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choices: {list(spec.WORKLOAD_NAMES)}", file=sys.stderr)
        return 2

    import oracle
    import workloads
    from tracing import Tracer

    oracle.self_test()
    geometry = spec.SMOKE if args.smoke else spec.FULL
    seconds = args.seconds if args.seconds is not None else spec.RUN_SECONDS
    work = ROOT / ".perfbench" / "work" / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    tracer = Tracer() if args.trace else None
    bench = workloads.Bench(
        seed=args.seed, seconds=seconds, geometry=geometry, work=work,
        tracer=tracer, inject=args.inject,
    )
    run = {
        "paper-cold": workloads.paper_cold,
        "skew-tight": workloads.skew_tight,
        "serve-warm": workloads.serve_warm,
    }[args.workload]
    try:
        out = run(bench)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = out.ops
    failures = [op for op in ops if op.error is not None]
    for op in failures[:5]:
        print(f"FAILED {op.plan} ({op.mode}): {op.error}", file=sys.stderr)
    e2e, tail_pct, samples = end_to_end(out)
    e2e["error_rate"] = len(failures) / max(1, len(ops))
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "nproc": workloads.nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "plans": list(spec.PLANS),
        "geometry": vars(geometry),
        "latency_ms_tail": {"percentile": round(tail_pct, 2), "samples": samples},
        "held_out_seed": spec.HELD_OUT_SEED,
        **out.provenance,
    }
    if args.trace:
        metrics = per_layer(out, tracer)
        trace_path = ROOT / ".perfbench" / "traces" / f"{args.workload}-s{args.seed}.json"
        tracer.write(trace_path)
        provenance["chrome_trace"] = os.path.relpath(trace_path)
        names = [m.name for m in spec.PER_LAYER]
    else:
        metrics = e2e
        names = [m.name for m in spec.END_TO_END]

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(ops)} ops, {len(failures)} failed")
    for name in names + ([] if args.trace else ["error_rate"]):
        note = ""
        if name == "latency_ms_tail":
            note = f"  (p{tail_pct:.1f} of {samples} ops)"
        if name == "error_rate":
            note = f"  ({len(failures)}/{len(ops)})"
        if name == "trace.unattributed_ms":
            note = f"  (residual of trace.op_ms_p50 = {metrics['trace.op_ms_p50']:.1f} ms)"
        print(f"  {name:<40} {metrics[name]:>14.6g} {spec.UNITS[name]}{note}")
    record = {
        "provenance": provenance,
        "correct": not failures,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": spec.UNITS[name]}
                    for name in names},
        "error_rate": e2e["error_rate"],
        "setup_s_each": out.setup_s,
        "op_latency_ms": [[op.plan, op.mode, op.latency_ms] for op in ops],
    }
    if args.record is not None:
        args.record.mkdir(parents=True, exist_ok=True)
        name = f"{args.workload}-s{args.seed}-t{args.trace}.json"
        (args.record / name).write_text(json.dumps(record, indent=1))
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({key: record[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if not failures else 1


def _peak_rss_mb() -> float:
    """High-water RSS of this process plus that of its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def end_to_end(out) -> tuple:
    """The end-to-end metrics (tracing off), the tail's percentile and n."""
    good = [op.latency_ms for op in out.ops if op.error is None]
    tail_value, tail_pct, samples = stats.tail(good)
    metrics = {
        "setup_s": stats.median(out.setup_s),
        "latency_ms_p50": stats.median(good),
        "latency_ms_tail": tail_value,
        "pairs_per_s": sum(op.pairs for op in out.ops) / max(out.timed_s, 1e-9),
        "peak_rss_mb": _peak_rss_mb(),
        "store_bytes_per_input_byte": out.store_ratio,
    }
    return metrics, tail_pct, samples


def per_layer(out, tracer) -> Dict[str, float]:
    """The per-layer metrics of a traced run (see README.md)."""
    from spec import PLANS
    from workloads import FACADE, NO_METRICS, TRACED, mean_info

    def ok(mode):
        return [op for op in out.ops if op.mode == mode and op.error is None]

    def median_of(ops, key=None):
        return stats.median([
            op.latency_ms if key is None else op.info[key] for op in ops
        ])

    own = tracer.self_ms()
    executes = [
        s for s in tracer.spans
        if s.name == "engine.execute" and s.span_id in own and "passes_ms" in s.args
    ]
    facade = ok(FACADE)
    metrics = {
        "workload.generate_ms": tracer.median_ms("workload.generate"),
        "storage.materialize_ms": tracer.median_ms("storage.materialize"),
        "storage.collect_ms": tracer.median_ms("storage.collect"),
        "storage.spill_bytes_per_input_byte": mean_info(out.joins, "spill_ratio"),
        "governor.admission_ms": tracer.median_ms("governor.admission"),
        "governor.degradations": mean_info(out.joins, "degradations"),
        "governor.runtime_degradations": mean_info(
            out.joins, "runtime_degradations"
        ),
        "engine.execute_ms": tracer.median_ms("engine.execute"),
        "engine.passes_ms": stats.median([s.args["passes_ms"] for s in executes]),
        "engine.overhead_ms": stats.median(
            [own[s.span_id] - s.args["passes_ms"] for s in executes]
        ),
        "engine.rebalance_splits": mean_info(out.joins, "rebalance_splits"),
        "engine.post_ratio_max": max(
            (join["post_ratio"] for join in out.joins), default=1.0
        ),
        "engine.retries": sum(join.get("retries", 0) for join in out.joins),
        "obs.export_ms": tracer.median_ms("obs.export"),
        "obs.metrics_overhead_pct": _pct(median_of(facade), median_of(ok(NO_METRICS))),
    }
    served = [op for op in out.ops if op.error is None] if out.served else []
    metrics.update({
        "service.run_ms": median_of(served, "run_ms"),
        "service.queued_ms": median_of(served, "queued_ms"),
        "service.stream_ms": median_of(served, "stream_ms"),
        "service.store_reuse_ratio": mean_info([op.info for op in served], "reused_store"),
    })
    for plan in PLANS:
        metrics[f"plan.{plan}.latency_ms_p50"] = median_of(
            [op for op in facade if op.plan == plan]
        )
    # The residual: the untraced op median minus the medians of the
    # layers one op passes through.
    op_ms = median_of(facade)
    metrics["trace.op_ms_p50"] = op_ms
    metrics["trace.unattributed_ms"] = op_ms - sum(metrics[name] for name in out.chain)
    metrics["trace.overhead_pct"] = _pct(median_of(ok(TRACED)), op_ms)
    return metrics


def _pct(value: float, base: float) -> float:
    return (value - base) / base * 100.0 if base else 0.0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except Exception:
        traceback.print_exc()
        sys.exit(3)
