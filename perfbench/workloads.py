"""The three workloads, driven through the program's public API.

Every workload is a closed loop that cycles through the six registered
plans and measures whole cycles, so each plan weighs the same in every
median.  Oracle checks run between ops with the op timers stopped.

With tracing on, each cycle runs every plan three ways, in rotating
order: once with the layer entry points wrapped in benchmark-side spans
(the *traced* op), once untraced (the *facade* op — what a user calls)
and once untraced with ``collect_metrics=False``.  All three call
``run_real_join`` itself.  The layer medians come from the traced ops,
the residual and the tracing overhead from comparing traced ops with
facade ops, and the metrics overhead from the last pair.
"""

from __future__ import annotations

import os
import random
import shutil
import socket
import subprocess
import sys
import threading
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import repro.parallel.engine.executor as executor_module
import repro.parallel.runner as runner_module
import repro.service.server as server_module
from repro.governor.budget import store_usage_bytes
from repro.parallel import RealJoinResult, run_real_join
from repro.service.client import JoinServiceClient
from repro.service.server import JoinService, ServiceConfig
from repro.storage.relation import iter_pairs_file
from repro.storage.store import Store
from repro.workload.generator import WorkloadSpec, generate_workload

import oracle
from spec import DISKS, PLANS, Geometry, cycles
from tracing import Tracer, instrumented

FACADE = "facade"
TRACED = "traced"
NO_METRICS = "facade-no-metrics"
TRACED_MODES = (TRACED, FACADE, NO_METRICS)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def derive_seed(seed: int, *parts: object) -> int:
    """A workload seed derived deterministically from the run's seed."""
    return random.Random("/".join(map(str, (seed, *parts)))).randrange(1 << 31)


def input_bytes(spec: WorkloadSpec) -> int:
    """User data of one workload: R and S objects at their declared size."""
    return spec.r_objects * spec.r_bytes + spec.s_objects * spec.s_bytes


@dataclass
class Op:
    plan: str
    latency_ms: float
    mode: str = FACADE
    #: Oracle-verified pairs (0 when the op failed).
    pairs: int = 0
    error: Optional[str] = None
    #: Per-op counts and splits, e.g. store bytes or reply fields.
    info: Dict[str, float] = field(default_factory=dict)


@dataclass
class Outcome:
    """Everything one workload run measured."""

    setup_s: List[float] = field(default_factory=list)
    ops: List[Op] = field(default_factory=list)
    #: Wall time of the timed phase: op time for the single-client
    #: workloads (checks paused), start to finish for the daemon.
    timed_s: float = 0.0
    #: serve-warm: ops are requests to the daemon.
    served: bool = False
    #: The governor's and rebalancer's decisions of every finished join
    #: (see :func:`join_counts`), with its spilled bytes per input byte.
    joins: List[Dict[str, float]] = field(default_factory=list)
    #: Stored bytes of a kept store after an op, per input byte.
    store_ratio: float = 0.0
    #: Per-layer metrics whose medians add up to one op (the residual).
    chain: tuple = ()
    provenance: Dict[str, object] = field(default_factory=dict)


def join_counts(result: RealJoinResult) -> Dict[str, float]:
    """The governor's and rebalancer's decisions for one join."""
    rebalance = result.rebalance.values()
    return {
        "degradations": result.degradations_total,
        "runtime_degradations": (result.governor or {}).get(
            "runtime_degradations", 0
        ),
        "rebalance_splits": sum(d.get("splits", 0) for d in rebalance),
        "post_ratio": max((d.get("post_ratio", 1.0) for d in rebalance), default=1.0),
        "retries": result.retries_total,
    }


def spill_bytes(root: Path, result: RealJoinResult) -> int:
    """Stored bytes of a kept store minus its R/S and PAIRS segments."""
    store = Store(root, DISKS)
    base = sum(
        os.path.getsize(store.path(disk, name))
        for disk in range(DISKS)
        for name in ("R", "S")
    )
    pairs = sum(os.path.getsize(f.path) for f in result.pair_files)
    return store_usage_bytes(root) - base - pairs


def _note_passes(span, outcome, args, kwargs) -> None:
    span.args["passes_ms"] = sum(outcome.pass_wall_ms.values())


def _note_join(span, result, args, kwargs) -> None:
    """A daemon's join: its decisions and its spills before the sweep."""
    span.args.update(join_counts(result))
    span.args["spill_ratio"] = (
        spill_bytes(Path(args[2]), result) / input_bytes(args[1].spec)
    )


#: The layer entry points a traced op wraps in spans.  ``run_real_join``
#: reaches them through these module attributes, so the traced op runs
#: the facade's own code.  The daemon's ``run_real_join`` is wrapped too:
#: it is each served join's root span.
LAYERS = (
    (runner_module, "predict_footprint", "governor.admission", None),
    (runner_module, "fit_plan", "governor.admission", None),
    (runner_module, "execute_plan", "engine.execute", _note_passes),
    (Store, "materialize", "storage.materialize", None),
    (executor_module, "iter_pairs_file", "storage.collect", None),
    (server_module, "run_real_join", "runner.join", _note_join),
)


@dataclass
class Bench:
    seed: int
    seconds: float
    geometry: Geometry
    work: Path
    tracer: Optional[Tracer] = None
    #: Test hook: corrupt the first op's received pairs this way
    #: (a key of ``oracle.INJECTIONS``).
    inject: Optional[str] = None

    def cycles(self, workload: str, do_op: Callable[[int, str, str], Op]) -> List[Op]:
        """The workload's ops: whole plan cycles sized by ``seconds``,
        or one cycle of every traced mode when tracing."""
        if self.tracer is not None:
            return run_cycles(TRACED_MODES, do_op, 1)
        return run_cycles((FACADE,), do_op, cycles(workload, self.seconds))

    @contextmanager
    def scope(self, op_id: str, mode: str, **args):
        """One op: a traced op gets a root span, and every layer entry
        point is spanned while it runs."""
        if mode != TRACED:
            yield
            return
        with instrumented(self.tracer, LAYERS), self.tracer.span("op", op_id, **args):
            yield

    def span(self, name: str, mode: str):
        """A span around a call the benchmark itself makes to a layer."""
        return self.tracer.span(name) if mode == TRACED else nullcontext()

    def received(self, pairs) -> list:
        """The pairs the caller received (corrupted once by ``inject``)."""
        pairs = list(pairs)
        if self.inject is not None:
            pairs = oracle.INJECTIONS[self.inject](pairs)
            self.inject = None
        return pairs

    def verify(self, op: Op, expected, received: list, count: int,
               checksum: int) -> None:
        """Check one op against the oracle; a failure lands in ``op``."""
        op.error = oracle.check(expected, received, count, checksum)
        op.pairs = len(received) if op.error is None else 0


def failed(plan: str, started: float, error: BaseException, mode: str = FACADE) -> Op:
    """The record of an op that raised; call it from the ``except``."""
    latency = (time.perf_counter() - started) * 1000.0
    traceback.print_exc()
    return Op(plan, latency, mode, error=f"{type(error).__name__}: {error}")


def run_cycles(modes, do_op: Callable[[int, str, str], Op], cycles: int) -> List[Op]:
    """``cycles`` whole plan cycles, every plan once per mode."""
    ops: List[Op] = []
    for cycle in range(cycles):
        for k, plan in enumerate(PLANS):
            # Rotate the mode order per plan so slow drift cancels out.
            shift = (cycle * len(PLANS) + k) % len(modes)
            for mode in modes[shift:] + modes[:shift]:
                ops.append(do_op(len(ops), plan, mode))
    return ops


def mean_info(infos: List[Dict[str, float]], key: str) -> float:
    values = [info[key] for info in infos if key in info]
    return sum(values) / len(values) if values else 0.0


def read_pairs(pair_files) -> list:
    """Decode published PAIRS segments into ``JoinedPair``s."""
    return [
        pair
        for pair_file in pair_files
        for pair in iter_pairs_file(pair_file.path)
    ]


# ------------------------------------------------------------- paper-cold

def time_cold_import() -> float:
    """Seconds a fresh interpreter takes to import what an op calls."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    started = time.perf_counter()
    # No timeout: with one, the wait polls at up to 50 ms intervals and
    # the measured time snaps to that grid.
    subprocess.run(
        [sys.executable, "-c",
         "import repro.parallel, repro.workload.generator"],
        check=True, env=env,
    )
    return time.perf_counter() - started


def paper_cold(bench: Bench) -> Outcome:
    """A fresh uniform workload per op, joined on a fresh store.

    One op is ``generate_workload`` + ``run_real_join(collect_pairs=True)``
    + ``stats_document`` — the ``repro join --real --stats-out`` path.
    The store is kept long enough to count its bytes (timer paused) and
    then destroyed inside the timer, as ``keep_store=False`` would.
    """
    g = bench.geometry
    out = Outcome(chain=(
        "workload.generate_ms", "storage.materialize_ms", "engine.execute_ms",
        "storage.collect_ms", "obs.export_ms",
    ))
    out.setup_s = [time_cold_import() for _ in range(g.setup_repeats)]
    root = bench.work / "store"

    def do_op(index: int, algorithm: str, mode: str) -> Op:
        spec = WorkloadSpec.paper_validation(
            g.paper_scale, seed=derive_seed(bench.seed, "paper-cold", index)
        )
        started = time.perf_counter()
        try:
            with bench.scope(f"op{index}", mode, plan=algorithm):
                with bench.span("workload.generate", mode):
                    workload = generate_workload(spec, DISKS)
                result = run_real_join(
                    algorithm, workload, str(root), keep_store=True,
                    collect_pairs=True, collect_metrics=mode != NO_METRICS,
                )
                with bench.span("obs.export", mode):
                    result.stats_document(workload)
            paused = time.perf_counter()
            stored = store_usage_bytes(root)
            spilled = spill_bytes(root, result)
            resumed = time.perf_counter()
            Store(root, DISKS).destroy()
            latency = (time.perf_counter() - resumed + paused - started) * 1000.0
        except Exception as error:  # an op that raised counts as failed
            Store(root, DISKS).destroy()
            return failed(algorithm, started, error, mode)
        op = Op(algorithm, latency, mode, info={
            "store_ratio": stored / input_bytes(spec),
            "spill_ratio": spilled / input_bytes(spec),
            **join_counts(result),
        })
        pairs, count, checksum = result.pairs, result.pair_count, result.checksum
        del result  # drop the pairs' twin before the oracle builds its own
        received = bench.received(pairs)
        del pairs
        bench.verify(op, oracle.expected_for(workload), received, count, checksum)
        return op

    out.ops = bench.cycles("paper-cold", do_op)
    out.timed_s = sum(op.latency_ms for op in out.ops) / 1000.0
    out.joins = [op.info for op in out.ops if op.error is None]
    out.store_ratio = mean_info(out.joins, "store_ratio")
    return out


# ------------------------------------------------------------- skew-tight

def skew_tight(bench: Bench) -> Outcome:
    """Joins of one skewed workload on a warm store under a memory budget.

    Set-up generates and materializes R and S; every op then runs
    ``run_real_join(reuse_store=True, keep_store=True,
    collect_pairs=False)`` under the total ``mem_budget``, and the check
    reads the kept PAIRS segments back with ``iter_pairs_file``.
    """
    g = bench.geometry
    budget = g.skew_mem_budget
    out = Outcome(chain=("governor.admission_ms", "engine.execute_ms"))
    out.provenance["mem_budget_bytes"] = budget
    root = bench.work / "store"
    objects = max(64, int(102_400 * g.skew_scale))
    spec = WorkloadSpec(
        r_objects=objects, s_objects=objects, distribution="partition_hot",
        seed=derive_seed(bench.seed, "skew-tight"),
    )
    # The set-ups are traced ops of their own: skew-tight's generate and
    # materialize are its set-up, not part of an op.
    setup_mode = TRACED if bench.tracer is not None else FACADE
    workload = None
    for k in range(g.setup_repeats):
        Store(root, DISKS).destroy()
        # Drop the last set-up's objects first, so that every set-up
        # generates on the same heap as the first.
        workload = None
        started = time.perf_counter()
        with bench.scope(f"setup{k}", setup_mode):
            with bench.span("workload.generate", setup_mode):
                workload = generate_workload(spec, DISKS)
            Store(root, DISKS, clean_orphans=True).materialize(workload)
        out.setup_s.append(time.perf_counter() - started)
    out.provenance["measured_skew"] = workload.measured_skew()
    expected = oracle.expected_for(workload)

    def do_op(index: int, algorithm: str, mode: str) -> Op:
        started = time.perf_counter()
        try:
            with bench.scope(f"op{index}", mode, plan=algorithm):
                result = run_real_join(
                    algorithm, workload, str(root), reuse_store=True,
                    keep_store=True, collect_pairs=False, mem_budget=budget,
                    rebalance="auto", collect_metrics=mode != NO_METRICS,
                )
            latency = (time.perf_counter() - started) * 1000.0
        except Exception as error:  # an op that raised counts as failed
            return failed(algorithm, started, error, mode)
        op = Op(algorithm, latency, mode, info={
            "store_ratio": store_usage_bytes(root) / input_bytes(spec),
            "spill_ratio": spill_bytes(root, result) / input_bytes(spec),
            **join_counts(result),
        })
        bench.verify(op, expected, bench.received(read_pairs(result.pair_files)),
                     result.pair_count, result.checksum)
        return op

    out.ops = bench.cycles("skew-tight", do_op)
    out.timed_s = sum(op.latency_ms for op in out.ops) / 1000.0
    out.joins = [op.info for op in out.ops if op.error is None]
    out.store_ratio = mean_info(out.joins, "store_ratio")
    Store(root, DISKS).destroy()
    return out


# ------------------------------------------------------------- serve-warm

def serve_warm(bench: Bench) -> Outcome:
    """One in-process daemon driven by ``nproc`` closed-loop clients.

    Requests are uniform joins with ``stream_pairs=True``; every client
    cycles through the six plans with no think time.  The daemon admits
    one join at a time (``max_concurrent=1``) over a pool of ``nproc``
    workers, so a request's stream overlaps the next one's run and
    queueing is real.  Set-up is daemon start plus a warm-up that sends
    every plan from every client.

    The traced run measures half its cycles untraced and then half with
    the layer entry points spanned; the daemon runs in this process, so
    its joins are spanned where it makes them.
    """
    g = bench.geometry
    clients_n = nproc()
    spec = WorkloadSpec.paper_validation(
        g.serve_scale, seed=derive_seed(bench.seed, "serve-warm")
    )
    request = {
        "scale": g.serve_scale, "seed": spec.seed, "disks": DISKS,
        "stream_pairs": True,
    }
    # Paths relative to the working directory keep the unix socket path
    # short whatever the checkout's location.
    service_root = Path(os.path.relpath(bench.work / "service"))
    service_config = ServiceConfig(
        root=str(service_root),
        socket_path=str(Path(os.path.relpath(bench.work)) / "svc.sock"),
        disks=DISKS,
        max_concurrent=1,
        pool_workers=clients_n,
    )
    out = Outcome(
        chain=("service.queued_ms", "service.run_ms", "service.stream_ms"),
        served=True,
    )
    out.provenance["daemon"] = {
        "max_concurrent": service_config.max_concurrent,
        "pool_workers": service_config.pool_workers,
        "clients": clients_n,
        "stream_batch": service_config.stream_batch,
        "request": request,
    }
    expected = oracle.expected_for(generate_workload(spec, DISKS))

    service: Optional[JoinService] = None
    clients: List[JoinServiceClient] = []

    def shut_down() -> None:
        for client in clients:
            client.close()
        clients.clear()
        if service is not None:
            # Closing the listener does not wake a thread blocked in
            # accept(), so close() would wait out its 5 s join timeout;
            # one throwaway connection wakes it after the shutdown flag.
            service.request_shutdown()
            with socket.socket(socket.AF_UNIX) as wake:
                try:
                    wake.connect(service_config.socket_path)
                except OSError:
                    pass
            service.close()

    def in_threads(body: Callable[[int, JoinServiceClient], None]) -> None:
        threads = [
            threading.Thread(target=body, args=(k, client), daemon=True)
            for k, client in enumerate(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=170)
            if thread.is_alive():
                raise RuntimeError("a benchmark client did not finish")

    def request_op(client: JoinServiceClient, algorithm: str, mode: str,
                   warm_up: bool = False) -> Op:
        started = time.perf_counter()
        try:
            reply = client.join(algorithm, **request)
        except Exception as error:  # a refused or broken request is a failure
            return failed(algorithm, started, error, mode)
        latency = (time.perf_counter() - started) * 1000.0
        op = Op(algorithm, latency, mode, info={
            "run_ms": reply.wall_ms,
            "queued_ms": reply.queued_ms,
            "stream_ms": latency - reply.wall_ms - reply.queued_ms,
            "reused_store": float(reply.reused_store),
            "retries": reply.retries,
        })
        received = list(reply.pairs) if warm_up else bench.received(reply.pairs)
        bench.verify(op, expected, received, reply.pair_count, reply.checksum)
        return op

    warm_errors: List[str] = []

    def warm_up(k: int, client: JoinServiceClient) -> None:
        for j in range(len(PLANS)):
            op = request_op(client, PLANS[(k + j) % len(PLANS)], FACADE, True)
            if op.error is not None:
                warm_errors.append(op.error)

    def closed_loop(mode: str, requests: int) -> float:
        """Every client sends ``requests`` requests; the wall seconds."""
        def body(k: int, client: JoinServiceClient) -> None:
            for j in range(requests):
                out.ops.append(
                    request_op(client, PLANS[(k + j) % len(PLANS)], mode)
                )

        started = time.perf_counter()
        in_threads(body)
        return time.perf_counter() - started

    try:
        for _ in range(g.setup_repeats):
            shut_down()
            service = None  # its caches with it, as for skew-tight
            shutil.rmtree(service_root, ignore_errors=True)
            started = time.perf_counter()
            service = JoinService(service_config)
            service.start()
            clients.extend(
                JoinServiceClient(service_config.socket_path, timeout=120)
                for _ in range(clients_n)
            )
            in_threads(warm_up)
            out.setup_s.append(time.perf_counter() - started)
        if warm_errors:
            raise RuntimeError(f"warm-up failed: {warm_errors[0]}")

        if bench.tracer is None:
            requests = len(PLANS) * cycles("serve-warm", bench.seconds)
            out.timed_s = closed_loop(FACADE, requests)
        else:
            requests = len(PLANS) * cycles("serve-warm", bench.seconds / 2)
            out.timed_s = closed_loop(FACADE, requests)
            with instrumented(bench.tracer, LAYERS):
                closed_loop(TRACED, requests)
            out.joins = [
                s.args for s in bench.tracer.spans
                if s.name == "runner.join" and "retries" in s.args
            ]
        # The daemon sweeps a request's temps once it has streamed the
        # pairs, so what it keeps between requests is its warm stores.
        out.store_ratio = store_usage_bytes(service_root) / input_bytes(spec)
    finally:
        shut_down()
    return out
