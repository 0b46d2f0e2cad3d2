"""The engine-side task wrapper and the shared worker utilities.

Everything cross-cutting that every stage kernel used to re-implement
lives here exactly once:

* :func:`run_task` — the module-level (hence picklable) wrapper the
  executor dispatches to the pool.  It fires armed faults, loads budgets,
  activates the memory meter and a process-local metrics registry,
  snapshots the registry to the task's JSON sidecar, and classifies any
  raw ``OSError``/``MemoryError`` escaping a kernel into the governor's
  :class:`~repro.governor.errors.ResourceExhausted` hierarchy (which
  pickles intact through the pool);
* :class:`PairSink` / :class:`PairResult` — streaming pair output into a
  mapped segment, returning only ``(count, checksum, path)``;
* the stage-owned artifact naming scheme (:func:`pairs_name`,
  :func:`run_name` / :func:`run_paths`, :func:`bucket_spill_name` /
  :func:`bucket_spill_paths`) — so producers and consumers of spill files
  agree on names through one module instead of duplicated string logic.

Kernels are plain functions registered by name
(:func:`register_kernel`) that take one :class:`KernelTask`; the executor
ships only the kernel *name* plus the task across the pool, and
:func:`run_task` resolves it in the worker process — keeping the pickled
payload tiny and the kernels decorator-free (directly callable in tests).
"""

from __future__ import annotations

import importlib
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional

import numpy as _np

from repro.core.records import RObject
from repro.governor.budget import load_budgets
from repro.governor.errors import ResourceExhausted, classify_os_error
from repro.governor.predict import JoinPlan
from repro.obs.registry import MetricsRegistry, activate, active, deactivate
from repro.obs.spans import span
from repro.governor.watchdog import (
    MemoryMeter,
    activate_meter,
    deactivate_meter,
    rss_high_water_bytes,
)
from repro.parallel.engine.stages import StageContext
from repro.parallel.faults import maybe_inject
from repro.storage.relation import PairsFile, RRelationFile
from repro.storage.store import Store

BATCH_RECORDS = 4096
CHECKSUM_MOD = 1 << 61

#: Presence of this file in the store root switches worker metrics on.
OBS_MARKER = "metrics.on"


def metrics_sidecar(root: str | Path, task: str, slot: int | str) -> Path:
    """Where one worker snapshots its registry for the parent to merge.

    ``slot`` is the partition index for an ordinary task, or the string
    ``"{partition}s{shard}"`` when the rebalancer split the partition's
    work across shard tasks (each shard snapshots its own sidecar).
    """
    return Path(root) / f"metrics_{task}_{slot}.json"


# ---------------------------------------------------------------- sharding

class Shard(NamedTuple):
    """One slice of a rebalanced task's input, attached by the executor.

    ``index``/``count`` place the shard among its siblings for the same
    partition; ``lo``/``hi`` bound the half-open input range along the
    stage's declared axis (record positions, sorted pointer keys, or
    bucket numbers — the kernel knows which).
    """

    index: int
    count: int
    lo: int
    hi: int


#: Run-id namespace per shard: sorted runs cut by shard ``k`` are numbered
#: ``k * RUN_SHARD_STRIDE + local_id`` so the numeric run-id sort used by
#: :func:`run_paths` yields shard order, then cut order — i.e. exactly the
#: concatenated inbound order an unsharded sort-run pass would produce.
RUN_SHARD_STRIDE = 1 << 20


@dataclass(frozen=True)
class KernelTask:
    """Everything one kernel invocation needs, built by the executor.

    Like the paper's Rproc_i, a kernel gets its partition and the
    algorithm's parameters: the run's fixed geometry (``ctx``), the
    current plan knobs (``plan`` — batch size, ``irun``, buckets,
    ``TSIZE``, spill threshold; they change under degradation), and
    ``partition``.  ``partitioner`` is the resolved strategy name for
    partition stages (None elsewhere); ``shard`` is set when the
    rebalancer split the partition's work.
    """

    ctx: StageContext
    plan: JoinPlan
    partition: int
    partitioner: Optional[str] = None
    shard: Optional[Shard] = None


def task_slot(partition: int, shard: Shard | None) -> int | str:
    """The sidecar/label slot for a task: partition, or partition+shard."""
    return partition if shard is None else f"{partition}s{shard.index}"


# ---------------------------------------------------------- kernel registry

_KERNELS: Dict[str, Callable] = {}


def register_kernel(func: Callable) -> Callable:
    """Register a stage kernel under its function name.

    Returns ``func`` unchanged — kernels stay plain callables (tests
    invoke them directly with a :class:`KernelTask`; the null-object
    fallbacks of :func:`~repro.governor.watchdog.active_meter` and
    :func:`~repro.obs.registry.active` make that legal).
    """
    _KERNELS[func.__name__] = func
    return func


def resolve_kernel(name: str) -> Callable:
    """Look up a kernel by name, importing the kernel module on demand.

    A fresh pool process may run :func:`run_task` before anything imported
    :mod:`repro.parallel.workers`; the lazy import fills the registry.
    """
    if name not in _KERNELS:
        importlib.import_module("repro.parallel.workers")
    try:
        return _KERNELS[name]
    except KeyError:
        raise LookupError(f"no registered kernel {name!r}") from None


def run_task(payload):
    """Execute one ``(kernel_name, KernelTask)`` payload under the armed hooks.

    This is the backend's single instrumentation point *and* its
    classification boundary: any raw ``OSError``/``MemoryError`` that
    escapes a kernel — a real ``ENOSPC`` out of an ``ftruncate``, an
    injected ``disk-full``, an allocator failure — leaves here as a
    classified :class:`ResourceExhausted` subtype, so the executor can
    tell "this join needs a smaller plan" apart from "the code is
    broken".  Uninstrumented dispatch (no marker, no budget file, no
    fault plan) costs three ``stat`` calls.
    """
    name, task = payload
    func = resolve_kernel(name)
    try:
        return _governed(func, name, task)
    except ResourceExhausted:
        raise
    except (MemoryError, OSError) as error:
        classified = classify_os_error(
            error, f"{name} partition {task.partition}"
        )
        if classified is not None:
            raise classified from error
        raise


def _governed(func: Callable, name: str, task: KernelTask):
    """Run one kernel under the armed budgets/metrics, if any.

    The fault hook fires first — before any registry or file handle is
    acquired — because a real crash would also strike before the task
    produced anything.  When the rebalancer split a partition into
    shards, only shard 0 consults the fault plan: fault coordinates are
    ``(task, partition, attempt)`` and must keep firing exactly once per
    attempt regardless of how the work was sliced.
    """
    root, shard = task.ctx.store_root, task.shard
    slot = task_slot(task.partition, shard)
    if shard is None or shard.index == 0:
        maybe_inject(root, name, task.partition)
    budgets = load_budgets(root)
    metrics_on = Path(root, OBS_MARKER).exists()
    if budgets is None and not metrics_on:
        return func(task)
    limit = budgets.worker_mem_budget_bytes if budgets is not None else None
    meter = activate_meter(MemoryMeter(limit))
    try:
        if not metrics_on:
            return func(task)
        registry = activate(MetricsRegistry())
        started = time.perf_counter()
        try:
            with span("task", task=name, worker=slot):
                result = func(task)
        finally:
            deactivate()
        wall_ms = (time.perf_counter() - started) * 1000.0
        labels = {"task": name, "worker": slot}
        registry.gauge("worker.wall_ms", wall_ms, **labels)
        registry.gauge(
            "worker.mem_high_water_bytes",
            float(meter.high_water_bytes), **labels,
        )
        registry.gauge(
            "worker.mapped_peak_bytes",
            float(meter.mapped_high_water_bytes), **labels,
        )
        rss = rss_high_water_bytes()
        if rss is not None:
            registry.gauge("worker.rss_max_bytes", float(rss), **labels)
        registry.count("worker.tasks", 1, task=name)
        metrics_sidecar(root, name, slot).write_text(
            json.dumps(registry.snapshot())
        )
        return result
    finally:
        deactivate_meter()


# -------------------------------------------------------------- pair output

class PairResult(NamedTuple):
    """What a pair-producing kernel sends back instead of the pairs."""

    count: int
    checksum: int
    path: str


class StageOutput(NamedTuple):
    """Return value of a stage that both moves records and emits pairs."""

    moved: int
    pairs: PairResult


class PairSink:
    """Stream joined pairs into one mapped segment, checksumming as we go.

    The checksum is the simulator's ``PairCollector`` mix — summing
    per-batch and reducing once is equivalent to the per-pair running mod.
    """

    def __init__(self, path: Path, capacity: int) -> None:
        self.path = path
        # overwrite=True: a retried pass legally replaces the outputs a
        # failed attempt published; the segment stays a .tmp sibling
        # until close() renames it into place.
        self._file = PairsFile.create(path, max(1, capacity), overwrite=True)
        self.count = 0
        self.checksum = 0

    def emit_joined(self, r_objects: List[RObject], s_objects: List) -> None:
        """Join matched R/S batches positionally and stream the pairs."""
        pairs = [
            (r[0], s[0], r[2], s[1])
            for r, s in zip(r_objects, s_objects)
        ]
        if not pairs:
            return
        self._file.append_many(pairs)
        active().count("worker.pairs", len(pairs))
        self.count += len(pairs)
        self.checksum = (
            self.checksum
            + sum(p[0] * 1_000_003 + p[1] * 7919 + p[3] for p in pairs)
        ) % CHECKSUM_MOD

    def emit_arrays(self, rid, sid, r_payload, s_value) -> None:
        """Join matched column arrays positionally and stream the pairs.

        The kernels' emission path (:meth:`emit_joined` is its per-record
        reference): one ``(n, 4)`` u64 block is written into the mapped segment in a
        single append, and the checksum mix runs as wrapping u64
        arithmetic — exact, because ``CHECKSUM_MOD`` divides ``2**64``.
        """
        n = int(len(rid))
        if not n:
            return
        block = _np.empty((n, 4), dtype="<u8")
        block[:, 0] = rid
        block[:, 1] = sid
        block[:, 2] = r_payload
        block[:, 3] = s_value
        self._file.append_packed(memoryview(block).cast("B"))
        active().count("worker.pairs", n)
        self.count += n
        mix = (
            rid * _np.uint64(1_000_003)
            + sid * _np.uint64(7919)
            + s_value
        )
        self.checksum = (
            self.checksum + int(mix.sum(dtype=_np.uint64))
        ) % CHECKSUM_MOD

    def close(self) -> PairResult:
        """Publish the segment (atomic rename) and report its totals."""
        self._file.close()
        return PairResult(self.count, self.checksum, str(self.path))

    def abort(self) -> None:
        """Discard the sink without publishing (idempotent failure path)."""
        self._file.abort()


# -------------------------------------------------- artifact naming scheme

def pairs_name(label: str, partition: int, shard: Shard | None = None) -> str:
    """The PAIRS segment written by one worker of one pass.

    Shard tasks publish disjoint segments (``_s<k>`` suffix) so sibling
    shards of one partition never race on a name; the executor collects
    every segment, and the order-independent checksum makes the union
    bit-identical to the unsharded single segment.
    """
    base = f"PAIRS_{label}_{partition}"
    return base if shard is None else f"{base}_s{shard.index}"


def rs_name(target: int, contributor: int) -> str:
    """One contributor's range-partitioned spill for the sort-merge plan."""
    return f"RS{target}_from{contributor}"


def nl_spill_name(owner: int, partner: int) -> str:
    """Nested loops' pass-0 spill of ``owner``'s references to ``partner``."""
    return f"RP{owner}_{partner}"


def run_name(partition: int, run_id: int) -> str:
    """One sorted run cut by the sort-run stage."""
    return f"RUN{partition}_{run_id}"


def run_paths(store: Store, partition: int) -> List[Path]:
    """Every published run for ``partition``, in run-id order."""
    prefix = f"RUN{partition}_"
    paths = [
        path for path in store.disk_dir(partition).glob(f"{prefix}*.seg")
        if path.name[len(prefix):-len(".seg")].isdigit()
    ]
    paths.sort(key=lambda path: int(path.name[len(prefix):-len(".seg")]))
    return paths


def bucket_spill_name(
    target: int, contributor: int, chunk: int | None = None
) -> str:
    """One contributor's bucketed spill file for one target partition.

    ``chunk`` is set when the partition pass ran under a spill threshold
    and flushed its groups incrementally.
    """
    base = f"BS{target}_from{contributor}"
    return base if chunk is None else f"{base}_c{chunk}"


def bucket_spill_paths(
    store: Store, partition: int, contributor: int
) -> List[Path]:
    """One contributor's spill files for ``partition``, chunks included.

    The unchunked base file and any ``_c<n>`` chunks are all valid
    inputs; chunks are ordered numerically so probe input order is
    deterministic.
    """
    paths: List[Path] = []
    base = store.path(partition, bucket_spill_name(partition, contributor))
    if base.exists():
        paths.append(base)
    prefix = f"BS{partition}_from{contributor}_c"
    chunks = [
        path for path in store.disk_dir(partition).glob(f"{prefix}*.seg")
        if path.name[len(prefix):-len(".seg")].isdigit()
    ]
    chunks.sort(key=lambda path: int(path.name[len(prefix):-len(".seg")]))
    paths.extend(chunks)
    return paths


# ------------------------------------------------------------ sorted runs

def run_lower_bound(rel: RRelationFile, key: int) -> int:
    """Index of the first record in a sorted run with ``sptr >= key``.

    Binary search over the mapped records — O(log n) point reads — so a
    key-range shard starts reading at its own range instead of scanning
    (and discarding) the prefix owned by lower shards.
    """
    lo, hi = 0, len(rel)
    while lo < hi:
        mid = (lo + hi) // 2
        if rel.get(mid).sptr < key:
            lo = mid + 1
        else:
            hi = mid
    return lo
