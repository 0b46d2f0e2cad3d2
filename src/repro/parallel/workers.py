"""Stage kernels for the real-mmap parallel joins.

Each kernel is one partition's share of one :class:`~repro.parallel.
engine.stages.Stage`, operating purely on memory-mapped segment files.
Kernels are *thin*: every cross-cutting concern — fault injection, memory
metering, metrics registries and sidecars, error classification — lives
once in the engine task wrapper (:func:`repro.parallel.engine.task.
run_task`); a kernel only moves records.  :func:`~repro.parallel.engine.
task.register_kernel` records each function under its name so the
executor can dispatch it by name through a :mod:`multiprocessing` pool
(CPython's GIL rules out thread parallelism for this workload, so — like
the paper's Rproc/Sproc design — parallelism is process-level, one worker
per partition).

All record movement is columnar and block-at-a-time: mapped batches
decode to three compact u64 column copies
(:meth:`RecordLayout.decode_columns`), pointers resolve via
:meth:`PointerMap.locate_array`, S dereferences are one fancy-indexed
gather over a single dtype view (:meth:`SRelationFile.dereference_columns`),
and pair emission writes one ``(n, 4)`` u64 block per batch
(:meth:`PairSink.emit_arrays`).  Record order is kept wherever it is
observable — boolean-mask selection keeps encounter order and
``np.argsort(kind="stable")`` breaks key ties by arrival — so segment
bytes are a pure function of the workload and the plan; the committed
golden segment hashes and the workload oracle pin them.

Join output never crosses a process boundary.  Every pair-producing
kernel streams its pairs into its own mapped ``PAIRS`` segment (one
writer per file, so passes stay race-free by construction) and returns
only a :class:`~repro.parallel.engine.task.PairResult`
``(count, checksum, path)``; the parent maps the files back in and
materializes pairs lazily, if at all.

Every kernel is failure-safe: output segments are published only by the
atomic rename in their ``close()``, and every exception path *aborts*
(discards) the partially written outputs and releases the mmap/file
handles before re-raising — so a pass that dies mid-stream leaks nothing
and a retried attempt re-creates its outputs from scratch (``overwrite=
True`` on every create makes that legal).
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.core.pointer import PointerMap
from repro.governor.watchdog import active_meter
from repro.obs.registry import active as _metrics
from repro.parallel.engine.partition import resolve_partitioner
from repro.parallel.engine.task import (
    BATCH_RECORDS,
    CHECKSUM_MOD,
    OBS_MARKER,
    RUN_SHARD_STRIDE,
    KernelTask,
    PairResult,
    PairSink,
    StageOutput,
    bucket_spill_name,
    bucket_spill_paths,
    metrics_sidecar,
    nl_spill_name,
    pairs_name,
    register_kernel,
    rs_name,
    run_lower_bound,
    run_name,
    run_paths,
)
from repro.storage.relation import BucketedRFile, RRelationFile
from repro.storage.segment import MappedSegment
from repro.storage.store import Store

__all__ = [
    "BATCH_RECORDS",
    "CHECKSUM_MOD",
    "OBS_MARKER",
    "PairResult",
    "StageOutput",
    "grace_partition",
    "grace_probe",
    "hybrid_hash_partition",
    "metrics_sidecar",
    "nested_loops_pass0",
    "nested_loops_pass1",
    "pairs_name",
    "sort_merge_merge_join",
    "sort_merge_partition",
    "sort_merge_runs",
]


def _store(task: KernelTask) -> Store:
    return Store(task.ctx.store_root, task.ctx.disks)


def _pmap(task: KernelTask) -> PointerMap:
    return PointerMap(s_objects=task.ctx.s_objects, partitions=task.ctx.disks)


def _phase_partner(i: int, t: int, disks: int) -> int:
    return (i + t) % disks


def _targets_in_encounter_order(parts):
    """Distinct partition ids of ``parts``, ordered by first appearance.

    The order per-target work (spill appends, resident pair emission)
    runs in, which is observable in the segment bytes.
    """
    uniq, first = np.unique(parts, return_index=True)
    return [int(t) for t in uniq[np.argsort(first, kind="stable")]]


# ------------------------------------------------------------ nested loops

@register_kernel
def nested_loops_pass0(task: KernelTask) -> PairResult:
    """Scan R_i: join local references, spill the rest to the RP_i_j.

    ``plan.batch_records`` throttles the batch size — the governor's
    nested-loops degradation knob.
    """
    i, disks, record_bytes = task.partition, task.ctx.disks, task.ctx.r_bytes
    store = _store(task)
    pmap = _pmap(task)
    meter = active_meter()
    with store.open_r(i) as r_rel, store.open_s(i) as s_rel:
        s_bytes = s_rel.segment.layout.record_bytes
        sink = PairSink(store.path(i, pairs_name("p0", i)), len(r_rel))
        spill = {
            j: RRelationFile.create(
                store.path(i, nl_spill_name(i, j)), max(1, len(r_rel)),
                record_bytes, overwrite=True,
            )
            for j in range(disks)
            if j != i
        }
        try:
            for rid, sptr, payload in r_rel.iter_column_batches(
                task.plan.batch_records
            ):
                charged = len(rid) * record_bytes
                meter.charge(charged, "nested-loops R batch")
                parts, offs = pmap.locate_array(sptr)
                local = parts == i
                n_local = int(local.sum())
                meter.charge(n_local * s_bytes, "dereferenced S batch")
                charged += n_local * s_bytes
                if n_local:
                    sid, value = s_rel.dereference_columns(offs[local])
                    sink.emit_arrays(rid[local], sid, payload[local], value)
                if n_local < len(rid):
                    remote = ~local
                    for target in _targets_in_encounter_order(parts[remote]):
                        mask = remote & (parts == target)
                        spill[target].append_columns(
                            rid[mask], sptr[mask], payload[mask]
                        )
                meter.release(charged)
            for rel in spill.values():
                rel.close()
            return sink.close()
        except BaseException:
            for rel in spill.values():
                rel.abort()
            sink.abort()
            raise


@register_kernel
def nested_loops_pass1(task: KernelTask) -> PairResult:
    """Phases t = 1..D-1: join RP_i,offset(i,t) against that S partition.

    Rebalance axis ``records``: the task's :class:`Shard` restricts the
    kernel to the record range ``[lo, hi)`` of the phase spill files
    concatenated in phase order — every shard walks the same file list
    with the same global indexing, so the shard union is exactly the
    unsharded scan.
    """
    i, disks, shard = task.partition, task.ctx.disks, task.shard
    store = _store(task)
    pmap = _pmap(task)
    meter = active_meter()
    partners = [_phase_partner(i, t, disks) for t in range(1, disks)]
    spill_paths = [store.path(i, nl_spill_name(i, j)) for j in partners]
    counts = [MappedSegment.record_count(path) for path in spill_paths]
    total = sum(counts)
    lo, hi = (0, total) if shard is None else (shard.lo, min(shard.hi, total))
    sink = PairSink(store.path(i, pairs_name("p1", i, shard)), hi - lo)
    base = 0
    try:
        for j, path, count in zip(partners, spill_paths, counts):
            start = max(0, lo - base)
            stop = min(count, hi - base)
            base += count
            if shard is not None and start >= stop:
                continue
            with RRelationFile.open(path) as spill, store.open_s(j) as s_rel:
                r_bytes = spill.segment.layout.record_bytes
                s_bytes = s_rel.segment.layout.record_bytes
                for rid, sptr, payload in spill.iter_column_batches(
                    task.plan.batch_records, start, stop
                ):
                    charged = len(rid) * (r_bytes + s_bytes)
                    meter.charge(charged, "nested-loops spill batch")
                    sid, value = s_rel.dereference_columns(
                        pmap.offset_array(sptr)
                    )
                    sink.emit_arrays(rid, sid, payload, value)
                    meter.release(charged)
        return sink.close()
    except BaseException:
        sink.abort()
        raise


# --------------------------------------------------------------- sort-merge

@register_kernel
def sort_merge_partition(task: KernelTask) -> int:
    """Passes 0 and 1 for one contributor: write the RS_j_from_i files."""
    i, disks, record_bytes = task.partition, task.ctx.disks, task.ctx.r_bytes
    store = _store(task)
    pmap = _pmap(task)
    meter = active_meter()
    with store.open_r(i) as r_rel:
        outputs = {
            j: RRelationFile.create(
                store.path(j, rs_name(j, i)), max(1, len(r_rel)),
                record_bytes, overwrite=True,
            )
            for j in range(disks)
        }
        moved = 0
        try:
            for rid, sptr, payload in r_rel.iter_column_batches(
                task.plan.batch_records
            ):
                meter.charge(
                    len(rid) * record_bytes, "sort-merge partition batch"
                )
                parts, _offs = pmap.locate_array(sptr)
                for target in _targets_in_encounter_order(parts):
                    mask = parts == target
                    outputs[target].append_columns(
                        rid[mask], sptr[mask], payload[mask]
                    )
                    moved += int(mask.sum())
                meter.release(len(rid) * record_bytes)
            for rel in outputs.values():
                rel.close()
        except BaseException:
            for rel in outputs.values():
                rel.abort()
            raise
    return moved


class _ColumnBuffer:
    """FIFO of (rid, sptr, payload) column chunks with exact-size takes.

    The sort-run stage's buffer: chunks queue up as they arrive and
    :meth:`take` cuts exactly ``n`` records off the front (splitting a
    chunk when the boundary lands inside one), so every run is a
    contiguous ``irun``-record slice of the inbound stream.
    """

    def __init__(self) -> None:
        self._chunks: List[tuple] = []
        self.total = 0

    def extend(self, rid, sptr, payload) -> None:
        if len(rid):
            self._chunks.append((rid, sptr, payload))
            self.total += len(rid)

    def take(self, n: int) -> tuple:
        taken: List[tuple] = []
        need = n
        while need:
            rid, sptr, payload = self._chunks[0]
            if len(rid) <= need:
                taken.append(self._chunks.pop(0))
                need -= len(rid)
            else:
                taken.append((rid[:need], sptr[:need], payload[:need]))
                self._chunks[0] = (rid[need:], sptr[need:], payload[need:])
                need = 0
        self.total -= n
        return (
            np.concatenate([c[0] for c in taken]),
            np.concatenate([c[1] for c in taken]),
            np.concatenate([c[2] for c in taken]),
        )


@register_kernel
def sort_merge_runs(task: KernelTask) -> int:
    """Cut one partition's inbound RS files into sorted runs on disk.

    The meter's charge always equals the buffered records' bytes: each
    inbound batch charges, each flushed run releases exactly what it
    wrote — so a shrunken ``irun`` (the governor's sort-merge knob)
    directly lowers the high-water mark at the cost of more runs for the
    merge stage.
    """
    i, shard, record_bytes = task.partition, task.shard, task.ctx.r_bytes
    store = _store(task)
    meter = active_meter()
    irun = max(1, task.plan.irun)
    # Stale runs are poison: the merge stage discovers runs by glob, so
    # leftovers from a previous attempt or plan (including torn-write
    # garbage at a run's final path) must be gone before this attempt
    # cuts its own.  Sharded cutters must NOT sweep — they would race
    # each other's fresh runs; the executor pre-cleans the partition
    # once before dispatching the shard tasks.
    if shard is None:
        for stale in run_paths(store, i):
            stale.unlink(missing_ok=True)
    # Shards namespace their run ids so every shard writes disjoint run
    # files; numeric sort over the combined ids reproduces shard order
    # then local order, i.e. the concatenated inbound order.
    run_base = 0 if shard is None else shard.index * RUN_SHARD_STRIDE
    buffer = _ColumnBuffer()
    run_id = 0
    inbound = 0

    def flush_run(count: int) -> None:
        nonlocal run_id
        if not count:
            return
        rid, sptr, payload = buffer.take(count)
        order = np.argsort(sptr, kind="stable")
        rel = RRelationFile.create(
            store.path(i, run_name(i, run_base + run_id)), count,
            record_bytes, overwrite=True,
        )
        try:
            rel.append_columns(rid[order], sptr[order], payload[order])
        except BaseException:
            rel.abort()
            raise
        rel.close()
        run_id += 1
        meter.release(count * record_bytes)

    lo = 0 if shard is None else shard.lo
    hi = None if shard is None else shard.hi
    base = 0
    for contributor in range(task.ctx.disks):
        path = store.path(i, rs_name(i, contributor))
        count = MappedSegment.record_count(path)
        start = max(0, lo - base)
        stop = count if hi is None else min(count, hi - base)
        base += count
        if shard is not None and start >= stop:
            continue
        with RRelationFile.open(path) as rel:
            for rid, sptr, payload in rel.iter_column_batches(
                task.plan.batch_records, start, stop
            ):
                inbound += len(rid)
                meter.charge(len(rid) * record_bytes, "sort-run buffer")
                buffer.extend(rid, sptr, payload)
                while buffer.total >= irun:
                    flush_run(irun)
    flush_run(buffer.total)
    return inbound


class _RunCursor:
    """One sorted run's read cursor for the bounded k-way merge.

    Buffers at most its share of the merge budget (more only while this
    run ties on the merge bound); the file side is read with
    :meth:`RRelationFile.read_columns` so memory stays bounded by the
    share, not the run length.

    With a key range ``[klo, khi)`` (the ``keys`` rebalance axis) each
    loaded chunk is masked to the range; because runs are sptr-sorted,
    once a chunk's tail reaches ``khi`` the rest of the file is out of
    range and the cursor reports exhausted.
    """

    def __init__(
        self,
        rel: RRelationFile,
        klo: int | None = None,
        khi: int | None = None,
    ) -> None:
        self.rel = rel
        self.length = len(rel)
        self.pos = 0  # file records loaded so far
        self.klo = klo
        self.khi = khi
        self.range_done = False  # key range exhausted before file end
        self.rid = self.sptr = self.payload = None
        if klo is not None:
            # Seek past lower shards' records instead of reading and
            # masking them away chunk by chunk.
            self.pos = run_lower_bound(rel, klo)

    @property
    def buffered(self) -> int:
        return 0 if self.sptr is None else len(self.sptr)

    @property
    def file_exhausted(self) -> bool:
        return self.range_done or self.pos >= self.length

    def load(self, chunk_records: int, meter, record_bytes: int) -> int:
        """Read up to ``chunk_records`` more file records into the buffer
        (key-range misses excluded, so keep reading until one lands)."""
        delivered = 0
        while not delivered and not self.file_exhausted:
            n = min(chunk_records, self.length - self.pos)
            rid, sptr, payload = self.rel.read_columns(self.pos, n)
            self.pos += n
            metrics = _metrics()
            if metrics.enabled:
                kind = self.rel.segment.kind
                metrics.count("storage.read.batches", 1, kind=kind)
                metrics.count("storage.read.records", n, kind=kind)
                metrics.count("storage.read.bytes", n * record_bytes, kind=kind)
            if self.klo is not None:
                if int(sptr[-1]) >= self.khi:
                    self.range_done = True
                keep = (sptr >= np.uint64(self.klo)) & (
                    sptr < np.uint64(self.khi)
                )
                if not keep.all():
                    rid, sptr, payload = rid[keep], sptr[keep], payload[keep]
                if not len(rid):
                    continue
            if self.buffered:
                self.rid = np.concatenate([self.rid, rid])
                self.sptr = np.concatenate([self.sptr, sptr])
                self.payload = np.concatenate([self.payload, payload])
            else:
                self.rid, self.sptr, self.payload = rid, sptr, payload
            meter.charge(len(rid) * record_bytes, "merge run chunk")
            delivered = len(rid)
        return delivered

    def take(self, n: int) -> tuple:
        out = (self.rid[:n], self.sptr[:n], self.payload[:n])
        if n >= self.buffered:
            self.rid = self.sptr = self.payload = None
        else:
            self.rid = self.rid[n:]
            self.sptr = self.sptr[n:]
            self.payload = self.payload[n:]
        return out


@register_kernel
def sort_merge_merge_join(task: KernelTask) -> PairResult:
    """Merge one partition's sorted runs and join against sequential S_i.

    A single run needs no merge: its batches are already in sptr order.
    Several runs merge k-way under one fixed budget (:func:`_merge_runs`).

    Rebalance axis ``keys``: the task's :class:`Shard` carries an sptr
    key range ``[lo, hi)``.  Each shard merges *all* runs clipped to its
    range; the ranges tile the key space, so the shard union is the full
    merge (runs are sorted, so clipping preserves merge order).
    """
    i, shard, record_bytes = task.partition, task.shard, task.ctx.r_bytes
    batch_records = task.plan.batch_records
    store = _store(task)
    pmap = _pmap(task)
    meter = active_meter()
    paths = run_paths(store, i)
    capacity = sum(MappedSegment.record_count(path) for path in paths)
    sink = PairSink(store.path(i, pairs_name("sm", i, shard)), capacity)
    try:
        with store.open_s(i) as s_rel:
            s_bytes = s_rel.segment.layout.record_bytes
            batch_cost = record_bytes + s_bytes

            def emit(rid, sptr, payload) -> None:
                sid, value = s_rel.dereference_columns(
                    pmap.offset_array(sptr)
                )
                sink.emit_arrays(rid, sid, payload, value)

            if len(paths) == 1 and shard is None:
                with RRelationFile.open(paths[0]) as rel:
                    for rid, sptr, payload in rel.iter_column_batches(
                        batch_records
                    ):
                        meter.charge(len(rid) * batch_cost, "merge batch")
                        emit(rid, sptr, payload)
                        meter.release(len(rid) * batch_cost)
            elif paths:
                klo, khi = (None, None) if shard is None else (shard.lo, shard.hi)
                cursors = [
                    _RunCursor(RRelationFile.open(path), klo, khi)
                    for path in paths
                ]
                try:
                    _merge_runs(
                        cursors, batch_records, record_bytes, s_bytes,
                        meter, emit,
                    )
                finally:
                    for cursor in cursors:
                        cursor.rel.close()
        return sink.close()
    except BaseException:
        sink.abort()
        raise


def _merge_runs(
    cursors: List[_RunCursor],
    batch_records: int,
    record_bytes: int,
    s_bytes: int,
    meter,
    emit,
) -> None:
    """Drain the run cursors in global key order, emitting block-at-a-time.

    Like the paper's multi-way merge, the k runs divide one fixed budget
    of ``batch_records`` records: each cursor holds at most a
    ``batch_records // k`` share and is topped back up to it before every
    round, so the merge's footprint is one batch whatever the run count.
    Each round computes the *bound* — the smallest last-buffered key
    among runs with unread file data — and everything strictly below it
    is provably complete in the buffers, so one stable argsort of those
    slices (concatenated in run order) is the global merge order, ties
    broken by run then position, exactly as a heap merge breaks them.
    """
    share = max(1, batch_records // len(cursors))
    while True:
        for cursor in cursors:
            if cursor.buffered < share and not cursor.file_exhausted:
                cursor.load(share - cursor.buffered, meter, record_bytes)
        if not any(cursor.buffered for cursor in cursors):
            return
        bounds = [
            int(cursor.sptr[-1])
            for cursor in cursors
            if not cursor.file_exhausted
        ]
        bound = min(bounds) if bounds else None
        taken: List[tuple] = []
        for cursor in cursors:
            if not cursor.buffered:
                continue
            if bound is None:
                n = cursor.buffered
            else:
                n = int(np.searchsorted(cursor.sptr, bound, side="left"))
            if n:
                taken.append(cursor.take(n))
        if not taken:
            # Every buffered key ties the bound; deepen the tying runs so
            # all equal keys are in memory before they are ordered.
            for cursor in cursors:
                if not cursor.file_exhausted and (
                    not cursor.buffered or int(cursor.sptr[-1]) == bound
                ):
                    cursor.load(share, meter, record_bytes)
            continue
        rid = np.concatenate([t[0] for t in taken])
        sptr = np.concatenate([t[1] for t in taken])
        payload = np.concatenate([t[2] for t in taken])
        order = np.argsort(sptr, kind="stable")
        for lo in range(0, len(order), batch_records):
            block = order[lo:lo + batch_records]
            meter.charge(len(block) * s_bytes, "merge batch")
            emit(rid[block], sptr[block], payload[block])
            meter.release(len(block) * (record_bytes + s_bytes))


# ------------------------------------------------------- grace / hybrid hash

def _scatter_buckets(
    task: KernelTask,
    store: Store,
    r_rel: RRelationFile,
    label: str,
    resident: int = 0,
    sink: PairSink | None = None,
) -> int:
    """Scan R_i, bucket every record, and spill the bucket groups.

    The one scan → bucket → group → flush body of both bucketed
    partition kernels; returns the number of records spilled.  Records
    whose bucket is below ``resident`` are dereferenced against their
    target S partition and joined into ``sink`` during the scan instead
    of spilled (hybrid hash; grace passes 0 and no sink).

    Spilled groups are retained in memory across the scan by default —
    the probe side, where the memory bound actually lives, stays
    bucket-at-a-time.  Under a memory budget the governor sets
    ``plan.spill_threshold``: whenever that many objects are retained
    the groups are flushed to *chunked* spill files
    (``BS<j>_from<i>_c<n>``), bounding the pass at threshold + one
    batch.  The probe side reads base and chunk files alike, so the join
    output is identical.
    """
    i, plan, record_bytes = task.partition, task.plan, task.ctx.r_bytes
    buckets, threshold = plan.buckets, plan.spill_threshold
    pmap = _pmap(task)
    meter = active_meter()
    part = resolve_partitioner(
        task.ctx.store_root,
        task.partitioner,
        [pmap.partition_size(j) for j in range(task.ctx.disks)],
        buckets,
    )
    grouped: Dict[int, List[tuple]] = {}
    moved = 0
    retained = 0
    chunk_id = 0
    s_rels: Dict[int, object] = {}

    def flush_groups(chunk: int | None) -> int:
        """Write each target's groups as one bucketed spill file.

        The files are named by :func:`~repro.parallel.engine.task.
        bucket_spill_name`, which is also how the probe kernel finds
        them.  The partitioner's stable bucket-contiguous ``order``
        groups each target's records (encounter order within a bucket
        preserved), and the whole blob lands in one
        :meth:`BucketedRFile.append_buckets_packed` slice write.
        """
        nonlocal retained
        flushed = 0
        for target, chunks in grouped.items():
            rid, sptr, payload, bucket = map(np.concatenate, zip(*chunks))
            order = part.order(bucket)
            counts = np.bincount(bucket.astype(np.int64), minlength=buckets)
            spill = BucketedRFile.create(
                store.path(target, bucket_spill_name(target, i, chunk)),
                len(rid), buckets, record_bytes, overwrite=True,
            )
            try:
                spill.append_buckets_packed(
                    spill.segment.layout.pack_columns(
                        rid[order], sptr[order], payload[order]
                    ),
                    [int(c) for c in counts],
                )
            except BaseException:
                spill.abort()
                raise
            spill.close()
            flushed += len(rid)
        grouped.clear()
        meter.release(retained * record_bytes)
        retained = 0
        return flushed

    try:
        for rid, sptr, payload in r_rel.iter_column_batches(
            plan.batch_records
        ):
            meter.charge(len(rid) * record_bytes, label)
            parts, offs = pmap.locate_array(sptr)
            bucket = part.bucket_array(parts, offs, rid)
            joined = 0
            if resident:
                home = bucket < resident
                joined = int(home.sum())
                if joined:
                    for target in _targets_in_encounter_order(parts[home]):
                        mask = home & (parts == target)
                        if target not in s_rels:
                            s_rels[target] = store.open_s(target)
                        s_rel = s_rels[target]
                        charged = (
                            int(mask.sum()) * s_rel.segment.layout.record_bytes
                        )
                        meter.charge(charged, "resident S batch")
                        sid, value = s_rel.dereference_columns(offs[mask])
                        sink.emit_arrays(rid[mask], sid, payload[mask], value)
                        meter.release(charged)
                    out = ~home
                    rid, sptr, payload = rid[out], sptr[out], payload[out]
                    parts, bucket = parts[out], bucket[out]
                meter.release(joined * record_bytes)
            for target in _targets_in_encounter_order(parts):
                mask = parts == target
                grouped.setdefault(target, []).append(
                    (rid[mask], sptr[mask], payload[mask], bucket[mask])
                )
            retained += len(rid)
            if threshold is not None and retained >= threshold:
                moved += flush_groups(chunk_id)
                chunk_id += 1
        if threshold is None:
            moved += flush_groups(None)
        elif grouped:
            moved += flush_groups(chunk_id)
    finally:
        for rel in s_rels.values():
            rel.close()
    return moved


@register_kernel
def grace_partition(task: KernelTask) -> int:
    """Passes 0 and 1 for one contributor: hash into the BS_j_from_i files.

    All of one contributor's spill for one target lands in a single
    bucket-grouped :class:`BucketedRFile` (file creation dominates this
    pass when every (target, bucket) pair gets its own file); the scan
    itself is :func:`_scatter_buckets` with no resident buckets.
    """
    store = _store(task)
    with store.open_r(task.partition) as r_rel:
        return _scatter_buckets(task, store, r_rel, "grace bucket groups")


@register_kernel
def hybrid_hash_partition(task: KernelTask) -> StageOutput:
    """Hybrid hash partitioning: join resident buckets on the fly.

    Like :func:`grace_partition`, but references hashing to the plan's
    *resident* buckets (``bucket < resident``) never touch a spill file —
    they are dereferenced against the target S partition and joined during
    the scan, exactly the r0-buckets-stay-home structure of the paper's
    hybrid hash (``joins/hybrid_hash.py``).  Non-resident buckets spill
    with the *full* bucket count, so the unchanged probe kernel reads
    them; the resident buckets are simply empty there.  With ``resident
    == 0`` this degenerates to grace partitioning — the governor's final
    memory rung.
    """
    i = task.partition
    store = _store(task)
    with store.open_r(i) as r_rel:
        sink = PairSink(store.path(i, pairs_name("hh", i)), len(r_rel))
        try:
            moved = _scatter_buckets(
                task, store, r_rel, "hybrid bucket groups",
                task.plan.effective_resident_buckets(), sink,
            )
            result = sink.close()
        except BaseException:
            sink.abort()
            raise
    return StageOutput(moved, result)


@register_kernel
def grace_probe(task: KernelTask) -> PairResult:
    """Probe passes for one partition: bucket table, ordered S access.

    The paper's ``TSIZE`` chain table is one stable argsort by refining
    chain (:func:`repro.joins.grace.refining_chain`): chains fill in
    inbound order and flatten in chain order, which is exactly the
    sorted-by-chain permutation.

    Rebalance axis ``buckets``: the task's :class:`Shard` restricts the
    probe to the contiguous bucket range ``[lo, hi)``.  Buckets are
    independent units of work, so the shard union probes exactly the
    unsharded bucket sequence.
    """
    i, shard = task.partition, task.shard
    buckets, tsize = task.plan.buckets, task.plan.tsize
    batch_records = task.plan.batch_records
    store = _store(task)
    pmap = _pmap(task)
    meter = active_meter()
    part_size = pmap.partition_size(i)
    bucket_lo = 0 if shard is None else shard.lo
    bucket_hi = buckets if shard is None else min(shard.hi, buckets)
    inbound: List[BucketedRFile] = []
    for contributor in range(task.ctx.disks):
        for path in bucket_spill_paths(store, i, contributor):
            inbound.append(BucketedRFile.open(path))
    capacity = sum(len(rel) for rel in inbound)
    sink = None
    try:
        sink = PairSink(store.path(i, pairs_name("probe", i, shard)), capacity)
        with store.open_s(i) as s_rel:
            s_bytes = s_rel.segment.layout.record_bytes
            for bucket in range(bucket_lo, bucket_hi):
                chunks: List[tuple] = []
                bucket_charged = 0
                for rel in inbound:
                    r_bytes = rel.segment.layout.record_bytes
                    rid, sptr, payload = rel.read_bucket_columns(bucket)
                    if not len(rid):
                        continue
                    meter.charge(len(rid) * r_bytes, "grace probe bucket")
                    bucket_charged += len(rid) * r_bytes
                    chunks.append((rid, sptr, payload))
                if chunks:
                    rid = np.concatenate([c[0] for c in chunks])
                    sptr = np.concatenate([c[1] for c in chunks])
                    payload = np.concatenate([c[2] for c in chunks])
                    offs = pmap.offset_array(sptr)
                    chain = (
                        offs * np.uint64(buckets * tsize) // part_size
                    ) % np.uint64(tsize)
                    order = np.argsort(chain, kind="stable")
                    for lo in range(0, len(order), batch_records):
                        block = order[lo:lo + batch_records]
                        meter.charge(len(block) * s_bytes, "dereferenced S batch")
                        sid, value = s_rel.dereference_columns(offs[block])
                        sink.emit_arrays(rid[block], sid, payload[block], value)
                        meter.release(len(block) * s_bytes)
                meter.release(bucket_charged)
        return sink.close()
    except BaseException:
        if sink is not None:
            sink.abort()
        raise
    finally:
        for rel in inbound:
            rel.close()
