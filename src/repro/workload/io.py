"""Workload persistence: save and reload exact experiment inputs.

A saved workload pins the *materialized* relations — not just the spec and
seed — so an experiment can be re-run bit-identically on another machine,
another backend (simulator vs. real mmap), or a future version whose RNG
stream might differ.  Files are numpy ``.npz`` archives: three parallel
arrays per relation plus the partition layout and the original spec.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from repro.workload.generator import Workload, WorkloadSpec

FORMAT_VERSION = 1

_COLUMNS = ("r_rid", "r_sptr", "r_payload", "s_value", "s_payload")


class WorkloadIOError(RuntimeError):
    """Raised for unreadable or inconsistent workload files."""


def save_workload(workload: Workload, path: str | os.PathLike) -> None:
    """Write a workload to an ``.npz`` archive."""
    header = {
        "format_version": FORMAT_VERSION,
        "disks": workload.disks,
        "spec": {
            "r_objects": workload.spec.r_objects,
            "s_objects": workload.spec.s_objects,
            "r_bytes": workload.spec.r_bytes,
            "s_bytes": workload.spec.s_bytes,
            "sptr_bytes": workload.spec.sptr_bytes,
            "distribution": workload.spec.distribution,
            "distribution_args": dict(workload.spec.distribution_args),
            "seed": workload.spec.seed,
        },
    }
    np.savez_compressed(
        path,
        header=np.frombuffer(json.dumps(header).encode(), dtype=np.uint8),
        partition_sizes=np.array(workload.r_sizes, dtype=np.int64),
        s_sid=np.arange(workload.s_objects_total, dtype=np.int64),
        **{
            name: getattr(workload, name).astype(np.int64)
            for name in _COLUMNS
        },
    )


def load_workload(path: str | os.PathLike) -> Workload:
    """Reload a workload written by :func:`save_workload`."""
    path = Path(path)
    if not path.exists():
        raise WorkloadIOError(f"no workload file at {path}")
    try:
        archive = np.load(path)
    except (OSError, ValueError) as exc:
        raise WorkloadIOError(f"cannot read workload file {path}: {exc}") from exc

    try:
        header = json.loads(bytes(archive["header"]).decode())
    except (KeyError, json.JSONDecodeError) as exc:
        raise WorkloadIOError(f"{path} is not a workload archive") from exc
    if header.get("format_version") != FORMAT_VERSION:
        raise WorkloadIOError(
            f"unsupported workload format {header.get('format_version')!r}"
        )

    spec = WorkloadSpec(**header["spec"])
    disks = int(header["disks"])
    columns = {name: archive[name] for name in _COLUMNS}
    partition_sizes = [int(n) for n in archive["partition_sizes"]]
    _validate(path, disks, partition_sizes, archive["s_sid"], **columns)
    return Workload(
        spec=spec,
        disks=disks,
        r_sizes=tuple(partition_sizes),
        **columns,
    )


def _validate(path: Path, disks: int, partition_sizes, s_sid, **columns) -> None:
    """Sanity-check the archive so corrupt files fail loudly."""
    if len(partition_sizes) != disks:
        raise WorkloadIOError(
            f"{path}: partition count {len(partition_sizes)} does not match "
            f"disks {disks}"
        )
    if sum(partition_sizes) != len(columns["r_rid"]):
        raise WorkloadIOError(f"{path}: partition sizes do not cover R")
    if any(len(column) and column.min() < 0 for column in columns.values()):
        raise WorkloadIOError(f"{path}: negative field value")
    n_s = len(columns["s_value"])
    if not np.array_equal(s_sid, np.arange(n_s)):
        raise WorkloadIOError(f"{path}: S-objects are not at their sid")
    bad = np.flatnonzero(columns["r_sptr"] >= n_s)
    if len(bad):
        raise WorkloadIOError(
            f"{path}: R object {int(columns['r_rid'][bad[0]])} has "
            f"out-of-range pointer {int(columns['r_sptr'][bad[0]])} "
            f"(|S| = {n_s})"
        )
