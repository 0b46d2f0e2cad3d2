"""Workload generation: build the R and S relations of a join experiment.

The paper's validation workload is two relations of 102,400 objects of 128
bytes each, partitioned over 4 disks, with uniformly random join pointers.
:func:`generate_workload` reproduces that (and variations) deterministically
from a seed, and the resulting :class:`Workload` knows how to describe
itself to the analytical model (:meth:`Workload.relation_parameters`),
including its *measured* partition skew.

A workload is held as read-only u64 columns — ``rid``/``sptr``/``payload``
for R (in partition order) and ``value``/``payload`` for S (``sid`` is the
index) — from the generator to the store: records stay columns and file
offsets, never a Python object graph.  The per-object views
(:attr:`Workload.r_partitions`, :attr:`Workload.s_objects`) are built on
first use for the simulator, the oracle and the CLI.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Tuple

import numpy as np

from repro.core.partition import partition_skew, split_sizes
from repro.core.pointer import PointerMap
from repro.core.records import RObject, SObject
from repro.model.parameters import RelationParameters
from repro.workload.distributions import sampler
from repro.workload.stream import (
    WordStream,
    randbelow,
    randbelow_pairs,
    shuffled_order,
)

#: ``randrange`` bounds of the generated non-key fields.
S_VALUE_RANGE = 1_000_000
PAYLOAD_RANGE = 1 << 30


@dataclass(frozen=True)
class WorkloadSpec:
    """Declarative description of a join workload."""

    r_objects: int = 102_400
    s_objects: int = 102_400
    r_bytes: int = 128
    s_bytes: int = 128
    sptr_bytes: int = 8
    distribution: str = "uniform"
    distribution_args: Dict[str, float] = field(default_factory=dict)
    seed: int = 96

    def __post_init__(self) -> None:
        if self.r_objects <= 0 or self.s_objects <= 0:
            raise ValueError("relation cardinalities must be positive")
        if self.r_bytes <= 0 or self.s_bytes <= 0:
            raise ValueError("object sizes must be positive")

    @classmethod
    def paper_validation(cls, scale: float = 1.0, seed: int = 96) -> "WorkloadSpec":
        """The section-8 validation workload, optionally scaled down.

        ``scale = 1.0`` is the paper's full 102,400-object experiment;
        smaller scales keep the object size and distribution while shrinking
        both relations proportionally (handy for CI-speed runs).
        """
        if scale <= 0:
            raise ValueError("scale must be positive")
        objects = max(64, int(102_400 * scale))
        return cls(r_objects=objects, s_objects=objects, seed=seed)


def _frozen(column) -> np.ndarray:
    array = np.ascontiguousarray(column, dtype=np.uint64)
    array.flags.writeable = False
    return array


@dataclass(frozen=True, eq=False)
class Workload:
    """A fully-materialized workload, partitioned for ``D`` processes.

    ``r_sizes[i]`` is the size of R partition ``i``; partition ``i`` is
    the run of the R columns that follows partitions ``0..i-1``.
    """

    spec: WorkloadSpec
    disks: int
    r_rid: np.ndarray
    r_sptr: np.ndarray
    r_payload: np.ndarray
    s_value: np.ndarray
    s_payload: np.ndarray
    r_sizes: Tuple[int, ...]
    pointer_map: PointerMap = field(init=False)

    def __post_init__(self) -> None:
        for name in ("r_rid", "r_sptr", "r_payload", "s_value", "s_payload"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))
        object.__setattr__(self, "r_sizes", tuple(int(n) for n in self.r_sizes))
        if len(self.r_sizes) != self.disks or sum(self.r_sizes) != len(self.r_rid):
            raise ValueError("R partition sizes must cover R, one per disk")
        object.__setattr__(
            self, "pointer_map",
            PointerMap(s_objects=len(self.s_value), partitions=self.disks),
        )

    @property
    def r_objects_total(self) -> int:
        return len(self.r_rid)

    @property
    def s_objects_total(self) -> int:
        return len(self.s_value)

    def r_columns(self, partition: int) -> Tuple[np.ndarray, ...]:
        """R partition ``partition`` as (rid, sptr, payload) u64 columns."""
        start = sum(self.r_sizes[:partition])
        stop = start + self.r_sizes[partition]
        return (
            self.r_rid[start:stop],
            self.r_sptr[start:stop],
            self.r_payload[start:stop],
        )

    def s_columns(self, partition: int) -> Tuple[np.ndarray, ...]:
        """S partition ``partition`` as (sid, value, payload) u64 columns."""
        start = self.pointer_map.partition_start(partition)
        stop = start + self.pointer_map.partition_size(partition)
        return (
            np.arange(start, stop, dtype=np.uint64),
            self.s_value[start:stop],
            self.s_payload[start:stop],
        )

    @cached_property
    def r_partitions(self) -> List[List[RObject]]:
        """R as ``RObject`` lists, one per partition (built on first use)."""
        return [
            list(map(RObject._make, zip(
                *(column.tolist() for column in self.r_columns(i))
            )))
            for i in range(self.disks)
        ]

    @cached_property
    def s_objects(self) -> List[SObject]:
        """S as ``SObject``s in sid order (built on first use)."""
        return list(map(SObject._make, zip(
            range(self.s_objects_total),
            self.s_value.tolist(),
            self.s_payload.tolist(),
        )))

    def s_partition(self, partition: int) -> List[SObject]:
        start = self.pointer_map.partition_start(partition)
        size = self.pointer_map.partition_size(partition)
        return self.s_objects[start : start + size]

    @cached_property
    def _skew(self) -> float:
        targets = self.pointer_map.locate_array(self.r_sptr)[0].astype(np.intp)
        worst = 1.0
        start = 0
        for size in self.r_sizes:
            counts = np.bincount(
                targets[start : start + size], minlength=self.disks
            )
            worst = max(worst, partition_skew(counts.tolist()))
            start += size
        return worst

    def measured_skew(self) -> float:
        """The paper's skew statistic, measured on the actual pointers.

        One ``bincount`` per R partition; cached, as the columns are
        read-only.
        """
        return self._skew

    def relation_parameters(self, measured_skew: bool = True) -> RelationParameters:
        """Describe this workload to the analytical model."""
        return RelationParameters(
            r_objects=self.r_objects_total,
            s_objects=self.s_objects_total,
            r_bytes=self.spec.r_bytes,
            s_bytes=self.spec.s_bytes,
            sptr_bytes=self.spec.sptr_bytes,
            skew=self.measured_skew() if measured_skew else 1.0,
        )

    def expected_pairs(self) -> List[tuple[int, int]]:
        """The correct join output as (rid, sid) pairs — the test oracle.

        Every R-object joins exactly the S-object its pointer names, so the
        oracle is immediate from the workload itself.
        """
        return list(zip(self.r_rid.tolist(), self.r_sptr.tolist()))


def generate_workload(spec: WorkloadSpec, disks: int) -> Workload:
    """Materialize a workload for a ``disks``-way parallel join.

    The columns are drawn from one ``random.Random(spec.seed)`` stream in
    the order a per-object loop draws them — for each S-object its value
    then its payload, then R's pointers (the distribution's sampler), then
    one payload per R-object, then R's shuffle — so every value is the
    one that loop produces.
    """
    if disks <= 0:
        raise ValueError("disks must be positive")
    rng = random.Random(spec.seed)

    with WordStream(rng) as stream:
        s_value, s_payload = randbelow_pairs(
            stream, S_VALUE_RANGE, PAYLOAD_RANGE, spec.s_objects
        )
    sample = sampler(spec.distribution)
    sptr = np.asarray(
        sample(rng, spec.r_objects, spec.s_objects, **spec.distribution_args),
        dtype=np.uint64,
    )
    with WordStream(rng) as stream:
        r_payload = randbelow(stream, PAYLOAD_RANGE, spec.r_objects)
    rid = np.arange(spec.r_objects, dtype=np.uint64)
    # Shuffle before splitting so positional partitioning is random
    # assignment, matching the paper's "randomly distributed" premise —
    # unless the sampler declares that R's order is part of the
    # distribution (clustered runs would be destroyed by a shuffle).
    if not getattr(sample, "order_matters", False):
        order = shuffled_order(rng, spec.r_objects)
        rid, sptr, r_payload = rid[order], sptr[order], r_payload[order]

    return Workload(
        spec=spec,
        disks=disks,
        r_rid=rid,
        r_sptr=sptr,
        r_payload=r_payload,
        s_value=s_value,
        s_payload=s_payload,
        r_sizes=split_sizes(spec.r_objects, disks),
    )
