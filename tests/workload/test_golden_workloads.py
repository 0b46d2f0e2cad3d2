"""Golden workloads: segment bytes and join checksums pinned across versions.

``golden_workloads.json`` holds, for every registered distribution, two
seeds and two geometries (the paper workload at scale 0.05 over 4 disks,
and 1,000 objects over 3 disks, whose partitions are uneven), the sha256
of every materialized R and S segment's record area and the oracle's
``expected_checksum``.  The file was recorded from the per-record
``random.Random`` generator; the columnar generator must reproduce every
byte of it.  Every real-mmap plan must also reproduce the oracle's pair
count and checksum on each of those workloads.

Regenerate (only from a commit whose output is known to be right)::

    PYTHONPATH=src python tests/workload/test_golden_workloads.py
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from repro.joins.reference import expected_checksum
from repro.parallel import REAL_ALGORITHMS, run_real_join
from repro.storage.segment import MappedSegment
from repro.storage.store import Store
from repro.workload import WorkloadSpec, generate_workload
from repro.workload.distributions import DISTRIBUTIONS

GOLDEN = Path(__file__).with_name("golden_workloads.json")
SEEDS = (1, 96)
#: (name, objects per relation, disks)
GEOMETRIES = (("scale-0.05", 5_120, 4), ("uneven-1000", 1_000, 3))


def cases():
    for distribution in sorted(DISTRIBUTIONS):
        for seed in SEEDS:
            for geometry, objects, disks in GEOMETRIES:
                yield f"{distribution}-s{seed}-{geometry}", (
                    WorkloadSpec(
                        r_objects=objects, s_objects=objects,
                        distribution=distribution, seed=seed,
                    ),
                    disks,
                )


def segment_digests(store: Store) -> dict:
    """sha256 of each R and S segment's record area, per disk."""
    digests: dict = {"R": [], "S": []}
    for name in digests:
        for disk in range(store.disks):
            with MappedSegment.open(store.path(disk, name)) as segment:
                view = segment.read_batch(0, len(segment))
                try:
                    digests[name].append(hashlib.sha256(view).hexdigest())
                finally:
                    view.release()
    return digests


def record(spec: WorkloadSpec, disks: int) -> dict:
    workload = generate_workload(spec, disks)
    with tempfile.TemporaryDirectory() as root:
        store = Store(root, disks)
        store.materialize(workload)
        digests = segment_digests(store)
    return {
        "r_sha256": digests["R"],
        "s_sha256": digests["S"],
        "pairs": workload.r_objects_total,
        "expected_checksum": expected_checksum(workload),
    }


GOLDEN_CASES = dict(cases())


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_distribution(golden):
    assert sorted(golden) == sorted(GOLDEN_CASES)


@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_generator_reproduces_golden_bytes(case, golden):
    spec, disks = GOLDEN_CASES[case]
    assert record(spec, disks) == golden[case]


@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_every_plan_matches_the_golden_checksum(case, golden, tmp_path):
    spec, disks = GOLDEN_CASES[case]
    workload = generate_workload(spec, disks)
    want = (golden[case]["pairs"], golden[case]["expected_checksum"])
    for algorithm in REAL_ALGORITHMS:
        result = run_real_join(
            algorithm, workload, str(tmp_path / algorithm),
            use_processes=False, collect_pairs=False, collect_metrics=False,
        )
        assert (result.pair_count, result.checksum) == want, algorithm


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps(
            {case: record(*args) for case, args in GOLDEN_CASES.items()},
            indent=1, sort_keys=True,
        ) + "\n"
    )
    sys.stdout.write(f"wrote {len(GOLDEN_CASES)} cases to {GOLDEN}\n")
