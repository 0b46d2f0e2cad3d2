"""Tests for workload persistence."""

import numpy as np
import pytest

from repro.joins import expected_checksum
from repro.workload import (
    WorkloadIOError,
    WorkloadSpec,
    generate_workload,
    load_workload,
    save_workload,
)


@pytest.fixture(scope="module")
def workload():
    return generate_workload(
        WorkloadSpec(
            r_objects=500,
            s_objects=400,
            distribution="zipf",
            distribution_args={"theta": 0.8},
            seed=13,
        ),
        disks=3,
    )


class TestRoundTrip:
    def test_relations_identical(self, workload, tmp_path):
        path = tmp_path / "wl.npz"
        save_workload(workload, path)
        loaded = load_workload(path)
        assert loaded.r_partitions == workload.r_partitions
        assert loaded.s_objects == workload.s_objects
        assert loaded.disks == workload.disks

    def test_spec_preserved(self, workload, tmp_path):
        path = tmp_path / "wl.npz"
        save_workload(workload, path)
        loaded = load_workload(path)
        assert loaded.spec == workload.spec

    def test_oracle_checksum_preserved(self, workload, tmp_path):
        path = tmp_path / "wl.npz"
        save_workload(workload, path)
        assert expected_checksum(load_workload(path)) == expected_checksum(workload)

    def test_pointer_map_reconstructed(self, workload, tmp_path):
        path = tmp_path / "wl.npz"
        save_workload(workload, path)
        loaded = load_workload(path)
        assert loaded.pointer_map.partitions == 3
        assert loaded.measured_skew() == pytest.approx(workload.measured_skew())


class TestErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(WorkloadIOError):
            load_workload(tmp_path / "ghost.npz")

    def test_non_archive_file(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"definitely not a zip")
        with pytest.raises(WorkloadIOError):
            load_workload(path)

    def test_archive_without_header(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez(path, data=np.arange(5))
        with pytest.raises(WorkloadIOError):
            load_workload(path)

    def test_corrupt_pointer_detected(self, workload, tmp_path):
        path = tmp_path / "wl.npz"
        save_workload(workload, path)
        archive = dict(np.load(path))
        bad_sptr = archive["r_sptr"].copy()
        bad_sptr[0] = 10_000_000
        archive["r_sptr"] = bad_sptr
        np.savez(path, **archive)
        with pytest.raises(WorkloadIOError, match="out-of-range"):
            load_workload(path)

    @pytest.mark.parametrize(
        "column,value,message",
        [("r_payload", -1, "negative"), ("s_sid", 7, "not at their sid")],
    )
    def test_corrupt_column_detected(self, workload, tmp_path, column, value, message):
        path = tmp_path / "wl.npz"
        save_workload(workload, path)
        archive = dict(np.load(path))
        bad = archive[column].copy()
        bad[0] = value
        archive[column] = bad
        np.savez(path, **archive)
        with pytest.raises(WorkloadIOError, match=message):
            load_workload(path)
