"""Tests for typed relation files and the store directory."""

import pytest

from repro.core.records import RObject, SObject
from repro.storage.relation import (
    RRelationFile,
    SRelationFile,
    write_r_partition,
    write_s_partition,
)
from repro.storage.segment import StorageError
from repro.storage.store import Store
from repro.workload import WorkloadSpec, generate_workload


class TestRelationFiles:
    def test_r_roundtrip(self, tmp_path):
        objs = [RObject(i, i * 2, i * 3) for i in range(20)]
        path = tmp_path / "r.seg"
        write_r_partition(path, objs)
        with RRelationFile.open(path) as rel:
            assert len(rel) == 20
            assert list(rel) == objs
            assert rel.get(7) == objs[7]

    def test_s_dereference(self, tmp_path):
        objs = [SObject(i, i * 10, 0) for i in range(16)]
        path = tmp_path / "s.seg"
        write_s_partition(path, objs)
        with SRelationFile.open(path) as rel:
            assert rel.dereference(5).value == 50

    def test_empty_partition_files(self, tmp_path):
        write_r_partition(tmp_path / "r.seg", [])
        with RRelationFile.open(tmp_path / "r.seg") as rel:
            assert len(rel) == 0
            assert list(rel) == []


class TestStore:
    @pytest.fixture
    def workload(self):
        return generate_workload(
            WorkloadSpec(r_objects=120, s_objects=120, seed=4), disks=3
        )

    def test_creates_disk_directories(self, tmp_path):
        store = Store(tmp_path / "db", disks=3)
        for i in range(3):
            assert store.disk_dir(i).is_dir()

    def test_materialize_and_open(self, tmp_path, workload):
        store = Store(tmp_path / "db", disks=3)
        store.materialize(workload)
        with store.open_r(0) as r_rel:
            assert list(r_rel) == workload.r_partitions[0]
        with store.open_s(1) as s_rel:
            assert list(s_rel) == workload.s_partition(1)

    def test_materialize_matches_the_object_writers(self, tmp_path, workload):
        """Packing columns writes the same files as packing objects."""
        store = Store(tmp_path / "db", disks=3)
        store.materialize(workload)
        for i in range(3):
            write_r_partition(tmp_path / "r.seg", workload.r_partitions[i])
            write_s_partition(tmp_path / "s.seg", workload.s_partition(i))
            assert (tmp_path / "r.seg").read_bytes() == store.path(i, "R").read_bytes()
            assert (tmp_path / "s.seg").read_bytes() == store.path(i, "S").read_bytes()
            (tmp_path / "r.seg").unlink()
            (tmp_path / "s.seg").unlink()

    def test_disk_count_mismatch_rejected(self, tmp_path, workload):
        store = Store(tmp_path / "db", disks=2)
        with pytest.raises(StorageError):
            store.materialize(workload)

    def test_temp_lifecycle(self, tmp_path, workload):
        store = Store(tmp_path / "db", disks=3)
        store.materialize(workload)
        store.create_temp(0, "RP0", capacity=10, record_bytes=128)
        assert len(store.temp_paths(0)) == 1
        store.cleanup_temps()
        assert store.temp_paths(0) == []
        # Base relations survive temp cleanup.
        with store.open_r(0) as r_rel:
            assert len(r_rel) == len(workload.r_partitions[0])

    def test_destroy_removes_everything(self, tmp_path, workload):
        store = Store(tmp_path / "db", disks=3)
        store.materialize(workload)
        store.destroy()
        assert not (tmp_path / "db").exists()

    def test_bad_disk_index_rejected(self, tmp_path):
        store = Store(tmp_path / "db", disks=2)
        with pytest.raises(StorageError):
            store.disk_dir(2)

    def test_zero_disks_rejected(self, tmp_path):
        with pytest.raises(StorageError):
            Store(tmp_path / "db", disks=0)
