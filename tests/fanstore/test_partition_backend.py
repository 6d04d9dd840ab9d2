"""The SSD-mode PartitionBackend: pread from partition files in place."""

from __future__ import annotations

import pytest

from repro.comm.launcher import run_parallel
from repro.errors import FileNotFoundInStoreError
from repro.fanstore.backend import PartitionBackend
from repro.fanstore.store import FanStore, FanStoreOptions


class TestStandalone:
    def test_register_and_pread(self, tmp_path):
        f = tmp_path / "part.bin"
        f.write_bytes(b"HEADERpayload-oneEXTRApayload-two")
        backend = PartitionBackend()
        backend.register("a", f, 6, 11)
        backend.register("b", f, 22, 11)
        assert backend.get("a") == b"payload-one"
        assert backend.get("b") == b"payload-two"
        assert "a" in backend and "c" not in backend
        assert len(backend) == 2
        assert backend.resident_bytes == 22
        backend.close()

    def test_overlay_writes(self, tmp_path):
        backend = PartitionBackend()
        backend.put("runtime/out", b"written")
        assert backend.get("runtime/out") == b"written"
        assert len(backend) == 1

    def test_missing_raises(self):
        with pytest.raises(FileNotFoundInStoreError):
            PartitionBackend().get("nope")


class TestWithStore:
    def test_single_node_reads_by_pread(self, prepared_dataset,
                                        raw_dataset_dir):
        backend = PartitionBackend()
        opts = FanStoreOptions(backend=backend)
        with FanStore(prepared_dataset, opts) as fs:
            originals = {
                str(p.relative_to(raw_dataset_dir / "train")): p.read_bytes()
                for p in sorted((raw_dataset_dir / "train").rglob("*"))
                if p.is_file()
            }
            for rel, raw in originals.items():
                assert fs.client.read_file(rel) == raw
            # data stayed in the partition files (no blob copies):
            # resident accounting equals the packed payload bytes
            assert backend.resident_bytes <= prepared_dataset.compressed_bytes
        backend.close()

    def test_writes_still_work(self, prepared_dataset):
        backend = PartitionBackend()
        opts = FanStoreOptions(backend=backend)
        with FanStore(prepared_dataset, opts) as fs:
            fs.client.write_file("out/x.bin", b"overlayed")
            assert fs.client.read_file("out/x.bin") == b"overlayed"
        backend.close()

    def test_multinode_partition_backends(self, prepared_dataset):
        def body(comm):
            backend = PartitionBackend()
            try:
                opts = FanStoreOptions(comm=comm, backend=backend)
                with FanStore(prepared_dataset, opts) as fs:
                    total = 0
                    for rec in fs.daemon.metadata.walk_files():
                        total += len(fs.client.read_file(rec.path))
                    return total
            finally:
                backend.close()

        totals = run_parallel(body, 3, timeout=60)
        assert len(set(totals)) == 1

    def test_matches_ram_backend_bytes(self, prepared_dataset):
        backend = PartitionBackend()
        opts = FanStoreOptions(backend=backend)
        with FanStore(prepared_dataset, opts) as on_disk, \
                FanStore(prepared_dataset) as in_ram:
            for rec in in_ram.daemon.metadata.walk_files():
                assert on_disk.client.read_file(rec.path) == \
                    in_ram.client.read_file(rec.path)
        backend.close()
