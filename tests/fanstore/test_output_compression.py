"""The compressed write path (output_compressor config)."""

from __future__ import annotations

import pytest

from repro.comm.launcher import run_parallel
from repro.fanstore.daemon import DaemonConfig
from repro.fanstore.store import FanStore, FanStoreOptions


@pytest.fixture()
def compressing_store(prepared_dataset):
    config = DaemonConfig(output_compressor="zlib-6")
    with FanStore(prepared_dataset, FanStoreOptions(config=config)) as fs:
        yield fs


class TestCompressedOutputs:
    def test_roundtrip_through_compression(self, compressing_store):
        client = compressing_store.client
        payload = b"checkpoint state " * 500
        client.write_file("ckpt/model.bin", payload)
        assert client.read_file("ckpt/model.bin") == payload

    def test_backend_holds_compressed_bytes(self, compressing_store):
        client = compressing_store.client
        payload = b"repetitive " * 1000
        client.write_file("out/r.bin", payload)
        stored = compressing_store.daemon.backend.get("out/r.bin")
        assert len(stored) < len(payload) // 3
        rec = compressing_store.daemon.metadata.get("out/r.bin")
        assert rec.compressor_id != 0
        assert rec.compressed_size == len(stored)
        assert rec.stat.st_size == len(payload)  # logical size unchanged

    def test_stat_reports_original_size(self, compressing_store):
        client = compressing_store.client
        client.write_file("out/s.bin", b"x" * 4096)
        assert client.stat("out/s.bin").st_size == 4096

    def test_incompressible_output_stays_raw(self, compressing_store):
        import os

        client = compressing_store.client
        noise = os.urandom(2048)
        client.write_file("out/noise.bin", noise)
        rec = compressing_store.daemon.metadata.get("out/noise.bin")
        assert rec.compressor_id == 0
        assert compressing_store.daemon.backend.get("out/noise.bin") == noise

    def test_default_config_stores_raw(self, single_store):
        payload = b"repetitive " * 200
        single_store.client.write_file("out/raw.bin", payload)
        assert single_store.daemon.backend.get("out/raw.bin") == payload

    def test_multinode_remote_read_of_compressed_output(
        self, prepared_dataset
    ):
        config = DaemonConfig(output_compressor="zlib-6")

        def body(comm):
            opts = FanStoreOptions(comm=comm, config=config)
            with FanStore(prepared_dataset, opts) as fs:
                payload = f"rank {comm.rank} ".encode() * 300
                fs.client.write_file(f"out/r{comm.rank}.bin", payload)
                comm.barrier()
                # read the neighbor's compressed output remotely
                other = (comm.rank + 1) % comm.size
                data = fs.client.read_file(f"out/r{other}.bin")
                return data == f"rank {other} ".encode() * 300

        assert all(run_parallel(body, 3, timeout=60))
