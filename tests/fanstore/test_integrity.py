"""End-to-end data integrity: digests at prepare time, manifest
validation, verify-on-read with self-repair, and the typed EIO-style
error when repair is impossible."""

from __future__ import annotations

import errno
import json
import shutil

import pytest

from repro.errors import (
    DataIntegrityError,
    FanStoreError,
    FormatError,
    ManifestError,
)
from repro.fanstore.corruption import corrupt_backend, corrupt_record
from repro.fanstore.daemon import DaemonConfig
from repro.fanstore.layout import (
    FLAG_HAS_DIGEST,
    FileStat,
    PartitionEntry,
    blob_crc32,
    entry_payload_ok,
    read_partition,
)
from repro.fanstore.prepare import (
    MANIFEST_NAME,
    MANIFEST_VERSION,
    PreparedDataset,
)
from repro.fanstore.store import FanStore, FanStoreOptions


# -- digests recorded at prepare time -----------------------------------


class TestPreparedDigests:
    def test_every_record_carries_its_payload_digest(self, prepared_dataset):
        paths = prepared_dataset.partition_paths()
        paths.append(prepared_dataset.broadcast_path())
        for ppath in paths:
            for e in read_partition(ppath, with_data=True):
                assert e.stat.has_digest
                assert e.stat.crc32 == blob_crc32(e.data)
                assert entry_payload_ok(e)

    def test_manifest_records_partition_digests(self, prepared_dataset):
        digests = prepared_dataset.partition_digests
        assert set(digests) == set(prepared_dataset.partitions) | {
            prepared_dataset.broadcast
        }
        assert all(len(d) == 64 for d in digests.values())
        assert prepared_dataset.verify_partition_digests() == []

    def test_manifest_version_bumped_and_self_digested(self, prepared_dataset):
        manifest = json.loads(
            (prepared_dataset.root / MANIFEST_NAME).read_text()
        )
        assert manifest["version"] == MANIFEST_VERSION == 2
        assert len(manifest["manifest_sha256"]) == 64

    def test_partition_digest_detects_drift(self, prepared_dataset, tmp_path):
        bad = tmp_path / "bad"
        shutil.copytree(prepared_dataset.root, bad)
        name = prepared_dataset.partitions[0]
        raw = bytearray((bad / name).read_bytes())
        raw[-1] ^= 0x01
        (bad / name).write_bytes(bytes(raw))
        assert PreparedDataset.load(bad).verify_partition_digests() == [name]

    def test_digest_survives_stat_pack_roundtrip(self):
        stat = FileStat(st_size=10).with_digest(0xDEADBEEF)
        packed = stat.pack()
        assert len(packed) == 144
        back = FileStat.unpack(packed)
        assert back.has_digest and back.crc32 == 0xDEADBEEF

    def test_pre_digest_records_still_pass(self):
        # a record without FLAG_HAS_DIGEST never fails verification,
        # even when crc32 happens to be 0 (old partitions decode to 0)
        stat = FileStat(st_size=3)
        assert not stat.has_digest
        entry = PartitionEntry(
            path="a", compressor_id=0, stat=stat, compressed_size=3,
            data=b"abc",
        )
        assert entry_payload_ok(entry)


# -- manifest schema/digest validation ----------------------------------


class TestManifestValidation:
    @pytest.fixture()
    def manifest_copy(self, prepared_dataset, tmp_path):
        root = tmp_path / "copy"
        shutil.copytree(prepared_dataset.root, root)
        return root

    def _edit(self, root, mutate):
        path = root / MANIFEST_NAME
        manifest = json.loads(path.read_text())
        mutate(manifest)
        path.write_text(json.dumps(manifest))
        return root

    def test_truncated_manifest_is_manifest_error(self, manifest_copy):
        path = manifest_copy / MANIFEST_NAME
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        with pytest.raises(ManifestError):
            PreparedDataset.load(manifest_copy)

    def test_missing_key_is_manifest_error_not_keyerror(self, manifest_copy):
        self._edit(manifest_copy, lambda m: m.pop("num_files"))
        with pytest.raises(ManifestError) as exc_info:
            PreparedDataset.load(manifest_copy)
        assert not isinstance(exc_info.value, KeyError)
        assert "num_files" in str(exc_info.value)

    def test_wrong_type_is_manifest_error(self, manifest_copy):
        self._edit(
            manifest_copy, lambda m: m.__setitem__("partitions", "oops")
        )
        with pytest.raises(ManifestError):
            PreparedDataset.load(manifest_copy)

    def test_hand_edited_value_breaks_self_digest(self, manifest_copy):
        self._edit(
            manifest_copy, lambda m: m.__setitem__("num_files", 9999)
        )
        with pytest.raises(ManifestError, match="digest mismatch"):
            PreparedDataset.load(manifest_copy)

    def test_non_object_manifest_rejected(self, manifest_copy):
        (manifest_copy / MANIFEST_NAME).write_text("[1, 2, 3]")
        with pytest.raises(ManifestError):
            PreparedDataset.load(manifest_copy)

    def test_version_1_manifest_still_loads(self, manifest_copy):
        # strip the v2 fields entirely: the pre-digest format
        path = manifest_copy / MANIFEST_NAME
        manifest = json.loads(path.read_text())
        manifest["version"] = 1
        del manifest["manifest_sha256"]
        del manifest["partition_digests"]
        path.write_text(json.dumps(manifest))
        prepared = PreparedDataset.load(manifest_copy)
        assert prepared.partition_digests == {}
        assert prepared.num_files == 15

    def test_manifest_error_is_both_fanstore_and_format_error(self):
        assert issubclass(ManifestError, FanStoreError)
        assert issubclass(ManifestError, FormatError)


# -- verify-on-read + self-repair ---------------------------------------


class TestVerifyOnRead:
    def test_corrupt_staged_copy_heals_from_shared_fs(self, single_store):
        fs = single_store
        victim = sorted(r.path for r in fs.daemon.metadata.records())[0]
        good = fs.client.read_file(victim)
        corrupt_backend(fs.daemon.backend, victim, seed=1)
        assert fs.client.read_file(victim) == good
        assert fs.daemon.stats.corruption_detected == 1
        assert fs.daemon.stats.corruption_repaired == 1
        assert fs.daemon.stats.degraded_reads == 1
        # the healed copy is promoted: the next read is clean and local
        assert fs.client.read_file(victim) == good
        assert fs.daemon.stats.corruption_detected == 1

    def test_cached_plaintext_is_quarantined_on_repair(self, single_store):
        fs = single_store
        victim = sorted(r.path for r in fs.daemon.metadata.records())[0]
        fd = fs.client.open(victim)  # pins the decompressed entry
        corrupt_backend(fs.daemon.backend, victim, seed=2)
        fs.daemon.repair(victim)
        assert fs.daemon.cache.stats.quarantined == 1
        fs.client.close(fd)

    def test_verify_reads_off_serves_bytes_unchecked(self, prepared_dataset):
        config = DaemonConfig(verify_reads=False)
        with FanStore(prepared_dataset, FanStoreOptions(config=config)) as fs:
            victim = sorted(r.path for r in fs.daemon.metadata.records())[0]
            bad = corrupt_backend(fs.daemon.backend, victim, seed=3)
            assert fs.daemon.fetch_compressed(victim) == bad
            assert fs.daemon.stats.corruption_detected == 0

    def test_unrepairable_raises_typed_eio_naming_path(
        self, prepared_dataset, tmp_path
    ):
        bad_root = tmp_path / "bad"
        shutil.copytree(prepared_dataset.root, bad_root)
        prepared = PreparedDataset.load(bad_root)
        victim = read_partition(
            prepared.partition_paths()[0], with_data=False
        )[0].path
        # corrupt the payload inside the partition file *before* load:
        # the staged copy and the shared-FS floor are both bad
        corrupt_record(prepared, victim, seed=7)
        with FanStore(prepared) as fs:
            with pytest.raises(DataIntegrityError) as exc_info:
                fs.client.read_file(victim)
        err = exc_info.value
        assert isinstance(err, OSError)
        assert err.errno == errno.EIO
        assert err.filename == victim
        assert victim in str(err)

    def test_output_files_get_digests(self, single_store):
        fs = single_store
        fs.client.write_file("out/log.txt", b"epoch 0 done\n")
        record = fs.daemon.metadata.get("out/log.txt")
        assert record.has_digest
        # and the write-path digest is enforced on the read path
        corrupt_backend(fs.daemon.backend, "out/log.txt", seed=4)
        with pytest.raises(DataIntegrityError):
            # runtime outputs have no shared-FS floor to repair from
            fs.client.read_file("out/log.txt")


# -- every registered compressor refuses corrupt payloads ---------------


def _store_roundtrip_must_not_lie(daemon, name, payload):
    """Stage payload under compressor ``name`` with a digest, corrupt
    the staged bytes two ways, and require the read path to raise."""
    from repro.fanstore.metadata import FileRecord

    compressor = daemon.registry.get(name)
    packed = compressor.compress(payload)
    for variant, mangle in (
        ("bitflip", lambda b: bytes([b[0] ^ 0x10]) + b[1:]),
        ("truncated", lambda b: b[:-1] or b"\x00"),
    ):
        path = f"{name}/{variant}"
        stat = FileStat(st_size=len(payload)).with_digest(blob_crc32(packed))
        daemon.metadata.insert(FileRecord(
            path=path,
            stat=stat,
            compressor_id=compressor.compressor_id,
            compressed_size=len(packed),
            home_rank=0,
            partition_id=0,
        ))
        daemon.backend.put(path, mangle(packed))
        with pytest.raises(DataIntegrityError):
            daemon.open_file(path)


def test_all_registered_compressors_raise_on_corrupt_bytes(registry):
    """Corrupt compressed bytes must raise — never decompress into
    wrong plaintext — for every one of the registered configurations.
    The digest layer guarantees this uniformly: the check happens
    before any codec sees the bytes."""
    from repro.fanstore.daemon import FanStoreDaemon

    payload = (b"integrity is codec-independent. " * 64)
    daemon = FanStoreDaemon(registry=registry)
    for name in registry.names():
        _store_roundtrip_must_not_lie(daemon, name, payload)
