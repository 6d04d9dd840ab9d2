"""The benchmark's three workloads and their provenance record.

Each workload is chosen to load a different layer of the store, so that
a change to one layer moves one workload and leaves the others still
(see README.md for the metric -> layer -> workload map). Sizes are
picked so a run of a few seconds delivers thousands of samples on a
two-core host; the seed only changes file contents and shuffle order,
never sizes.

Run ``python3 perfbench/workloads.py`` to print the provenance record
that ``provenance.json`` holds.
"""

from __future__ import annotations

import json
import os
import platform
from dataclasses import asdict, dataclass


#: ``DaemonConfig``'s own cache budget, for workloads whose dataset fits
DEFAULT_CACHE_BYTES = 1 << 30


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a seeded synthetic dataset, how it is
    packed and mounted, and how the training loop consumes it."""

    name: str
    #: the one-sentence reason this workload exists
    why: str
    #: ``repro.datasets.synthetic`` generator key (``em``, ``tokamak``)
    dataset: str
    num_files: int
    #: average raw file size; the generator jitters each file +-25 %
    file_bytes: int
    #: compressor name given to ``prepare_dataset``
    codec: str
    #: ranks (threads from ``repro.comm.run_parallel``), one partition each
    ranks: int
    #: ``ram`` (RamBackend) or ``disk`` (DiskBackend, journal on)
    backend: str
    #: ``sync`` (SyncLoader) or ``async`` (AsyncLoader, depth 2)
    loader: str
    #: global batch size; each rank reads ``batch_size // ranks`` per step
    batch_size: int
    #: ``DaemonConfig.cache_bytes`` (the decompressed-cache budget)
    cache_bytes: int
    #: when the consumer writes outputs: ``batch`` (after every batch,
    #: inside the epoch, beside the loader's reads) or ``epoch`` (at each
    #: epoch end, outside the time ``samples_per_s`` counts, so write
    #: latency is measured on every workload without touching the reads)
    write_at: str
    #: output files written at each of those points, per rank
    outputs_per_write: int
    output_bytes: int
    #: set-up repetitions per run; ``setup_s`` is their median
    setup_reps: int

    @property
    def raw_bytes(self) -> int:
        return self.num_files * self.file_bytes


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="epoch-lz4",
            why=(
                "decode-bound: one rank, RAM backend, EM tif files packed "
                "with fastlz-3 (the lz4 stand-in), decoded data 4x the "
                "cache; no comm, no disk, no writes inside epochs"
            ),
            dataset="em",
            num_files=64,
            file_bytes=16 * 1024,
            codec="fastlz-3",
            ranks=1,
            backend="ram",
            loader="sync",
            batch_size=8,
            cache_bytes=256 * 1024,
            write_at="epoch",
            outputs_per_write=32,
            output_bytes=1024,
            setup_reps=5,
        ),
        Workload(
            name="epoch-small-remote",
            why=(
                "per-operation-bound: two ranks, RAM backend, ~1.2 KB "
                "Tokamak npz files with zlib-1, half of all reads are "
                "remote fetches; comm and daemon costs outweigh decode"
            ),
            dataset="tokamak",
            num_files=1024,
            file_bytes=1200,
            codec="zlib-1",
            ranks=2,
            backend="ram",
            loader="sync",
            batch_size=16,
            cache_bytes=DEFAULT_CACHE_BYTES,
            write_at="epoch",
            outputs_per_write=32,
            output_bytes=1024,
            setup_reps=15,
        ),
        Workload(
            name="train-rw-disk",
            why=(
                "read+write: two ranks, DiskBackend with the journal, EM "
                "zlib-1, AsyncLoader depth 2, one journalled output write "
                "per batch beside prefetched disk reads"
            ),
            dataset="em",
            num_files=64,
            file_bytes=48 * 1024,
            codec="zlib-1",
            ranks=2,
            backend="disk",
            loader="async",
            batch_size=8,
            cache_bytes=DEFAULT_CACHE_BYTES,
            write_at="batch",
            outputs_per_write=1,
            # above the journal's 4 KiB payload-embedding limit: embedded
            # payloads stay in the journal's live map, whose checkpoints
            # then grow with every write and slow a long run down
            output_bytes=8192,
            setup_reps=15,
        ),
    )
}


def provenance() -> dict:
    """The workload provenance record: sizes, codec, ranks, cache ratio,
    seed handling and reason per workload, plus the host facts the
    numbers depend on."""
    from repro.analysis.lockdep import current_witness

    workloads = {}
    for w in WORKLOADS.values():
        record = asdict(w)
        record["raw_bytes"] = w.raw_bytes
        record["cache_to_dataset"] = w.cache_bytes / w.raw_bytes
        record["seed"] = (
            "--seed n generates file i from seed n+i, shuffles epoch e "
            "with seed n+e and fills outputs from (n, rank)"
        )
        workloads[w.name] = record
    return {
        "nproc": os.cpu_count(),
        "cpu_pinning": "run.py pins the whole process to one CPU",
        "python": platform.python_version(),
        "lockdep_witness": (
            "on" if current_witness() is not None
            else "off (installed only by the pytest plugin)"
        ),
        "workloads": workloads,
    }


if __name__ == "__main__":
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    print(json.dumps(provenance(), indent=2, sort_keys=True))
