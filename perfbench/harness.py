"""One benchmark run: generate a seeded dataset, set the store up, run
training epochs through the public API, check every byte, and measure.

The pipeline is the one a training job runs: ``generate_dataset`` (not
timed) -> ``prepare_dataset`` -> ``FanStore`` on every rank (together
``setup_s``) -> ``training.loader`` epochs. Ranks are threads from
``repro.comm.run_parallel``.

An untraced run reports the end-to-end metrics. A traced run sets up
once with the span wrappers installed (``prepare.s``, ``mount.s``,
``codec.encode_s``), then trains untraced and traced one after the
other, and reports the per-layer metrics of the traced part plus the
ratio of the two parts' throughput (``trace.overhead_x``). The traced
part is capped at ``TRACE_SECONDS`` to bound the span buffer; every
per-layer metric is per delivered sample, so its length does not
matter.

End-to-end timings are reported at a reference host speed. The host's
CPU speed drifts by a third within a minute, so after every epoch and
every set-up the benchmark times a fixed pure-Python kernel
(``calibrate``) and scales the times it measured just before by
``REFERENCE_S`` over the kernel's time. See README.md for the evidence.
"""

from __future__ import annotations

import gc
import hashlib
import resource
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from repro.comm import run_parallel
from repro.datasets.synthetic import generate_dataset
from repro.fanstore import (
    DaemonConfig,
    FanStore,
    FanStoreOptions,
    PreparedDataset,
    prepare_dataset,
)
from repro.training.loader import AsyncLoader, SyncLoader, list_training_files

from perfbench.tracing import (
    LAYERS,
    Patches,
    SpanRecorder,
    Window,
    layer_metrics,
)
from perfbench.workloads import Workload

#: threads ``prepare_dataset`` compresses with (the host has two cores)
PREPARE_THREADS = 2

#: longest traced training part of a traced run, in seconds
TRACE_SECONDS = 3.0

#: the reference kernel's CPU time on the reference host; end-to-end
#: timings are scaled to a host on which ``calibrate()`` returns this
REFERENCE_S = 0.7e-3

#: iterations of the reference kernel's loop (about 0.6 ms of CPU)
CALIBRATION_LOOPS = 10_000

#: ``peak_rss_mb`` is read after this many timed epochs, so it covers a
#: fixed amount of work however fast the epochs run
RSS_EPOCHS = 20

#: (name, unit) of every end-to-end metric, in report order
END_TO_END = (
    ("samples_per_s", "1/s"),
    ("read_mean_ms", "ms"),
    ("read_p90_ms", "ms"),
    ("write_mean_ms", "ms"),
    ("write_p90_ms", "ms"),
    ("setup_s", "s"),
    ("compression_ratio", "x"),
    ("peak_rss_mb", "MB"),
)

#: counters read from each rank's metrics registry around the traced
#: window (the program's own names -> the benchmark's)
REGISTRY_COUNTERS = {
    "daemon.local_opens": "daemon.local_opens",
    "daemon.remote_fetches": "daemon.remote_fetches",
    "daemon.retries": "daemon.retries",
    "daemon.failovers": "daemon.failovers",
    "daemon.deadline_aborts": "daemon.deadline_aborts",
    "daemon.shed_requests": "daemon.shed_requests",
    "cache.opens": "cache.opens",
    "cache.hits": "cache.hits",
    "cache.evictions": "cache.evictions",
    "cache.singleflight.followers": "cache.singleflight_followers",
    "durability.journal.fsyncs": "journal.fsyncs",
}


def digest(data: bytes) -> bytes:
    return hashlib.blake2b(data, digest_size=16).digest()


def calibrate() -> float:
    """CPU seconds the reference kernel takes on this thread now: best
    of three runs of a fixed integer loop, with the collector off.

    Thread CPU time, not wall time, so that other threads of the
    process taking the CPU (a program that spins, say) cannot slow the
    kernel and so hide their own cost; best of three drops a run hit
    by an interrupt."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(3):
            t0 = time.thread_time()
            total = 0
            for i in range(CALIBRATION_LOOPS):
                total += i * i
            best = min(best, time.thread_time() - t0)
        return best
    finally:
        if enabled:
            gc.enable()


def speed_scale() -> float:
    """Factor that turns times measured just now into reference-host
    times: above 1 while the host runs faster than the reference."""
    return REFERENCE_S / calibrate()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class SampleChecker:
    """Compares delivered bytes with the digests they must have; every
    comparison and every failed operation counts as one attempt."""

    def __init__(self, expected: dict[str, bytes]) -> None:
        self.expected = dict(expected)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def _note(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    def check(self, path: str, data: bytes) -> bool:
        self.attempted += 1
        want = self.expected.get(path)
        if want is not None and digest(data) == want:
            return True
        self._note(f"{path}: delivered bytes differ from the source")
        return False

    def check_batch(self, batch) -> None:
        for path, sample in zip(batch.paths, batch.samples):
            self.check(path, sample)

    def expect(self, path: str, data: bytes) -> None:
        """Register an output written by the run (checked on read-back)."""
        self.attempted += 1
        self.expected[path] = digest(data)

    def fail(self, what: str, exc: BaseException) -> None:
        self.attempted += 1
        self._note(f"{what}: {type(exc).__name__}: {exc}")


def raw_digests(raw: Path) -> dict[str, bytes]:
    """Store path -> digest of every generated file."""
    return {
        p.relative_to(raw).as_posix(): digest(p.read_bytes())
        for p in sorted(raw.rglob("*")) if p.is_file()
    }


class TimedReads:
    """What the loader sees as its client: times each ``read_file``."""

    def __init__(self, client) -> None:
        self._client = client
        self.ms: list[float] = []

    def read_file(self, path: str) -> bytes:
        t0 = time.perf_counter()
        data = self._client.read_file(path)
        self.ms.append((time.perf_counter() - t0) * 1e3)
        return data


@dataclass
class Epoch:
    """One rank's measurements of one epoch."""

    samples: int = 0
    #: time inside the epoch (excludes epoch-end writes)
    seconds: float = 0.0
    #: every ``read_file`` time
    read_ms: np.ndarray = field(default_factory=lambda: np.empty(0))
    #: every ``write_file`` time
    write_ms: list[float] = field(default_factory=list)
    #: ``speed_scale()`` at the epoch's end; multiplies its times
    scale: float = 1.0


@dataclass
class Phase:
    """One rank's share of one timed training phase."""

    start: float = 0.0
    end: float = 0.0
    epochs: list[Epoch] = field(default_factory=list)
    outputs: list[str] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)
    #: process peak RSS after ``RSS_EPOCHS`` epochs (or at the end of a
    #: shorter phase)
    rss_mb: float = 0.0

    @property
    def samples(self) -> int:
        return sum(e.samples for e in self.epochs)


def samples_per_s(epochs_by_rank: list[list[Epoch]]) -> float:
    """Samples delivered per second of epoch time at the reference host
    speed, summed over ranks."""
    return sum(
        sum(e.samples for e in epochs)
        / sum(e.seconds * e.scale for e in epochs)
        for epochs in epochs_by_rank
    )


def timings(phases: list[Phase]) -> dict[str, float]:
    """The end-to-end timings over every timed epoch of the run, at
    the reference host speed.

    The typical latency is a mean, not a p50: single operations are
    bimodal (on two ranks, local or a round trip to the peer; on a
    shared host, two CPU speeds), and a p50 falls in the gap between
    the modes and jumps with their shares. The mean moves smoothly with
    them; the p90 lies inside the slow mode."""
    epochs = [e for p in phases for e in p.epochs]
    reads = np.concatenate([e.read_ms * e.scale for e in epochs])
    writes = np.array([ms * e.scale for e in epochs for ms in e.write_ms])
    return {
        "samples_per_s": samples_per_s([p.epochs for p in phases]),
        "read_mean_ms": float(reads.mean()),
        "read_p90_ms": float(np.percentile(reads, 90)),
        "write_mean_ms": float(writes.mean()),
        "write_p90_ms": float(np.percentile(writes, 90)),
    }


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    #: name -> (value, unit)
    metrics: dict[str, tuple[float, str]]
    #: human-readable lines printed before the result
    notes: list[str] = field(default_factory=list)


class Bench:
    """One workload at one seed, run inside ``work`` (a scratch
    directory the caller owns)."""

    def __init__(self, spec: Workload, seed: int, work: Path) -> None:
        self.spec = spec
        self.seed = seed
        self.work = work
        self.raw = work / "raw"
        self.expected: dict[str, bytes] = {}

    # -- set-up ------------------------------------------------------------

    def generate(self) -> None:
        spec = self.spec
        generate_dataset(
            spec.dataset, self.raw, num_files=spec.num_files,
            avg_file_size=spec.file_bytes, seed=self.seed,
        )
        self.expected = raw_digests(self.raw)

    def prepare(self, name: str, prepare: Callable = prepare_dataset) -> PreparedDataset:
        return prepare(
            self.raw, self.work / name, num_partitions=self.spec.ranks,
            compressor=self.spec.codec, threads=PREPARE_THREADS,
        )

    def mount(self, prepared: PreparedDataset, comm, name: str) -> FanStore:
        spec = self.spec
        options = FanStoreOptions(
            comm=comm if spec.ranks > 1 else None,
            config=DaemonConfig(cache_bytes=spec.cache_bytes),
            local_dir=(
                self.work / name / f"rank{comm.rank}"
                if spec.backend == "disk" else None
            ),
        )
        return FanStore(prepared, options)

    def setup_once(self, rep: int) -> float:
        """prepare + mount on every rank, then tear down; seconds from
        the raw directory to every rank ready, at the reference host
        speed."""
        name = f"setup{rep}"
        t0 = time.perf_counter()
        prepared = self.prepare(name)

        def mount_ready(comm) -> float:
            fs = self.mount(prepared, comm, name + "-local")
            try:
                comm.barrier()
                return time.perf_counter()
            finally:
                fs.shutdown()

        ready = run_parallel(mount_ready, self.spec.ranks)
        seconds = (max(ready) - t0) * speed_scale()
        shutil.rmtree(self.work / name, ignore_errors=True)
        shutil.rmtree(self.work / (name + "-local"), ignore_errors=True)
        return seconds

    # -- training ----------------------------------------------------------

    def train(
        self,
        fs: FanStore,
        files: list[str],
        comm,
        checker: SampleChecker,
        *,
        seconds: float,
        label: str,
        recorder: SpanRecorder | None = None,
        write: bool = True,
    ) -> Phase:
        """Whole epochs until ``seconds`` have passed (at least one),
        writing outputs where the workload says. Every sample is
        checked.

        Ranks agree at every epoch end whether to go on, so they run the
        same epochs. Epoch-end writes happen one rank at a time between
        barriers, with no rank reading: a burst timed while the peer
        reads, or writes too, has a tail set by that contention rather
        than by the write path."""
        spec = self.spec
        rank = comm.rank
        loader_cls = AsyncLoader if spec.loader == "async" else SyncLoader
        loader_kwargs = {"depth": 2} if spec.loader == "async" else {}
        phase = Phase()
        rng = np.random.default_rng([self.seed, rank])
        next_batch: Callable = next
        check: Callable = checker.check_batch
        barrier: Callable = comm.barrier
        allgather: Callable = comm.allgather
        scale: Callable = speed_scale
        if recorder is not None:
            next_batch = recorder.wrap("loader.next", next)
            check = recorder.wrap("bench.check", check)
            barrier = recorder.wrap("bench.sync", barrier)
            allgather = recorder.wrap("bench.sync", allgather)
            scale = recorder.wrap("bench.calibrate", scale)

        def write_outputs(prefix: str, stats: Epoch) -> None:
            """One write point: ``outputs_per_write`` files, each
            ``write_file`` timed on its own."""
            payloads = [
                (f"{prefix}-{k}", rng.bytes(spec.output_bytes))
                for k in range(spec.outputs_per_write)
            ]
            for path, payload in payloads:
                t0 = time.perf_counter()
                try:
                    fs.client.write_file(path, payload)
                except Exception as exc:  # counted, and fails the run
                    checker.fail(f"write {path}", exc)
                    return
                stats.write_ms.append((time.perf_counter() - t0) * 1e3)
            for path, payload in payloads:
                checker.expect(path, payload)
                phase.outputs.append(path)

        phase.start = time.perf_counter()
        deadline = phase.start + seconds
        failed = False
        epoch = 0
        while True:
            stats = Epoch()
            phase.epochs.append(stats)
            reads = TimedReads(fs.client)
            loader = loader_cls(
                reads, files, batch_size=spec.batch_size, epochs=1,
                rank=rank, world_size=spec.ranks, seed=self.seed + epoch,
                **loader_kwargs,
            )
            batches = iter(loader)
            step = 0
            epoch_start = time.perf_counter()
            try:
                while True:
                    batch = next_batch(batches, None)
                    if batch is None:
                        break
                    check(batch)
                    stats.samples += len(batch)
                    if write and spec.write_at == "batch":
                        write_outputs(f"out/{label}/r{rank}/e{epoch}-b{step}", stats)
                    step += 1
            except Exception as exc:  # a failed read fails the run
                checker.fail(f"rank {rank} epoch {epoch} step {step}", exc)
                failed = True
            now = time.perf_counter()
            stats.seconds = now - epoch_start
            stats.read_ms = np.array(reads.ms)
            # one rank at a time, the others parked in the barrier:
            # epoch-end writes, then the host-speed calibration
            for turn in range(spec.ranks):
                barrier()
                if turn == rank:
                    if write and spec.write_at == "epoch":
                        write_outputs(f"out/{label}/r{rank}/e{epoch}", stats)
                    stats.scale = scale()
            barrier()
            epoch += 1
            stop = any(allgather(failed or now >= deadline))
            if epoch == RSS_EPOCHS or (stop and epoch < RSS_EPOCHS):
                phase.rss_mb = peak_rss_mb()
            if stop:
                break
        phase.end = time.perf_counter()
        return phase

    @staticmethod
    def read_back(fs: FanStore, phase: Phase, checker: SampleChecker) -> None:
        """Read every output this rank wrote and compare it."""
        for path in phase.outputs:
            try:
                data = fs.client.read_file(path)
            except Exception as exc:  # counted, and fails the run
                checker.fail(f"read back {path}", exc)
                continue
            checker.check(path, data)

    @staticmethod
    def counters(fs: FanStore) -> dict[str, float]:
        registry = fs.metrics
        return {
            ours: registry.get(theirs).value if theirs in registry else 0.0
            for theirs, ours in REGISTRY_COUNTERS.items()
        }

    # -- runs --------------------------------------------------------------

    def run_untraced(self, seconds: float) -> Result:
        spec = self.spec
        self.generate()
        setups = [self.setup_once(rep) for rep in range(spec.setup_reps - 1)]
        t0 = time.perf_counter()
        prepared = self.prepare("packed")
        checkers = [SampleChecker(self.expected) for _ in range(spec.ranks)]

        def rank_main(comm):
            rank = comm.rank
            checker = checkers[rank]
            fs = self.mount(prepared, comm, "local")
            try:
                comm.barrier()
                ready = time.perf_counter()
                files = list_training_files(fs.client)
                self.train(fs, files, comm, checker, seconds=0.0,
                           label="warmup", write=False)
                comm.barrier()
                phase = self.train(fs, files, comm, checker,
                                   seconds=seconds, label="timed")
                comm.barrier()
                self.read_back(fs, phase, checker)
                return ready, phase
            finally:
                fs.shutdown()

        results = run_parallel(rank_main, spec.ranks, timeout=seconds + 120)
        setups.append((max(ready for ready, _ in results) - t0) * speed_scale())
        phases = [phase for _, phase in results]
        epochs = [e for p in phases for e in p.epochs]
        scales = [e.scale for e in epochs]
        unscaled = [
            [replace(e, scale=1.0) for e in p.epochs] for p in phases
        ]
        values = timings(phases)
        values.update({
            "setup_s": statistics.median(setups),
            "compression_ratio": prepared.ratio,
            "peak_rss_mb": max(p.rss_mb for p in phases),
        })
        result = self._result(checkers, {
            name: (values[name], unit) for name, unit in END_TO_END
        })
        result.notes += [
            f"timed samples {sum(e.samples for e in epochs)} in "
            f"{len(phases[0].epochs)} epochs, reads "
            f"{sum(len(e.read_ms) for e in epochs)}, writes "
            f"{sum(len(e.write_ms) for e in epochs)}",
            "timings are at the reference host speed; host speed over "
            "the epochs (median, min, max): "
            + ", ".join(f"{f(scales):.3f}" for f in (statistics.median, min, max))
            + f"; wall-clock samples_per_s {samples_per_s(unscaled):.6g}",
            "setup_s reps: " + ", ".join(f"{s:.4f}" for s in setups),
        ]
        return result

    def run_traced(self, seconds: float, dump: Path | None) -> Result:
        spec = self.spec
        self.generate()
        recorder = SpanRecorder()
        patches = Patches(recorder)
        checkers = [SampleChecker(self.expected) for _ in range(spec.ranks)]
        prepare = recorder.wrap("setup.prepare", prepare_dataset)
        patches.install()
        try:
            prepared = self.prepare("packed", prepare)
        finally:
            patches.uninstall()
        traced_s = min(seconds / 2, TRACE_SECONDS)

        def rank_main(comm):
            rank = comm.rank
            checker = checkers[rank]
            if rank == 0:
                patches.install()
            comm.barrier()
            fs = recorder.wrap("setup.mount", self.mount)(prepared, comm, "local")
            try:
                comm.barrier()
                if rank == 0:
                    patches.uninstall()
                files = list_training_files(fs.client)
                self.train(fs, files, comm, checker, seconds=0.0,
                           label="warmup", write=False)
                comm.barrier()
                plain = self.train(fs, files, comm, checker,
                                   seconds=seconds - traced_s,
                                   label="untraced")
                comm.barrier()
                if rank == 0:
                    patches.install()
                before = self.counters(fs)
                comm.barrier()
                traced = self.train(fs, files, comm, checker,
                                    seconds=traced_s,
                                    label="traced", recorder=recorder)
                comm.barrier()
                after = self.counters(fs)
                if rank == 0:
                    patches.uninstall()
                comm.barrier()
                traced.counters = {k: after[k] - before[k] for k in after}
                window = Window(threading.get_ident(), traced.start, traced.end)
                self.read_back(fs, plain, checker)
                self.read_back(fs, traced, checker)
                return plain, traced, window
            finally:
                fs.shutdown()

        results = run_parallel(rank_main, spec.ranks, timeout=seconds + 120)
        plain = [r[0] for r in results]
        traced = [r[1] for r in results]
        windows = [r[2] for r in results]
        spans = recorder.spans()
        counters = {
            k: sum(p.counters[k] for p in traced) for k in traced[0].counters
        }
        samples = sum(p.samples for p in traced)
        values = layer_metrics(spans, windows, samples, counters)

        values["trace.overhead_x"] = (
            samples_per_s([p.epochs for p in traced])
            / samples_per_s([p.epochs for p in plain])
        )
        setup_spans = [s for s in spans if s.end <= min(w.start for w in windows)]
        values["prepare.s"] = sum(
            s.duration for s in setup_spans if s.name == "setup.prepare")
        values["prepare.stored_bytes"] = float(prepared.compressed_bytes)
        values["mount.s"] = max(
            s.duration for s in setup_spans if s.name == "setup.mount")
        values["codec.encode_s"] = sum(
            s.duration for s in setup_spans if s.name == "codec.encode")
        if dump is not None:
            recorder.dump(dump)
        result = self._result(checkers, {
            name: (values[name], unit) for name, unit in PER_LAYER
        })
        result.notes.append(
            f"traced samples {samples}, spans {len(spans)}"
            + (f", written to {dump}" if dump is not None else "")
        )
        return result

    @staticmethod
    def _result(checkers: list[SampleChecker], metrics) -> Result:
        attempted = sum(c.attempted for c in checkers)
        failed = sum(c.failed for c in checkers)
        notes = [e for c in checkers for e in c.errors]
        notes.append(
            f"error_rate {failed / max(attempted, 1):.6f} "
            f"({failed} of {attempted} operations)"
        )
        return Result(failed == 0, attempted, failed, metrics, notes)


#: (name, unit) of every per-layer metric, in report order. Times,
#: counts and bytes per delivered sample of the traced window unless the
#: unit says otherwise.
PER_LAYER = (
    ("loader.wait_s", "s/sample"),
    ("client.read_self_s", "s/sample"),
    ("client.write_self_s", "s/sample"),
    ("client.read_p99_ms", "ms"),
    ("metadata.lookup_calls", "1/sample"),
    ("metadata.lookup_s", "s/sample"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions", "1/sample"),
    ("cache.singleflight_followers", "1/sample"),
    ("daemon.open_self_s", "s/sample"),
    ("daemon.serve_self_s", "s/sample"),
    ("daemon.fetch_s", "s/sample"),
    ("daemon.local_opens", "1/sample"),
    ("daemon.remote_fetches", "1/sample"),
    ("daemon.write_meta_forwards", "1/sample"),
    ("daemon.retries", "1/sample"),
    ("daemon.failovers", "1/sample"),
    ("daemon.deadline_aborts", "1/sample"),
    ("daemon.shed_requests", "1/sample"),
    ("pipeline.singleflight_s", "s/sample"),
    ("wire.codec_s", "s/sample"),
    ("comm.msgs", "1/sample"),
    ("comm.bytes", "B/sample"),
    ("comm.recv_wait_s", "s/sample"),
    ("backend.get_s", "s/sample"),
    ("backend.get_bytes", "B/sample"),
    ("verify.s", "s/sample"),
    ("verify.bytes", "B/sample"),
    ("codec.decode_s", "s/sample"),
    ("codec.decode_mb_s", "MB/s"),
    ("codec.encode_s", "s"),
    ("journal.intents", "1/sample"),
    ("journal.fsyncs", "1/sample"),
    ("journal.commit_s", "s/sample"),
    ("prepare.s", "s"),
    ("prepare.stored_bytes", "B"),
    ("mount.s", "s"),
    ("trace.unattributed_frac", "ratio"),
    ("trace.overhead_x", "x"),
) + tuple((f"self_share.{layer}", "ratio") for layer in LAYERS)
