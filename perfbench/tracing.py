"""Span tracing for the traced benchmark run, from outside the program.

A traced run replaces the entry points of each layer with wrappers that
record one span per call: name, start, end, parent span, thread, and a
per-sample request id (a new id at every ``client.read_file`` /
``client.write_file``; every span below it inherits the id). Spans are
kept in memory and written out once, at the end of the run.

A function is patched at the name its caller looks up: class methods on
the class, and module functions in the namespace of the module that
calls them (the daemon imports ``blob_crc32`` and the wire decoders by
name, so those are patched in ``repro.fanstore.daemon``).

Parents are taken from the calling thread's span stack, so a span's
children always ran on its thread and its self time is its duration
minus its children's. Work the daemon does for a peer rank is recorded
on the serving thread as a root of its own; it is not linked to the
requesting thread's span.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, NamedTuple

import numpy as np

#: layers whose self time is broken out as ``self_share.<layer>``; a
#: span's layer is its name up to the first dot
LAYERS = (
    "loader", "client", "metadata", "cache", "daemon", "pipeline", "wire",
    "comm", "backend", "verify", "codec", "journal", "bench",
)


class Span(NamedTuple):
    span_id: int
    parent_id: int | None
    request_id: int | None
    name: str
    start: float
    end: float
    thread: int
    nbytes: int
    tag: str | None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class SpanRecorder:
    """In-memory span buffer plus the per-thread stack that links a span
    to its parent."""

    def __init__(self) -> None:
        #: one plain tuple per finished span, in :class:`Span` field
        #: order (a tuple is the cheapest record to build on the hot path)
        self.rows: list = []
        self._local = threading.local()
        self._span_ids = itertools.count(1)
        self._request_ids = itertools.count(1)

    def wrap(
        self,
        name: str,
        fn: Callable,
        *,
        request: bool = False,
        size: Callable[[tuple, Any], int] | None = None,
        tag: Callable[[tuple], str] | None = None,
    ) -> Callable:
        """``fn`` recording one span per call. ``request`` starts a new
        request id; ``size(args, result)`` (result is None when the call
        raised) and ``tag(args)`` fill the span's byte count and tag."""
        rows = self.rows
        local = self._local
        span_ids = self._span_ids
        request_ids = self._request_ids
        clock = time.perf_counter
        get_ident = threading.get_ident

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent_id, req = stack[-1] if stack else (None, None)
            if request:
                req = next(request_ids)
            span_id = next(span_ids)
            stack.append((span_id, req))
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                rows.append((
                    span_id, parent_id, req, name, start, end, get_ident(),
                    0 if size is None else size(args, result),
                    None if tag is None else tag(args),
                ))

        return traced

    def spans(self) -> list[Span]:
        """The buffer as :class:`Span` records, converted in place so the
        buffer is never held twice."""
        rows = self.rows
        for i, row in enumerate(rows):
            if type(row) is tuple:
                rows[i] = Span._make(row)
        return rows

    def dump(self, path: Path) -> None:
        """Write the spans as JSON lines: a header naming the fields,
        then one array per span (start/end in ``time.perf_counter``
        seconds)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": list(Span._fields)}) + "\n")
            for row in self.rows:
                fh.write(json.dumps(row) + "\n")


def _result_len(_args: tuple, result: Any) -> int:
    return 0 if result is None else len(result)


def payload_bytes(obj: Any, depth: int = 0) -> int:
    """Bytes carried by a comm payload: the lengths of its bytes-like
    and str leaves (records and other objects count zero)."""
    if isinstance(obj, (bytes, bytearray, memoryview, str)):
        return len(obj)
    if depth < 6 and isinstance(obj, (tuple, list)):
        return sum(payload_bytes(item, depth + 1) for item in obj)
    return 0


def patch_points() -> list[tuple[Any, str, str, dict]]:
    """(owner, attribute, span name, wrap options) for every layer entry
    point the traced run wraps."""
    import repro.fanstore.daemon as daemon_mod
    import repro.fanstore.wire as wire_mod
    from repro.comm.communicator import Communicator
    from repro.compressors.base import Compressor
    from repro.fanstore.backend import DiskBackend, PartitionBackend, RamBackend
    from repro.fanstore.cache import DecompressedCache
    from repro.fanstore.client import FanStoreClient
    from repro.fanstore.daemon import FanStoreDaemon
    from repro.fanstore.journal import Journal
    from repro.fanstore.metadata import MetadataTable
    from repro.fanstore.pipeline import SingleFlight

    points = [
        (FanStoreClient, "read_file", "client.read_file", {"request": True}),
        (FanStoreClient, "write_file", "client.write_file", {
            "request": True, "size": lambda a, _r: len(a[2])}),
        (FanStoreDaemon, "open_file", "daemon.open_file", {}),
        (FanStoreDaemon, "close_file", "daemon.close_file", {}),
        (FanStoreDaemon, "_miss_bytes", "daemon.miss", {}),
        (FanStoreDaemon, "fetch_compressed", "daemon.fetch_compressed", {}),
        (FanStoreDaemon, "_fetch_ladder", "daemon.fetch_ladder", {}),
        (FanStoreDaemon, "_batched_request", "daemon.batched_request", {
            "tag": lambda a: a[1]}),
        (FanStoreDaemon, "_request", "daemon.request", {
            "tag": lambda a: a[1]}),
        (FanStoreDaemon, "_serve_one", "daemon.serve", {
            "tag": lambda a: a[1][0]}),
        (FanStoreDaemon, "_serve_batch", "daemon.serve_batch", {}),
        (FanStoreDaemon, "store_output", "daemon.store_output", {}),
        (MetadataTable, "get", "metadata.get", {}),
        (MetadataTable, "insert", "metadata.insert", {}),
        (DecompressedCache, "get_or_compute", "cache.get_or_compute", {}),
        (DecompressedCache, "open", "cache.open", {}),
        (DecompressedCache, "insert", "cache.insert", {}),
        (DecompressedCache, "close", "cache.close", {}),
        (SingleFlight, "run", "pipeline.singleflight", {}),
        (wire_mod.Request, "encode", "wire.encode_request", {}),
        (wire_mod.Reply, "encode", "wire.encode_reply", {}),
        (wire_mod, "decode_reply", "wire.decode_reply", {}),
        (daemon_mod, "decode_request", "wire.decode_request", {}),
        (daemon_mod, "encode_batch_reply", "wire.encode_batch_reply", {}),
        (daemon_mod, "decode_batch_reply", "wire.decode_batch_reply", {}),
        (Communicator, "send", "comm.send", {
            "size": lambda a, _r: payload_bytes(a[1])}),
        (Communicator, "recv", "comm.recv", {}),
        (daemon_mod, "blob_crc32", "verify.crc32", {
            "size": lambda a, _r: len(a[0])}),
        (Compressor, "decompress", "codec.decode", {"size": _result_len}),
        (Compressor, "compress", "codec.encode", {
            "size": lambda a, _r: len(a[1])}),
        (Journal, "begin", "journal.begin", {}),
        (Journal, "commit", "journal.commit", {}),
    ]
    for backend in (RamBackend, DiskBackend, PartitionBackend):
        points.append((backend, "get", "backend.get", {"size": _result_len}))
        points.append((backend, "put", "backend.put", {
            "size": lambda a, _r: len(a[2])}))
    return points


class Patches:
    """Installs and removes the span wrappers. A patch point the program
    no longer has raises, so a refactor that moves an entry point stops
    the traced run instead of folding that time into its caller's self
    time."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._saved: list[tuple[Any, str, Any]] = []
        self._points = patch_points()
        missing = [
            f"{owner.__name__}.{attr}"
            for owner, attr, _name, _options in self._points
            if attr not in vars(owner)
        ]
        if missing:
            raise LookupError(f"trace patch points not found: {missing}")

    def install(self) -> None:
        if self._saved:
            return
        for owner, attr, name, options in self._points:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.recorder.wrap(name, original, **options))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Span id -> self time: duration minus the children's durations
    (children ran on the same thread, inside the parent, one at a
    time)."""
    spans = list(spans)
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent_id is not None:
            child_time[s.parent_id] += s.duration
    return {
        s.span_id: max(0.0, s.duration - child_time.get(s.span_id, 0.0))
        for s in spans
    }


@dataclass
class Window:
    """One rank's traced measurement window."""

    thread: int
    start: float
    end: float


def layer_metrics(
    spans: list[Span],
    windows: list[Window],
    samples: int,
    counters: dict[str, float],
) -> dict[str, float]:
    """Per-layer metrics of one traced window. Times, counts and bytes
    are divided by ``samples`` (samples delivered in the window), so a
    faster layer reads lower however many samples fit in the window.
    ``counters`` holds the program's own counter deltas over the same
    window (daemon, cache and journal stats summed over ranks)."""
    lo = min(w.start for w in windows)
    hi = max(w.end for w in windows)
    inside = [s for s in spans if lo <= s.start <= hi]
    selfs = self_times(inside)
    n = max(samples, 1)

    total: dict[str, float] = defaultdict(float)
    self_by_name: dict[str, float] = defaultdict(float)
    count: dict[str, int] = defaultdict(int)
    nbytes: dict[str, int] = defaultdict(int)
    self_by_layer: dict[str, float] = defaultdict(float)
    for s in inside:
        total[s.name] += s.duration
        self_by_name[s.name] += selfs[s.span_id]
        count[s.name] += 1
        nbytes[s.name] += s.nbytes
        self_by_layer[s.layer] += selfs[s.span_id]

    read_requests = {
        s.request_id for s in inside if s.name == "client.read_file"
    }
    open_self = sum(
        selfs[s.span_id] for s in inside
        if s.layer == "daemon" and s.request_id in read_requests
    )
    reads_ms = [
        s.duration * 1e3 for s in inside if s.name == "client.read_file"
    ]
    write_meta = sum(
        1 for s in inside
        if s.name == "daemon.request" and s.tag == "write_meta"
    )
    decode_s = total["codec.decode"]

    # reconciliation: the share of each consumer thread's window that no
    # root span on that thread covers
    covered = 0.0
    wall = 0.0
    for w in windows:
        wall += w.end - w.start
        covered += sum(
            min(s.end, w.end) - max(s.start, w.start)
            for s in inside
            if s.thread == w.thread and s.parent_id is None
            and s.end > w.start and s.start < w.end
        )
    all_self = sum(self_by_layer.values()) or 1.0

    opens = counters.get("cache.opens", 0.0)
    metrics = {
        "loader.wait_s": total["loader.next"] / n,
        "client.read_self_s": self_by_name["client.read_file"] / n,
        "client.write_self_s": self_by_name["client.write_file"] / n,
        "client.read_p99_ms": (
            float(np.percentile(reads_ms, 99)) if reads_ms else 0.0
        ),
        "metadata.lookup_calls": count["metadata.get"] / n,
        "metadata.lookup_s": total["metadata.get"] / n,
        "cache.hit_ratio": counters.get("cache.hits", 0.0) / opens if opens else 0.0,
        "cache.evictions": counters.get("cache.evictions", 0.0) / n,
        "cache.singleflight_followers": (
            counters.get("cache.singleflight_followers", 0.0) / n
        ),
        "daemon.open_self_s": open_self / n,
        "daemon.serve_self_s": (
            self_by_name["daemon.serve"] + self_by_name["daemon.serve_batch"]
        ) / n,
        "daemon.fetch_s": total["daemon.fetch_compressed"] / n,
        "daemon.write_meta_forwards": write_meta / n,
        "pipeline.singleflight_s": self_by_name["pipeline.singleflight"] / n,
        "wire.codec_s": self_by_layer["wire"] / n,
        "comm.msgs": count["comm.send"] / n,
        "comm.bytes": nbytes["comm.send"] / n,
        "comm.recv_wait_s": total["comm.recv"] / n,
        "backend.get_s": total["backend.get"] / n,
        "backend.get_bytes": nbytes["backend.get"] / n,
        "verify.s": total["verify.crc32"] / n,
        "verify.bytes": nbytes["verify.crc32"] / n,
        "codec.decode_s": decode_s / n,
        "codec.decode_mb_s": (
            nbytes["codec.decode"] / decode_s / 1e6 if decode_s else 0.0
        ),
        "journal.intents": count["journal.begin"] / n,
        "journal.commit_s": (
            total["journal.begin"] + total["journal.commit"]
        ) / n,
        "trace.unattributed_frac": 1.0 - covered / wall if wall else 0.0,
    }
    for name in ("local_opens", "remote_fetches", "retries", "failovers",
                 "deadline_aborts", "shed_requests"):
        metrics[f"daemon.{name}"] = counters.get(f"daemon.{name}", 0.0) / n
    metrics["journal.fsyncs"] = counters.get("journal.fsyncs", 0.0) / n
    for layer in LAYERS:
        metrics[f"self_share.{layer}"] = self_by_layer[layer] / all_self
    return metrics
