"""The FanStore daemon (§V-A, §V-D).

One daemon runs per node (here: per rank of the in-process world). It

1. loads its assigned partitions from the shared file system into the
   local backend, plus any *extra* partitions capacity allows (copied
   from the ring neighbor, not re-read from the shared FS — §V-D);
2. exchanges metadata with every peer through one ``allgather`` so all
   subsequent metadata traffic is node-local (§IV-C1);
3. serves ``fetch`` requests from peers for compressed bytes it hosts
   (MPI send/recv in the paper; the communicator here);
4. decompresses on ``open()`` into the reference-counted cache and
   answers ``read()`` from it (Figures 2–4);
5. accepts the write path: an output file closed by the client is
   dumped to the backend and its metadata forwarded to the rank that
   owns the path's hash slot (§V-D site 4).

Message protocol (all on ``TAG_DAEMON``; replies on caller-chosen tags):

=========== =========================================  ======================
kind        payload                                    reply
=========== =========================================  ======================
fetch       Request envelope (subject = path)          OK(compressed) | MISS
stat        Request envelope (subject = path)          OK(FileRecord) | MISS
write_meta  Request envelope (subject = FileRecord)    OK(None) | FENCED
batch       Request envelope (batch = item triples)    (BATCH, item replies)
stop        —                                          —
=========== =========================================  ======================

Every request body is a :class:`repro.fanstore.wire.Request` envelope —
one typed record carrying ``subject``, ``reply_tag``, ``trace_ctx``,
``deadline``, ``epoch``, and ``batch`` by name, encoded as a versioned
self-identifying tuple (see :mod:`repro.fanstore.wire` for the wire
layout and forward-compatibility rules); any other body is counted in
``malformed_requests`` and dropped. Every reply is built with
``Reply(...).encode()`` and read back with
:func:`~repro.fanstore.wire.decode_reply`; a reply that does not decode
counts as a failed attempt, like a timeout. A traced requester's
context is adopted so one ``client.read`` is reconstructable across
every rank it touched; work whose absolute deadline already expired is
dropped instead of answered into the void; queue overflow is shed with
an ``OVERLOAD`` reply carrying a retry-after so clients back off
instead of retry-storming; and a mutating request (``write_meta``)
whose fencing token (membership view epoch) is older than the server's
is answered ``FENCED`` with the server's epoch rather than applied, so
a rank healing out of a minority partition cannot clobber majority
state.

A ``batch`` envelope is a client-side flush of small same-destination
requests: its ``batch`` field holds ``(kind, subject, deadline)``
triples, served in order with per-item deadline checks and per-item
error isolation, answered as one ``(BATCH, (item replies...))`` on the
envelope's reply tag.
"""

from __future__ import annotations

import itertools
import logging
import random
import threading
import time
import zlib
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.comm.communicator import ANY_SOURCE, Communicator
from repro.comm.deadline import Deadline, wire_deadline
from repro.compressors.registry import CompressorRegistry, default_registry
from repro.errors import (
    CapacityError,
    CommClosedError,
    CommError,
    DataIntegrityError,
    DeadlineExpiredError,
    FanStoreError,
    FileNotFoundInStoreError,
    RankDeadError,
    RetryExhaustedError,
    ServerOverloadedError,
    StaleEpochError,
    WireFormatError,
)
from repro.fanstore.backend import DiskBackend, RamBackend
from repro.fanstore.cache import DecompressedCache
from repro.fanstore.crash import DiskFaultInjector, crash_point
from repro.fanstore.health import AdmissionQueue, BreakerState, HealthTracker
from repro.fanstore.journal import (
    Journal,
    JournalConfig,
    JournalStats,
    fsync_dir,
    live_entry,
    record_from_wire,
    scan_journal,
)
from repro.fanstore.layout import blob_crc32, read_partition
from repro.fanstore.membership import (
    ClusterView,
    FailureDetector,
    RankState,
    ring_successor,
)
from repro.fanstore.metadata import (
    FileRecord,
    MetadataTable,
    RereplicationStep,
    normalize,
)
from repro.fanstore.pipeline import PipelineConfig, SingleFlight
from repro.fanstore.prepare import PreparedDataset
from repro.fanstore.wire import (
    Reply,
    Request,
    decode_batch_reply,
    decode_reply,
    decode_request,
    encode_batch_reply,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import NULL_SPAN, Tracer

TAG_DAEMON = 0x0FA0
_REPLY_TAG_BASE = 0x1000

#: attempts against each replica rank once the home rank is given up
#: on (replicas are a bonus tier; the shared FS is the floor).
_FAILOVER_ATTEMPTS = 1

#: service-thread join budget at :meth:`FanStoreDaemon.stop` —
#: deliberately *not* ``request_timeout`` (a 30 s request budget must
#: not turn shutdown into a 30 s hang). A thread that misses it is
#: logged and leaked (it is a daemon thread; it dies with the process).
_SHUTDOWN_TIMEOUT = 5.0

#: hedged reads fire once the home rank has been silent for this
#: quantile of its recent reply latencies (``hedge_after_s`` until
#: ``_HEDGE_MIN_SAMPLES`` exist: a p95 of fewer than 20 samples is only
#: the window maximum, and a handful of fast replies would pull the
#: hedge delay down to a few milliseconds, so ordinary scheduling jitter
#: on a healthy home would fire hedges).
_HEDGE_QUANTILE = 0.95
_HEDGE_MIN_SAMPLES = 20

#: how long one shed, or one backlog at/above half of
#: ``max_queue_depth``, keeps the daemon in *brownout* (re-verification
#: of already-digest-checked payloads skipped to shed CPU).
_BROWNOUT_HOLD_S = 0.5

#: load-time collectives (metadata allgather) are not on the request
#: hot path; they get a generous fixed budget rather than the per-
#: request deadline machinery.
_LOAD_COLLECTIVE_TIMEOUT = 60.0

_LOG = logging.getLogger(__name__)


@dataclass
class DaemonStats:
    """The daemon's counters: the live storage behind its registry.

    :meth:`bind` registers every field in the daemon's
    :class:`~repro.obs.metrics.MetricsRegistry` under ``daemon.<field>``
    (``replication.<field>`` for the replication-engine counters). The
    registry reads these attributes directly, so a hot-path increment
    (``stats.retries += 1``) stays a bare int add and is visible through
    both ``daemon.stats.<field>`` and ``daemon.metrics``.
    """

    local_opens: int = 0
    remote_fetches: int = 0
    remote_bytes: int = 0
    decompressions: int = 0
    decompressed_bytes: int = 0
    served_requests: int = 0
    writes: int = 0
    write_bytes: int = 0
    malformed_requests: int = 0
    retries: int = 0  # re-sent request/reply attempts (lost or late replies)
    failovers: int = 0  # fetches that had to leave the home rank
    degraded_reads: int = 0  # payloads re-read from the shared FS
    corruption_detected: int = 0  # payloads that failed digest verification
    corruption_repaired: int = 0  # of those, healed via the failover ladder
    records_scrubbed: int = 0  # records verified by the background scrubber
    dead_route_skips: int = 0  # fetches short-circuited past a known-dead home
    rereplicated_records: int = 0  # restored copies staged on this rank
    rereplication_failed: int = 0  # lost records no source could restore
    mean_time_to_repair: float = 0.0  # conviction → repair committed, seconds
    hedged_reads: int = 0  # fetches where the hedge actually fired
    hedge_wins: int = 0  # of those, the hedge replica answered first
    hedge_losses: int = 0  # of those, the home rank still answered first
    breaker_opens: int = 0  # circuit-breaker transitions into OPEN
    breaker_probes: int = 0  # half-open requests let through as probes
    breaker_skips: int = 0  # fetches routed around an open-breaker home
    shed_requests: int = 0  # requests dropped by admission control
    deadline_expired_drops: int = 0  # served-side: work abandoned pre-serve
    deadline_aborts: int = 0  # client-side: exchanges abandoned at deadline
    overload_backoffs: int = 0  # overload replies received (client backed off)
    brownout_skipped_verifies: int = 0  # re-verifications skipped under load
    fenced_rejects: int = 0  # mutations refused for carrying a stale epoch
    stale_epoch_aborts: int = 0  # client-side: requests fenced off by a server
    rereplications_frozen: int = 0  # convictions deferred for lack of quorum
    reconciled_records: int = 0  # placements digest-checked by heal anti-entropy
    duplicate_replicas_dropped: int = 0  # split-era copies GC'd on heal

    #: replication-engine counters live under ``replication.<field>``
    #: in the registry (the ISSUE-specified namespace for partition-era
    #: metrics), while everything else keeps the legacy ``daemon.``
    #: prefix.
    _REPLICATION_FIELDS = (
        "fenced_rejects",
        "rereplications_frozen",
        "reconciled_records",
        "duplicate_replicas_dropped",
    )

    def bind(self, metrics: MetricsRegistry) -> None:
        """Register every field in ``metrics`` as ``daemon.<field>``
        (``replication.<field>`` for the replication-engine counters),
        backed by this object's attributes (zero hot-path overhead:
        ``stats.retries += 1`` stays a bare int add)."""
        for name in self.__dataclass_fields__:
            prefix = (
                "replication" if name in self._REPLICATION_FIELDS
                else "daemon"
            )
            if name == "mean_time_to_repair":
                metrics.bind_gauge(f"{prefix}.{name}", self, name)
            else:
                metrics.bind_counter(f"{prefix}.{name}", self, name)


@dataclass(frozen=True)
class DaemonConfig:
    """Tunables of one daemon instance."""

    #: decompressed-cache budget; entries are released at refcount
    #: zero, the paper's policy (§IV-C3)
    cache_bytes: int = 1 << 30
    capacity_bytes: int | None = None  # burst-buffer budget; None = unbounded
    extra_partition_budget: int = 0  # additional partitions to replicate
    request_timeout: float = 30.0
    #: retry budget for one request/reply exchange: ``max_retries``
    #: re-sends after the first attempt, each on a fresh reply tag, with
    #: exponential backoff (base * 2^(attempt-1), capped at the max)
    #: plus up to ``retry_jitter`` * backoff of seeded random jitter so
    #: synchronized peers don't re-stampede a recovering rank.
    max_retries: int = 2
    retry_backoff_base: float = 0.05
    retry_backoff_max: float = 2.0
    retry_jitter: float = 0.5
    #: compressor applied to output files at close (None = store raw).
    #: Checkpoints/logs are written once and rarely re-read (§II-B3), so
    #: a slow-but-dense codec is usually the right choice here.
    output_compressor: str | None = None
    #: digest-check every compressed payload before it is decompressed
    #: or served (records without a recorded digest always pass); the
    #: cached-plaintext fast path is unaffected either way.
    verify_reads: bool = True
    #: phase-histogram sampling: every Nth cache-missing ``open_file``
    #: records per-phase (metadata/fetch/verify/decompress) latencies.
    #: A hot local read is ~20 µs, so always-on timing would dominate
    #: it; sampling keeps the instrumentation overhead low while the
    #: histograms still converge. 0 disables phase timing entirely.
    metrics_every: int = 8
    #: fraction of cache-missing opens that start a new trace rooted at
    #: ``client.read`` (1.0 = every open; the chaos drills run there).
    #: 0.0 never *starts* traces, but requests arriving with a remote
    #: trace context are always served traced — a sampled trace on one
    #: rank is followed everywhere.
    trace_sample: float = 0.0
    #: total wall-clock budget for one fetch ladder (home retries →
    #: replicas → shared FS). None keeps the legacy behaviour — each
    #: attempt gets a full ``request_timeout`` and the tiers stack; a
    #: value caps every attempt's timeout and backoff by the remaining
    #: budget, so the ladder can never outlive the caller (set it below
    #: the trainer's ``comm_timeout``). Either way each request wire
    #: body carries its attempt's absolute deadline so servers can drop
    #: work the requester has already abandoned.
    request_deadline: float | None = None
    #: hedged reads: after the home rank has been silent for the p95
    #: (``_HEDGE_QUANTILE``) of its recent latencies (``hedge_after_s``
    #: until enough samples exist), fire the same fetch at the best
    #: replica and take the first verified reply. Off by default — the
    #: healthy-cluster overhead is near zero, but hedging is a policy
    #: the operator should opt into.
    hedge_reads: bool = False
    hedge_after_s: float = 0.05
    #: circuit breaker per peer: ``breaker_failure_threshold``
    #: consecutive hard failures (timeouts, overload sheds) or
    #: ``breaker_slow_threshold`` consecutive slow signals (the hedge
    #: fired) open it; after ``breaker_reset_after`` seconds it
    #: half-opens and the next fetch probes.
    breaker_failure_threshold: int = 3
    breaker_slow_threshold: int = 3
    breaker_reset_after: float = 1.0
    #: admission control: the service loop drains its mailbox into a
    #: bounded queue; overflow sheds the nearest-deadline entry with an
    #: overload reply carrying ``overload_retry_after_s``. Shedding (or
    #: a backlog at/above half the queue) enters *brownout* for
    #: ``_BROWNOUT_HOLD_S``: re-verification of already-digest-checked
    #: payloads is skipped to shed CPU.
    max_queue_depth: int = 64
    overload_retry_after_s: float = 0.05
    #: epoch fencing: every request carries the sender's membership view
    #: epoch, and mutating requests (``write_meta``) stamped with an
    #: epoch older than the server's are refused with a ``FENCED``
    #: reply carrying the server's epoch (surfaced to the caller as
    #: :class:`StaleEpochError`). This is what keeps a rank healing out
    #: of a minority partition from clobbering majority state; disable
    #: only to measure what it buys (see ``benchmarks/bench_partition``).
    epoch_fencing: bool = True
    #: the pipelined-scheduler knob group (worker pool width, in-flight
    #: bound, client-side batching limits) — see
    #: :class:`repro.fanstore.pipeline.PipelineConfig` for each knob.
    #: ``PipelineConfig(pipeline_workers=0, batch_max=1)`` restores the
    #: fully blocking pre-pipeline daemon.
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)


class _BatchTicket:
    """One parked small request awaiting a batched flush.

    ``outcome`` is written under its batcher's lock and read after
    ``event`` fires: ``("lead", None)`` elects the waiter as the next
    flush leader, ``("reply", Reply)`` hands it its decoded item reply,
    ``("fallback", None)`` tells it to retry through the classic
    single-request ladder. ``cancelled`` marks a waiter that gave up at
    its deadline — a flush leader skips it rather than answering a
    walked-away caller."""

    __slots__ = ("kind", "subject", "deadline", "event", "outcome",
                 "cancelled")

    def __init__(
        self, kind: str, subject: Any, deadline: Deadline | None
    ) -> None:
        self.kind = kind
        self.subject = subject
        self.deadline = deadline
        self.event = threading.Event()
        self.outcome: tuple[str, Any] | None = None
        self.cancelled = False


class _DestBatcher:
    """Per-destination batching state: ``busy`` is the flush baton (one
    in-flight exchange per destination at a time), ``pending`` the
    tickets parked behind it."""

    __slots__ = ("lock", "busy", "pending")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.busy = False
        self.pending: "deque[_BatchTicket]" = deque()


class FanStoreDaemon:
    """Per-rank object-store service."""

    def __init__(
        self,
        comm: Communicator | None = None,
        *,
        config: DaemonConfig | None = None,
        backend: RamBackend | DiskBackend | None = None,
        registry: CompressorRegistry | None = None,
        metrics: MetricsRegistry | None = None,
        journal_dir: Any = None,
        journal_config: JournalConfig | None = None,
        disk_injector: DiskFaultInjector | None = None,
    ) -> None:
        self.comm = comm
        self.config = config if config is not None else DaemonConfig()
        self.backend = backend if backend is not None else RamBackend()
        self.registry = registry or default_registry()
        self.metadata = MetadataTable()
        self.cache = DecompressedCache(self.config.cache_bytes)
        self.rank = comm.rank if comm else 0
        self.size = comm.size if comm else 1
        #: unified per-rank observability: the stats bag below is bound
        #: into this registry (``daemon.*``), the cache binds its own
        #: (``cache.*``), and sampled opens feed the phase histograms.
        self.metrics = metrics if metrics is not None else MetricsRegistry(
            rank=self.rank
        )
        self.tracer = Tracer(rank=self.rank, sample=self.config.trace_sample)
        self.stats = DaemonStats()
        self.stats.bind(self.metrics)
        self.cache.bind_metrics(self.metrics)
        self._obs_tick = 0
        self._last_verify_s = 0.0  # per-fetch verify cost (see _blob_ok)
        self._h_meta = self.metrics.histogram("daemon.phase.metadata_seconds")
        self._h_fetch = self.metrics.histogram("daemon.phase.fetch_seconds")
        self._h_verify = self.metrics.histogram("daemon.phase.verify_seconds")
        self._h_decompress = self.metrics.histogram(
            "daemon.phase.decompress_seconds"
        )
        self._h_open = self.metrics.histogram("daemon.open_seconds")
        self._h_write = self.metrics.histogram("daemon.write_seconds")
        self._trace_opens = self.config.trace_sample > 0.0
        self._service_thread: threading.Thread | None = None
        self._reply_tags = itertools.count(_REPLY_TAG_BASE + self.rank * 1_000_000)
        self._reply_lock = threading.Lock()
        #: pipelined scheduler state (PR 9): client-side single-flight
        #: coalescing of identical fetches, per-destination request
        #: batchers, and the serve-side in-flight gauge + counters.
        self._fetch_flight = SingleFlight()
        self._batch_lock = threading.Lock()
        self._batchers: dict[int, _DestBatcher] = {}
        self._inflight = 0
        self.metrics.bind_gauge("daemon.pipeline.inflight", self, "_inflight")
        self._m_dispatched = self.metrics.counter("daemon.pipeline.dispatched")
        self._m_coalesced = self.metrics.counter(
            "daemon.pipeline.coalesced_fetches"
        )
        self._m_batch_flushes = self.metrics.counter("daemon.batch.flushes")
        self._m_batch_items = self.metrics.counter("daemon.batch.items")
        self._m_batch_fallbacks = self.metrics.counter(
            "daemon.batch.fallbacks"
        )
        self._m_batch_served = self.metrics.counter("daemon.batch.served")
        self._loaded_bytes = 0
        self._prepared: PreparedDataset | None = None
        # replica paths this rank acquired during ring replication,
        # announced to peers in the metadata allgather
        self._replicated_paths: list[str] = []
        self._retry_rng = random.Random(0x5EED ^ self.rank)
        #: per-peer latency EWMA/quantiles + circuit breakers; the
        #: breaker transition/probe callbacks land in the stats bag so
        #: the drills assert on them like any other counter
        cfg = self.config
        self.health = HealthTracker(
            self.rank,
            failure_threshold=cfg.breaker_failure_threshold,
            slow_threshold=cfg.breaker_slow_threshold,
            reset_after=cfg.breaker_reset_after,
        )
        self.health.on_open = self._on_breaker_open
        self.health.on_probe = self._on_breaker_probe
        self._queue_depth = 0  # service-loop backlog, sampled per drain
        self.metrics.bind_gauge("daemon.queue_depth", self, "_queue_depth")
        self._brownout_until = 0.0
        self._brownout_depth = max(2, cfg.max_queue_depth // 2)
        self._verified_paths: set[str] = set()
        self._membership: FailureDetector | None = None
        # negative route cache: dest rank → view epoch at the time the
        # exchange was given up on; a hit counts only while the epoch is
        # unchanged, so every membership change re-opens the route
        self._route_lock = threading.Lock()
        self._dead_routes: dict[int, int] = {}
        self._repair_durations: list[float] = []
        # convictions whose re-replication was frozen (no quorum at the
        # time); heal reconciliation catches them up. Guarded by
        # _route_lock (same membership-callback paths).
        self._frozen_corpses: set[int] = set()
        # corpses this rank already ran a re-replication pass for —
        # heal catch-up must not double-stage what on_rank_dead did
        self._rereplicated_for: set[int] = set()
        #: crash-consistent durability (PR 8): when a journal directory
        #: is configured, every local-store mutation goes intent →
        #: atomic apply → commit through :meth:`_durable_put`, and
        #: :meth:`load`/:meth:`load_rejoin` run restart recovery before
        #: ingesting anything. ``None`` journal = legacy fire-and-forget
        #: (RAM backends, where nothing survives the process anyway).
        self._journal_dir = journal_dir
        self._journal_config = journal_config
        self._disk_injector = disk_injector
        self.journal: Journal | None = None
        self.jstats = JournalStats()
        self.jstats.bind(self.metrics)
        if disk_injector is not None and hasattr(self.backend, "injector"):
            self.backend.injector = disk_injector
        if isinstance(self.backend, DiskBackend):
            self.backend.rank = self.rank

    # -- loading ----------------------------------------------------------

    def _assigned_partitions(self, num_partitions: int) -> list[int]:
        """Round-robin partition→rank assignment (§V-D: rank determines
        which partitions to load)."""
        return [p for p in range(num_partitions) if p % self.size == self.rank]

    def _charge_capacity(self, nbytes: int, what: str) -> None:
        self._loaded_bytes += nbytes
        cap = self.config.capacity_bytes
        if cap is not None and self._loaded_bytes > cap:
            raise CapacityError(
                f"rank {self.rank}: loading {what} exceeds the "
                f"{cap}-byte burst buffer ({self._loaded_bytes} needed)"
            )

    def _ingest_partition(self, partition_path, home_rank: int) -> int:
        """Ingest one partition file; returns payload bytes ingested.

        With a :class:`~repro.fanstore.backend.PartitionBackend` the
        payloads stay inside the partition file on local disk and only
        the metadata is scanned (the paper's SSD mode); otherwise the
        payload bytes are loaded into the backend (the RAM mode).
        """
        payload = 0
        if hasattr(self.backend, "register"):
            entries = read_partition(partition_path, with_data=False)
            for e in entries:
                self.backend.register(
                    e.path, partition_path, e.data_offset, e.compressed_size
                )
                payload += e.compressed_size
        else:
            # zero-copy RAM ingest: one read of the whole partition,
            # payloads stored as memoryview slices of that buffer
            entries = read_partition(
                partition_path, with_data=True, zero_copy=True
            )
            for e in entries:
                assert e.data is not None
                self.backend.put(e.path, e.data)
                payload += e.compressed_size
        self.metadata.insert_entries(entries, home_rank)
        return payload

    def load(self, prepared: PreparedDataset) -> None:
        """Stage the prepared dataset: local partitions from the shared
        FS, extra partitions from the ring neighbor, broadcast partition
        everywhere, then the metadata allgather."""
        # crash recovery first: adopted client outputs must be in the
        # table before the allgather announces this rank's holdings
        self._open_journal()
        self._prepared = prepared  # kept for degraded shared-FS re-reads
        assigned = self._assigned_partitions(len(prepared.partitions))
        partition_paths = prepared.partition_paths()
        for pid in assigned:
            nbytes = self._ingest_partition(partition_paths[pid], self.rank)
            self._charge_capacity(nbytes, f"partition {pid}")

        bcast = prepared.broadcast_path()
        if bcast is not None:
            nbytes = self._ingest_partition(bcast, self.rank)
            self._charge_capacity(nbytes, "broadcast partition")

        if self.comm is not None:
            self._replicate_extra_partitions(assigned)
            self._metadata_allgather()

    def _replicate_extra_partitions(self, assigned: list[int]) -> None:
        """§V-D site 2: extra partitions are copied from the left ring
        neighbor rather than re-read off the shared file system. Each
        hop ships (path, compressed bytes, record) tuples."""
        budget = self.config.extra_partition_budget
        if budget <= 0:
            return
        comm = self.comm
        assert comm is not None
        block = [
            (rec.path, self.backend.get(rec.path), rec)
            for rec in self.metadata.local_records(self.rank)
            if not rec.is_broadcast
        ]
        left = (comm.rank - 1) % comm.size
        right = (comm.rank + 1) % comm.size
        current = block
        for _hop in range(min(budget, comm.size - 1)):
            comm.send(current, right, TAG_DAEMON + 1)
            current = comm.recv(left, TAG_DAEMON + 1,
                                timeout=self.config.request_timeout)
            nbytes = 0
            for path, data, _rec in current:
                self.backend.put(path, data)
                self._replicated_paths.append(path)
                nbytes += len(data)
            self._charge_capacity(nbytes, "extra partition")

    def _metadata_allgather(self) -> None:
        """§IV-C1: one allgather builds the identical global view on
        every node. Records keep their *home* rank so remote fetches
        know where to go; each rank also announces the replica copies it
        acquired during ring replication, so a fetch whose home rank has
        died can fail over to a surviving copy."""
        comm = self.comm
        assert comm is not None
        mine = self.metadata.local_records(self.rank)
        contributions = comm.allgather(
            (mine, list(self._replicated_paths)),
            timeout=_LOAD_COLLECTIVE_TIMEOUT,
        )
        for sender, (records, replicated) in enumerate(contributions):
            self.metadata.merge(records)
            for path in replicated:
                self.metadata.add_replica(path, sender)

    # -- membership (self-healing) ------------------------------------------

    def attach_membership(self, detector: FailureDetector) -> None:
        """Wire a failure detector to this daemon: conviction triggers
        re-replication, re-admission re-announces replicas, and the
        detector's join/promotion endpoints are backed by this daemon's
        metadata snapshot and verification read."""
        self._membership = detector
        detector.on_dead = self.on_rank_dead
        detector.on_alive = self.on_rank_alive
        detector.on_isolated = self.on_isolated
        detector.on_reconnected = self.reconcile_after_heal
        detector.verify_read = self.verification_read
        detector.join_snapshot = self.membership_snapshot

    def current_view(self) -> ClusterView | None:
        """Snapshot of the membership view (None when not attached)."""
        det = self._membership
        return det.view if det is not None else None

    def _view_epoch(self) -> int:
        det = self._membership
        return det.view.epoch if det is not None else 0

    def _fence_token(self) -> int | None:
        """The fencing token stamped on outgoing requests: this rank's
        membership view epoch, or None when fencing is off / no detector
        is attached (a request without a token is never fenced)."""
        if not self.config.epoch_fencing or self._membership is None:
            return None
        return self._view_epoch()

    def _stale_epoch(self, epoch: int | None) -> bool:
        """Server-side fencing check for a mutating request: True when
        the sender stamped a view epoch older than ours. Unfenced
        senders (no token: fencing disabled, no detector) are never
        fenced — fencing protects against *known* staleness, not missing
        information."""
        if not self.config.epoch_fencing or self._membership is None:
            return False
        return epoch is not None and epoch < self._view_epoch()

    def _route_dead(self, dest: int) -> bool:
        """Whether requests to ``dest`` should short-circuit: the view
        convicted it DEAD, or the negative route cache remembers an
        exhausted exchange from the *current* view epoch. Stale cache
        entries (epoch moved on) are dropped on sight."""
        if dest == self.rank:
            return False
        view = self.current_view()
        if view is not None and view.state(dest) == RankState.DEAD:
            return True
        with self._route_lock:
            cached = self._dead_routes.get(dest)
            if cached is None:
                return False
            if view is not None and cached != view.epoch:
                del self._dead_routes[dest]
                return False
            return True

    def _note_dead_route(self, dest: int) -> None:
        """Remember that ``dest`` exhausted a full retry ladder, so the
        next request skips straight to failover even before the
        detector convicts it."""
        epoch = self._view_epoch()
        with self._route_lock:
            self._dead_routes[dest] = epoch

    def _clear_dead_route(self, dest: int) -> None:
        with self._route_lock:
            self._dead_routes.pop(dest, None)

    def _on_breaker_open(self, peer: int) -> None:
        self.stats.breaker_opens += 1

    def _on_breaker_probe(self, peer: int) -> None:
        self.stats.breaker_probes += 1

    def on_rank_dead(self, rank: int, view: ClusterView) -> None:
        """Membership callback: ``rank`` was convicted DEAD.

        Every surviving rank computes the *same* deterministic
        reassignment plan (pure function of the converged metadata +
        view) and commits it to its own table, so routing converges
        without coordination messages. The designated stage rank of each
        step additionally copies the payload from a surviving copy
        holder — shared-FS degraded read as the floor — digest-verifies
        it, and lands it in its backend, restoring the replication
        factor. Counted in ``rereplicated_records`` and
        ``mean_time_to_repair``.
        """
        det = self._membership
        if det is not None and (det.isolated or not det.has_quorum()):
            # No quorum behind this conviction: re-replicating now is
            # how a split cluster turns into a replication storm (both
            # sides "restoring" partitions the other side still holds).
            # Freeze the work; heal reconciliation catches it up if the
            # conviction survives the merged view.
            self.stats.rereplications_frozen += 1
            with self._route_lock:
                self._frozen_corpses.add(rank)
            return
        # reconcile the breaker with the view: a conviction outranks
        # whatever the latency tracker believed
        self.health.force_open(rank)
        with self._route_lock:
            self._frozen_corpses.discard(rank)
            self._rereplicated_for.add(rank)
        started = time.monotonic()
        plan = self.metadata.plan_rereplication(
            rank, view.non_dead_ranks(), self.size
        )
        restored = 0
        failed = 0
        for step in plan:
            if step.stage_rank != self.rank:
                continue
            if step.path in self.backend:
                restored += 1  # already held (e.g. an unannounced copy)
                continue
            if self._stage_copy(step) is None:
                failed += 1
            else:
                restored += 1
        self.metadata.apply_rereplication(plan, rank)
        self.stats.rereplicated_records += restored
        self.stats.rereplication_failed += failed
        det = self._membership
        t0 = started
        if det is not None and det.clock is time.monotonic:
            t0 = det.detected_at.get(rank, started)
        self._repair_durations.append(time.monotonic() - t0)
        self.stats.mean_time_to_repair = sum(self._repair_durations) / len(
            self._repair_durations
        )

    def _stage_copy(self, step: RereplicationStep) -> bytes | None:
        """Fetch one lost record's bytes from a surviving copy holder
        (shared-FS degraded read as the floor), digest-verify them, and
        land them in the local backend. Returns the bytes, or None when
        every source failed."""
        record = self.metadata.get(step.path)
        for source in step.source_ranks:
            if source == self.rank or self._route_dead(source):
                continue
            try:
                ok, data = self._request(
                    "fetch", step.path, source,
                    attempts=_FAILOVER_ATTEMPTS,
                )
            except (RetryExhaustedError, ServerOverloadedError, RankDeadError):
                continue
            if ok and self._blob_ok(record, data):
                self._durable_put("rereplicate", step.path, data)
                return data
        # _degraded_read verifies and promotes into the backend itself
        return self._degraded_read(step.path, record)

    def on_rank_alive(self, rank: int) -> None:
        """Membership callback: ``rank`` was re-admitted. Its rejoin
        re-staged its original round-robin partitions off the shared FS,
        so every rank deterministically announces it as a replica for
        those records. Ownership stays with the post-repair homes —
        handing primaries back would churn routing for no benefit."""
        self._clear_dead_route(rank)
        with self._route_lock:
            # a live rank owes nobody a re-replication: drop any frozen
            # conviction and forget the completed pass so a *future*
            # death gets a fresh one
            self._frozen_corpses.discard(rank)
            self._rereplicated_for.discard(rank)
        # re-admission half-opens the breaker: the first fetch at the
        # rejoiner is a probe, not a leap of faith
        self.health.half_open(rank)
        for rec in self.metadata.records():
            if rec.is_broadcast:
                continue
            if rec.partition_id % self.size == rank and rec.home_rank != rank:
                self.metadata.add_replica(rec.path, rank)

    def on_isolated(self) -> None:
        """Membership callback: this rank lost quorum (minority side of
        a partition). Nothing to tear down — reads keep serving from
        local partitions and the degraded shared-FS floor, and the
        detector itself freezes convictions; this hook exists so
        operators see the transition in the log stream."""
        _LOG.warning(
            "rank %d: ISOLATED — no membership quorum; convictions and "
            "re-replication frozen, reads continue degraded", self.rank,
        )

    def reconcile_after_heal(self, view: ClusterView) -> None:
        """Membership callback: this rank regained quorum after an
        isolation episode — the partition healed and the gossip views
        merged. Anti-entropy pass:

        1. the negative route cache and open circuit breakers are reset
           (the epoch moved and the links are plausibly back — probe,
           don't assume);
        2. convictions frozen during isolation are caught up *if* the
           merged view still holds them DEAD (a rank the majority
           revived owes nobody a re-replication);
        3. backend copies this rank holds but is neither home for nor an
           announced replica of — split-era duplicates and old promoted
           copies — are garbage-collected;
        4. every record this rank is responsible for is digest-verified
           (and repaired through the failover ladder) by one scrubber
           pass, so divergent placements reconverge digest-clean.

        Counted in ``replication.reconciled_records`` /
        ``replication.duplicate_replicas_dropped``; the whole pass is
        one ``daemon.heal.reconcile`` trace span.
        """
        with self.tracer.maybe_root("daemon.heal.reconcile",
                                    epoch=view.epoch) as span:
            with self._route_lock:
                self._dead_routes.clear()
                frozen = sorted(self._frozen_corpses)
                self._frozen_corpses.clear()
            for peer in self.health.open_peers():
                self.health.half_open(peer)
            caught_up = 0
            for rank in frozen:
                with self._route_lock:
                    done = rank in self._rereplicated_for
                if done or view.state(rank) != RankState.DEAD:
                    continue
                self.on_rank_dead(rank, view)
                caught_up += 1
            dropped = 0
            for rec in self.metadata.records():
                if rec.is_broadcast or rec.home_rank == self.rank:
                    continue
                if rec.path not in self.backend:
                    continue
                if self.rank in self.metadata.replica_ranks(rec.path):
                    continue
                if self.backend.discard(rec.path):
                    self.cache.discard(rec.path)
                    dropped += 1
            self.stats.duplicate_replicas_dropped += dropped
            # lazy import: repro.fanstore.scrub imports this module
            from repro.fanstore.scrub import Scrubber

            report = Scrubber(self, repair=True).run()
            self.stats.reconciled_records += report.scanned
            span.tag(
                caught_up=caught_up,
                duplicates_dropped=dropped,
                scrub_clean=report.clean,
            )

    def verification_read(self, joiner: int) -> bool:
        """Promotion gate (peer side): fetch one record the joiner must
        hold — the first of its round-robin partition — straight from
        its daemon and digest-verify the bytes. A rank that cannot serve
        a verified read does not get promoted. No candidate record means
        there is nothing to verify — admit."""
        candidates = [
            rec for rec in self.metadata.records()
            if not rec.is_broadcast
            and rec.partition_id % self.size == joiner
        ]
        if not candidates:
            return True
        record = min(candidates, key=lambda r: r.path)
        try:
            ok, data = self._request("fetch", record.path, joiner, attempts=1)
        except (RetryExhaustedError, ServerOverloadedError, RankDeadError):
            return False
        return (
            bool(ok)
            and isinstance(data, (bytes, bytearray, memoryview))
            and self._blob_ok(record, data)
        )

    def membership_snapshot(
        self,
    ) -> tuple[list[FileRecord], dict[str, tuple[int, ...]]]:
        """Join payload (peer side): the full record list plus the
        replica map — everything a relaunched rank needs to rebuild what
        the load-time allgather originally gave it, *including* any
        post-repair ownership changes."""
        records = self.metadata.records()
        replicas = {
            rec.path: self.metadata.replica_ranks(rec.path) for rec in records
        }
        return records, replicas

    def apply_membership_snapshot(
        self, snapshot: tuple[list[FileRecord], dict[str, tuple[int, ...]]]
    ) -> None:
        """Joiner side: adopt a live peer's metadata wholesale (it is
        authoritative — it reflects any re-homing done while this rank
        was dead or partitioned away), then announce the copies of this
        rank's own round-robin partitions it physically holds as
        replicas — the *same* deterministic rule every peer applies in
        :meth:`on_rank_alive`, so both sides of the announcement
        converge without a message. Copies held beyond that rule
        (split-era duplicates, old degraded-read promotions) are
        deliberately *not* announced; :meth:`reconcile_after_heal`
        garbage-collects them."""
        records, replicas = snapshot
        for rec in records:
            self.metadata.insert(rec)
            # Replace, not union: a partition survivor's own stale
            # entries (e.g. itself as holder of a duty re-homed during
            # the split) must not outlive the adoption.
            self.metadata.set_replicas(rec.path, replicas.get(rec.path, ()))
        for rec in records:
            if rec.is_broadcast:
                continue
            if (
                rec.partition_id % self.size == self.rank
                and rec.home_rank != self.rank
                and rec.path in self.backend
            ):
                self.metadata.add_replica(rec.path, self.rank)

    def load_rejoin(self, prepared: PreparedDataset) -> None:
        """Re-stage this rank's round-robin partitions off the shared FS
        without any collective: a rejoiner cannot allgather (the
        original cohort's collective sequence has moved on), so its
        bytes come from the shared FS and its metadata from the join
        snapshot applied afterwards."""
        self._open_journal()
        self._prepared = prepared
        assigned = self._assigned_partitions(len(prepared.partitions))
        partition_paths = prepared.partition_paths()
        for pid in assigned:
            nbytes = self._ingest_partition(partition_paths[pid], self.rank)
            self._charge_capacity(nbytes, f"partition {pid}")
        bcast = prepared.broadcast_path()
        if bcast is not None:
            nbytes = self._ingest_partition(bcast, self.rank)
            self._charge_capacity(nbytes, "broadcast partition")

    def export_ownership(self) -> dict:
        """JSON-ready ownership map (view epoch + per-path home and
        replicas) for offline tooling: ``fanstore-inspect --repair``
        must consult post-re-replication owners, not the original
        layout, so integrity repair and membership repair compose."""
        view = self.current_view()
        return {
            "epoch": view.epoch if view is not None else 0,
            "rank": self.rank,
            "files": {
                rec.path: {
                    "home": rec.home_rank,
                    "replicas": list(self.metadata.replica_ranks(rec.path)),
                }
                for rec in self.metadata.records()
            },
        }

    # -- durability (write-ahead journal + restart recovery) ----------------

    def _durable_put(
        self,
        op: str,
        norm: str,
        data: bytes,
        *,
        record: FileRecord | None = None,
    ) -> None:
        """The journalled mutation protocol: intent (durable) → atomic
        apply → commit (durable). Only after this returns may the
        caller acknowledge anything. With no journal configured this is
        a plain backend put (legacy fire-and-forget).

        A clean apply failure aborts the intent (recovery would roll it
        back anyway; aborting just unpins its segment early). A
        simulated crash is a ``BaseException`` and deliberately skips
        the abort — the intent must stay pending on disk, exactly like
        a real ``kill -9``.
        """
        journal = self.journal
        if journal is None:
            self.backend.put(norm, data)
            return
        seq = journal.begin(
            op, norm, data, epoch=self._view_epoch(), record=record
        )
        try:
            self.backend.put(norm, data)
        except Exception:
            journal.abort(seq)
            raise
        journal.commit(seq)

    def _open_journal(self) -> None:
        """Restart recovery, then open (a fresh incarnation of) the
        journal. Idempotent per daemon; no-op without a journal dir.

        Recovery never appends to the journal, and its mutations
        (adopt, unlink, tmp GC) are idempotent — so a crash at any
        ``recovery.*`` point simply reruns recovery on the next start.
        Only the :class:`Journal` constructor afterwards changes the
        journal itself, and it does so checkpoint-first.
        """
        if self._journal_dir is None or self.journal is not None:
            return
        t0 = time.monotonic()
        stats = self.jstats
        log = scan_journal(self._journal_dir)
        stats.recovery_torn_records += log.torn_records
        with self.tracer.root(
            "durability.recover", rank=self.rank,
            segments=log.segments,
        ) as span:
            crash_point("recovery.scanned", self.rank)
            live: dict[str, dict] = {}
            # Adoption first: an uncommitted intent whose on-disk bytes
            # digest-match it finished its apply — the rename + dir
            # fsync is the durable commit point and only the lazily
            # synced commit record was lost. Applies replace whole
            # files atomically, so disk-matching an intent proves that
            # intent's apply was the last to complete for its path; a
            # committed (older) version of the same path must then not
            # re-apply itself over the newer acked bytes.
            adopted: set[str] = set()
            for intent in log.uncommitted:
                if intent["path"] in adopted:
                    continue
                entry = live_entry(intent)
                data = self._read_raw_blob(intent["path"])
                if (
                    data is not None
                    and len(data) == entry["size"]
                    and zlib.crc32(data) == entry["crc"]
                ):
                    self._recover_entry(intent["path"], entry, live)
                    adopted.add(intent["path"])
            for path, entry in log.checkpoint_live.items():
                if path not in adopted:
                    self._recover_entry(path, entry, live)
            for intent in log.committed:
                if intent["path"] not in adopted:
                    self._recover_entry(
                        intent["path"], live_entry(intent), live
                    )
            crash_point("recovery.replayed", self.rank)
            for intent in log.uncommitted:
                if intent["path"] in adopted:
                    continue
                self._rollback_intent(intent, live)
                stats.recovery_rolled_back += 1
            stats.recovery_tmp_gc += self._gc_tmp_files()
            crash_point("recovery.done", self.rank)
            span.tag(
                replayed=stats.recovery_replayed,
                reapplied=stats.recovery_reapplied,
                rolled_back=stats.recovery_rolled_back,
                quarantined=stats.recovery_quarantined,
                torn=stats.recovery_torn_records,
            )
        self.journal = Journal(
            self._journal_dir,
            rank=self.rank,
            config=self._journal_config,
            stats=stats,
            injector=self._disk_injector,
            live=live,
        )
        stats.recovery_seconds = time.monotonic() - t0

    def _read_raw_blob(self, norm: str) -> bytes | None:
        """The bytes currently on disk behind ``norm``, bypassing the
        backend index (which died with the previous process)."""
        backend = self.backend
        if isinstance(backend, DiskBackend):
            blob = backend.blob_path(norm)
            try:
                return blob.read_bytes() if blob.is_file() else None
            except OSError:
                return None
        # RAM-family backends: nothing survives a process death
        return None

    def _recover_entry(
        self, path: str, entry: dict, live: dict[str, dict]
    ) -> None:
        """Roll one committed intent forward: verify the on-disk bytes
        against the journalled digest and re-adopt them; re-apply from
        the embedded payload when the bytes are missing or torn; and
        only when neither is possible, quarantine (count it — the
        crash drill asserts this stays zero, because the protocol
        commits strictly after the apply is durable)."""
        data = self._read_raw_blob(path)
        if (
            data is not None
            and len(data) == entry["size"]
            and zlib.crc32(data) == entry["crc"]
        ):
            if isinstance(self.backend, DiskBackend):
                self.backend.adopt(path)
            else:
                self.backend.put(path, data)
            self.jstats.recovery_replayed += 1
        elif "payload" in entry:
            self.backend.put(path, bytes.fromhex(entry["payload"]))
            self.jstats.recovery_reapplied += 1
        else:
            self.backend.discard(path)
            if isinstance(self.backend, DiskBackend):
                self.backend.blob_path(path).unlink(missing_ok=True)
            self.jstats.recovery_quarantined += 1
            return
        wire = entry.get("record")
        if wire is not None:
            self.metadata.insert(record_from_wire(wire))
        live[path] = entry

    def _rollback_intent(self, intent: dict, live: dict[str, dict]) -> None:
        """Undo one uncommitted intent. The client was never
        acknowledged, so deleting whatever the torn apply left behind
        is always correct — *unless* a committed version of the same
        path owns the current bytes, in which case they stay."""
        path = intent["path"]
        kept = live.get(path)
        data = self._read_raw_blob(path)
        if data is None:
            return  # the apply never reached the final name
        if kept is not None and zlib.crc32(data) == kept["crc"]:
            return  # these bytes belong to the committed version
        self.backend.discard(path)
        if isinstance(self.backend, DiskBackend):
            self.backend.blob_path(path).unlink(missing_ok=True)

    def _gc_tmp_files(self) -> int:
        """Remove ``*.tmp`` orphans of crashed atomic applies (the one
        artefact the tmp+rename protocol can leak) from the backend
        root and the journal directory."""
        removed = 0
        dirs = [Path(self._journal_dir)] if self._journal_dir else []
        if isinstance(self.backend, DiskBackend):
            dirs.append(self.backend.root)
        for directory in dirs:
            if not directory.is_dir():
                continue
            for orphan in directory.glob("*.tmp"):
                orphan.unlink(missing_ok=True)
                removed += 1
            if removed:
                fsync_dir(directory)
        return removed

    # -- service loop -------------------------------------------------------

    def start(self) -> None:
        """Start answering peer requests (no-op single-node)."""
        if self.journal is not None and self.journal.closed:
            # a restart after stop(): reopen a fresh journal incarnation
            # over the (already consistent) live state
            self.journal = Journal(
                self._journal_dir,
                rank=self.rank,
                config=self._journal_config,
                stats=self.jstats,
                injector=self._disk_injector,
                live=self.journal.live_state(),
            )
        if self.comm is None or self._service_thread is not None:
            return
        self._service_thread = threading.Thread(
            target=self._serve, name=f"fanstore-daemon-{self.rank}", daemon=True
        )
        self._service_thread.start()

    def stop(self) -> None:
        """Stop the service loop (idempotent). Shutdown gets its own
        bounded budget — ``_SHUTDOWN_TIMEOUT``, not ``request_timeout``
        (a generous request budget must not become a shutdown hang). A
        service thread that misses it is logged and leaked: it is a
        daemon thread, so it cannot outlive the process."""
        if self.journal is not None:
            self.journal.close()
        if self.comm is None or self._service_thread is None:
            return
        self.comm.send(("stop", None), self.rank, TAG_DAEMON)
        thread = self._service_thread
        thread.join(timeout=_SHUTDOWN_TIMEOUT)
        if thread.is_alive():
            _LOG.warning(
                "rank %d: daemon service thread still running %.1fs after "
                "stop; leaking it (daemon thread — dies with the process)",
                self.rank, _SHUTDOWN_TIMEOUT,
            )
        self._service_thread = None

    def _serve(self) -> None:
        """The event loop of the pipelined scheduler. The loop itself
        only *admits* (recv → parse → bounded queue, shedding overflow)
        and *dispatches*; with ``pipeline.pipeline_workers > 0`` the
        actual serving — digest verify, backend reads, codec work —
        happens on a worker pool, bounded by ``pipeline.max_inflight``,
        so the loop never blocks on one slow request and admission
        control stays live under load. ``pipeline_workers == 0`` is the
        legacy inline mode: each request served to completion on this
        thread (the blocking baseline of the saturation benchmark)."""
        comm = self.comm
        assert comm is not None
        queue = AdmissionQueue(self.config.max_queue_depth)
        workers = self.config.pipeline.pipeline_workers
        pool: ThreadPoolExecutor | None = None
        slots: threading.BoundedSemaphore | None = None
        stop = threading.Event()
        if workers > 0:
            pool = ThreadPoolExecutor(
                max_workers=workers,
                thread_name_prefix=f"fanstore-pipe-{self.rank}",
            )
            slots = threading.BoundedSemaphore(
                self.config.pipeline.max_inflight
            )
        try:
            while True:
                if not len(queue):
                    try:
                        msg = comm.recv_with_status(
                            ANY_SOURCE, TAG_DAEMON, timeout=None
                        )
                    except (CommClosedError, CommError):
                        return
                    if self._admit(queue, msg):
                        return
                # Drain whatever else already arrived before serving:
                # admission control can only shed backlog it can see,
                # and a burst must not be served strictly
                # one-recv-at-a-time.
                while True:
                    try:
                        msg = comm.try_recv(ANY_SOURCE, TAG_DAEMON)
                    except (CommClosedError, CommError):
                        return
                    if msg is None:
                        break
                    if self._admit(queue, msg):
                        return
                depth = len(queue)
                self._queue_depth = depth
                if depth >= self._brownout_depth:
                    self._brownout_until = time.monotonic() + _BROWNOUT_HOLD_S
                entry = queue.pop()
                if entry is None:
                    continue
                if pool is None:
                    if not self._serve_one(entry):
                        return
                    continue
                # Uncontended fast path: nothing in flight and nothing
                # queued behind this entry means a pool hop buys no
                # overlap — serve on the loop thread and skip the
                # submit/wakeup cost. A lone client pays the same
                # per-request price as the legacy inline loop (the
                # single-client overhead gate in bench_saturation.py
                # holds this to <= 5%); the reads of ``_inflight`` are
                # racy on purpose — a stale nonzero just takes the pool
                # path, a concurrent drain-to-zero just serves inline.
                if self._inflight == 0 and not len(queue):
                    if not self._serve_one(entry):
                        return
                    continue
                # In-flight bound: while the pool is saturated, keep
                # draining + shedding the mailbox instead of blocking —
                # a stalled pool must not take admission control down
                # with it.
                assert slots is not None
                while not slots.acquire(timeout=0.02):
                    if stop.is_set():
                        return
                    while True:
                        try:
                            msg = comm.try_recv(ANY_SOURCE, TAG_DAEMON)
                        except (CommClosedError, CommError):
                            return
                        if msg is None:
                            break
                        if self._admit(queue, msg):
                            return
                if stop.is_set():
                    slots.release()
                    return
                self._m_dispatched.inc()
                self._inflight += 1
                pool.submit(self._serve_async, entry, slots, stop)
        finally:
            if pool is not None:
                pool.shutdown(wait=False)

    def _serve_async(
        self,
        entry: tuple,
        slots: threading.BoundedSemaphore,
        stop: threading.Event,
    ) -> None:
        """One pooled request: serve it, then free its in-flight slot.
        A terminal serve outcome (world teardown) flips ``stop`` so the
        dispatch loop exits at its next slot acquisition."""
        try:
            if not self._serve_one(entry):
                stop.set()
        finally:
            self._inflight -= 1
            slots.release()

    def _admit(self, queue: AdmissionQueue, msg: tuple) -> bool:
        """Parse one envelope into the admission queue, shedding
        overflow with overload replies. Returns True when the service
        loop must exit (stop request, or the world tore down under a
        shed reply).

        A malformed message must not kill the service loop — the daemon
        outlives misbehaving clients (it answers to every peer, not just
        the sender). Bodies decode through
        :func:`repro.fanstore.wire.decode_request`; anything that is not
        a v2 envelope is malformed.
        A batch envelope is admitted against the *earliest* of its
        items' deadlines: the whole flush is droppable only once every
        waiter behind it has walked away.
        """
        payload, source, _tag = msg
        try:
            kind, body = payload
        except (TypeError, ValueError):
            self.stats.malformed_requests += 1
            return False
        if kind == "stop":
            return True
        if kind not in ("fetch", "stat", "write_meta", "batch"):
            self.stats.malformed_requests += 1
            return False
        try:
            request = decode_request(body)
        except (WireFormatError, TypeError, ValueError):
            self.stats.malformed_requests += 1
            return False
        deadline_at = request.deadline
        if kind == "batch" and request.batch:
            item_expiries = [
                wire_deadline(item[2])
                for item in request.batch
                if isinstance(item, tuple) and len(item) == 3
            ]
            live = [at for at in item_expiries if at is not None]
            if live and len(live) == len(item_expiries):
                # per-item expiry is enforced inside _serve_batch; the
                # envelope itself is dead only once its *last* waiter is
                deadline_at = max(live)
        entry = (kind, request, source)
        shed = queue.push(entry, deadline_at)
        if shed:
            # shedding is the overload signal: enter brownout
            self._brownout_until = time.monotonic() + _BROWNOUT_HOLD_S
        retry_after = self.config.overload_retry_after_s
        for _, victim, victim_source in shed:
            self.stats.shed_requests += 1
            try:
                self.comm.send(
                    Reply(Reply.OVERLOAD, retry_after).encode(),
                    victim_source,
                    victim.reply_tag,
                )
            except (CommClosedError, CommError):
                return True
        return False

    def _serve_one(self, entry: tuple) -> bool:
        """Serve one admitted request; False ends the service loop."""
        comm = self.comm
        assert comm is not None
        kind, request, source = entry
        subject = request.subject
        reply_tag = request.reply_tag
        deadline_at = request.deadline
        if deadline_at is not None and time.monotonic() >= deadline_at:
            # the requester has already timed out and walked away:
            # serving — or even refusing — would be work for nobody
            self.stats.deadline_expired_drops += 1
            return True
        # Joining the requester's trace: a malformed context yields
        # NULL_SPAN, never an error — tracing must not change what
        # gets served.
        span = (
            self.tracer.adopt(request.trace_ctx, f"daemon.serve.{kind}",
                              source=source)
            if request.trace_ctx is not None else NULL_SPAN
        )
        try:
            with span:
                if kind == "fetch":
                    self.stats.served_requests += 1
                    span.tag(path=subject)
                    try:
                        reply = Reply(Reply.OK, self._verified_local(subject))
                    except FileNotFoundInStoreError:
                        reply = Reply(Reply.MISS, subject)
                    except DataIntegrityError:
                        # never serve bytes that failed verification
                        # and could not be self-repaired; no reply at
                        # all, so the requester times out and walks
                        # its own failover ladder (replicas, shared
                        # FS)
                        span.tag(unrepairable=True)
                        return True
                elif kind == "stat":
                    span.tag(path=subject)
                    try:
                        reply = Reply(Reply.OK, self.metadata.get(subject))
                    except FileNotFoundInStoreError:
                        reply = Reply(Reply.MISS, None)
                elif kind == "batch":
                    self._serve_batch(request, source)
                    return True
                else:  # write_meta
                    if self._stale_epoch(request.epoch):
                        # a mutation decided under a pre-partition view:
                        # fence it off rather than let a healed minority
                        # clobber majority state
                        self.stats.fenced_rejects += 1
                        span.tag(fenced=True)
                        reply = Reply(Reply.FENCED, self._view_epoch())
                    else:
                        self.metadata.insert(subject)
                        reply = Reply(Reply.OK, None)
                comm.send(reply.encode(), source, reply_tag)
        except (CommClosedError, CommError):
            # replying to a torn-down world (or after our own
            # injected death) ends the service loop — a crashed
            # daemon stops serving
            return False
        except (FanStoreError, TypeError, ValueError, AttributeError):
            # a well-framed envelope around a nonsense subject (bad
            # path type, bogus write_meta record) is still malformed
            self.stats.malformed_requests += 1
        return True

    def _serve_batch(self, request: Request, source: int) -> None:
        """Serve one batched flush: every item in order, each with its
        own deadline check and error isolation (one poisoned item fails
        only its own waiter), answered as a single batch reply on the
        envelope's tag."""
        replies = [
            self._serve_batch_item(item) for item in (request.batch or ())
        ]
        self._m_batch_served.inc()
        self.comm.send(
            encode_batch_reply(replies), source, request.reply_tag
        )

    def _serve_batch_item(self, item: Any) -> Reply:
        """One batch item → one item reply; never raises (comm errors
        excepted — those belong to the envelope send)."""
        try:
            kind, subject, expiry = item
        except (TypeError, ValueError):
            self.stats.malformed_requests += 1
            return Reply(Reply.FAILED, None)
        try:
            expiry = wire_deadline(expiry)
            if expiry is not None and time.monotonic() >= expiry:
                self.stats.deadline_expired_drops += 1
                return Reply(Reply.EXPIRED, subject)
            if kind == "fetch":
                self.stats.served_requests += 1
                try:
                    data = self._verified_local(subject)
                except FileNotFoundInStoreError:
                    return Reply(Reply.MISS, subject)
                except DataIntegrityError:
                    # the batched analog of the classic no-reply
                    # silence: only this waiter falls back to the
                    # single-request ladder (replicas, shared FS)
                    return Reply(Reply.FAILED, subject)
                return Reply(Reply.OK, data)
            if kind == "stat":
                try:
                    rec = self.metadata.get(subject)
                except FileNotFoundInStoreError:
                    return Reply(Reply.MISS, None)
                return Reply(Reply.OK, rec)
            # mutating kinds never batch (write_meta needs fencing)
            self.stats.malformed_requests += 1
            return Reply(Reply.FAILED, None)
        except (FanStoreError, TypeError, ValueError, AttributeError):
            self.stats.malformed_requests += 1
            return Reply(Reply.FAILED, None)

    # -- data path ------------------------------------------------------------

    def _next_reply_tag(self) -> int:
        with self._reply_lock:
            return next(self._reply_tags)

    def _backoff(self, attempt: int) -> float:
        """Capped exponential backoff with seeded jitter for retry
        ``attempt`` (1-based)."""
        cfg = self.config
        delay = min(
            cfg.retry_backoff_max,
            cfg.retry_backoff_base * (2 ** (attempt - 1)),
        )
        return delay * (1.0 + cfg.retry_jitter * self._retry_rng.random())

    def _request(
        self,
        kind: str,
        body: Any,
        dest: int,
        *,
        attempts: int | None = None,
        deadline: Deadline | None = None,
    ) -> tuple[bool, Any]:
        """One request/reply exchange with a bounded retry budget.

        Every attempt uses a *fresh* reply tag, so a reply that arrives
        after its attempt already timed out rots harmlessly in the
        mailbox instead of being mistaken for the answer to a later
        request. ``CommClosedError`` (world teardown) and
        ``RankDeadError`` (this rank is the dead one) are not retried —
        no amount of resending survives either.

        With a ``deadline``, every attempt's timeout and backoff sleep
        are capped by the remaining budget (retries no longer *stack*
        full timeouts), and a spent budget raises
        :class:`DeadlineExpiredError` instead of starting another
        attempt. Either way the wire body carries the attempt's own
        absolute expiry, so the server can drop work this side has
        already given up on. An ``OVERLOAD`` reply is a shed: back off
        at least its retry-after before the next attempt, and raise
        :class:`ServerOverloadedError` when the budget ends on one —
        overload is the one failure retrying *amplifies*. A ``FENCED``
        reply raises :class:`StaleEpochError` at once.

        Every reply is read through
        :func:`~repro.fanstore.wire.decode_reply`; one that does not
        decode, or carries a batch-only status, is a failed attempt just
        like a timeout. Returns ``(True, value)`` for an ``OK`` reply and
        ``(False, value)`` for a ``MISS``.

        Outcomes feed the per-peer health tracker: reply latencies via
        :meth:`HealthTracker.observe`, timeouts, sheds and undecodable
        replies via :meth:`HealthTracker.failure`.
        """
        comm = self.comm
        assert comm is not None
        cfg = self.config
        if attempts is None:
            attempts = 1 + max(0, cfg.max_retries)
        path = body if isinstance(body, str) else None
        # Tracing: each attempt gets its own ``rpc.<kind>`` span (so
        # retries are visible as sibling spans) and the attempt's
        # context rides in the request body for the serving rank to
        # adopt.
        traced = self.tracer.current_context() is not None
        last_exc: CommError | WireFormatError | None = None
        overload_wait: float | None = None
        for attempt in range(attempts):
            if attempt:
                self.stats.retries += 1
                pause = self._backoff(attempt)
                if overload_wait is not None:
                    pause = max(pause, overload_wait)
                    overload_wait = None
                if deadline is not None:
                    pause = deadline.cap(pause)
                time.sleep(pause)
            if deadline is not None and deadline.expired():
                self.stats.deadline_aborts += 1
                raise DeadlineExpiredError(
                    f"rank {self.rank}: {kind} request to rank {dest} "
                    f"abandoned after {attempt} attempt(s): deadline "
                    f"expired (last error: {last_exc})",
                    path,
                ) from last_exc
            attempt_timeout = (
                cfg.request_timeout if deadline is None
                else deadline.cap(cfg.request_timeout)
            )
            reply_tag = self._next_reply_tag()
            span = (
                self.tracer.span(f"rpc.{kind}", dest=dest, attempt=attempt)
                if traced else NULL_SPAN
            )
            t0 = time.perf_counter()
            try:
                with span:
                    ctx = span.context()
                    wire_body = Request(
                        subject=body,
                        reply_tag=reply_tag,
                        trace_ctx=None if ctx is None else ctx.as_wire(),
                        deadline=time.monotonic() + attempt_timeout,
                        # fencing token re-read per attempt: a view that
                        # advances mid-ladder fences with the fresh epoch
                        epoch=self._fence_token(),
                    ).encode()
                    comm.send((kind, wire_body), dest, TAG_DAEMON)
                    reply = decode_reply(
                        comm.recv(dest, reply_tag, timeout=attempt_timeout)
                    )
            except (CommClosedError, RankDeadError):
                raise
            except (CommError, WireFormatError) as exc:
                last_exc = exc
                self.health.failure(dest)
                continue
            status = reply.status
            if status == Reply.FENCED:
                # a stale fencing token is not retryable: the view this
                # side acted under is history, and only a membership
                # catch-up (gossip merge, rejoin) can change that
                self.stats.stale_epoch_aborts += 1
                raise StaleEpochError(
                    f"rank {self.rank}: {kind} request to rank {dest} "
                    f"fenced off — our view epoch {self._view_epoch()} is "
                    f"older than the server's {reply.value}",
                    path,
                    server_epoch=(
                        reply.value if isinstance(reply.value, int) else 0
                    ),
                )
            if status == Reply.OVERLOAD:
                self.stats.overload_backoffs += 1
                self.health.failure(dest)
                last_exc = None
                overload_wait = (
                    float(reply.value)
                    if isinstance(reply.value, (int, float))
                    else cfg.overload_retry_after_s
                )
                continue
            if status not in (Reply.OK, Reply.MISS):
                last_exc = WireFormatError(
                    f"{status} reply to a single {kind} request"
                )
                self.health.failure(dest)
                continue
            self.health.observe(dest, time.perf_counter() - t0)
            return status == Reply.OK, reply.value
        if overload_wait is not None:
            raise ServerOverloadedError(
                f"rank {self.rank}: {kind} request to rank {dest} shed by "
                f"admission control on every one of {attempts} attempt(s)",
                path,
                retry_after_s=overload_wait,
            )
        raise RetryExhaustedError(
            f"rank {self.rank}: {kind} request to rank {dest} "
            f"(tag {TAG_DAEMON:#x}, last reply tag {reply_tag:#x}) failed "
            f"after {attempts} attempt(s): {last_exc}",
            path=path,
        ) from last_exc

    # -- per-destination request batching ------------------------------------

    def _batcher(self, dest: int) -> _DestBatcher:
        with self._batch_lock:
            batcher = self._batchers.get(dest)
            if batcher is None:
                batcher = self._batchers[dest] = _DestBatcher()
            return batcher

    def _batched_request(
        self,
        kind: str,
        subject: Any,
        dest: int,
        *,
        deadline: Deadline | None = None,
    ) -> tuple[bool, Any]:
        """A small request that may ride a batched flush.

        The first caller per destination takes the *baton* and runs a
        classic :meth:`_request` (an idle destination pays zero batching
        overhead — no linger, no envelope change); callers arriving
        while the baton is out park as tickets. When the baton frees, a
        parked ticket is elected flush leader: it lingers briefly, packs
        up to ``batch_max`` parked tickets into one ``batch`` envelope,
        and fans the item replies back to their waiters. Any batch-level
        failure degrades every waiter to the classic ladder — batching
        is an optimization, never a new failure mode. Hedged fetches and
        mutating requests must not come through here.
        """
        comm = self.comm
        cfg = self.config.pipeline
        if comm is None or cfg.batch_max <= 1:
            return self._request(kind, subject, dest, deadline=deadline)
        batcher = self._batcher(dest)
        ticket: _BatchTicket | None = None
        with batcher.lock:
            if not batcher.busy:
                batcher.busy = True
            else:
                ticket = _BatchTicket(kind, subject, deadline)
                batcher.pending.append(ticket)
        if ticket is None:
            try:
                return self._request(kind, subject, dest, deadline=deadline)
            finally:
                self._pass_baton(batcher)
        while ticket.outcome is None:
            timeout = (
                None if ticket.deadline is None
                else max(0.0, ticket.deadline.remaining())
            )
            if not ticket.event.wait(timeout):
                with batcher.lock:
                    aborted = ticket.outcome is None
                    if aborted:
                        ticket.cancelled = True
                        try:
                            batcher.pending.remove(ticket)
                        except ValueError:
                            pass
                if aborted:
                    self.stats.deadline_aborts += 1
                    raise DeadlineExpiredError(
                        f"rank {self.rank}: batched {kind} request to rank "
                        f"{dest} abandoned while parked: deadline expired",
                        subject if isinstance(subject, str) else None,
                    )
        action, value = ticket.outcome
        if action == "lead":
            return self._lead_flush(batcher, dest, ticket)
        if action == "reply":
            return self._consume_item_reply(
                kind, subject, dest, deadline, value
            )
        # "fallback": the flush died at the envelope level; retry classic
        self._m_batch_fallbacks.inc()
        return self._request(kind, subject, dest, deadline=deadline)

    def _pass_baton(self, batcher: _DestBatcher) -> None:
        """Hand the per-destination baton to the oldest live parked
        ticket (electing it flush leader), or retire it."""
        with batcher.lock:
            while batcher.pending:
                ticket = batcher.pending.popleft()
                if ticket.cancelled:
                    continue
                ticket.outcome = ("lead", None)
                ticket.event.set()
                return
            batcher.busy = False

    def _lead_flush(
        self, batcher: _DestBatcher, dest: int, own: _BatchTicket
    ) -> tuple[bool, Any]:
        """Run one batched flush as its elected leader: linger, pack the
        parked tickets, exchange, fan the item replies out. Every
        grouped ticket is answered even when the exchange raises — a
        torn-down world must not strand parked waiters.

        The baton is handed on the moment the group is sealed — before
        the network round trip — so the next elected leader packs and
        sends while this envelope is still on the wire. Serializing
        flushes behind one baton would cap throughput at one round trip
        per destination at a time, below the blocking baseline's free
        concurrency; pipelined flushes keep ``batch_max`` fewer round
        trips *and* overlapping exchanges."""
        cfg = self.config.pipeline
        baton_passed = False
        try:
            if cfg.batch_linger > 0:
                with batcher.lock:
                    waiting = len(batcher.pending)
                # linger only while the batch could still fill: a full
                # backlog packs immediately, no latency added
                if waiting < cfg.batch_max - 1:
                    pause = cfg.batch_linger
                    if own.deadline is not None:
                        pause = own.deadline.cap(pause)
                    if pause > 0:
                        time.sleep(pause)
            group = [own]
            with batcher.lock:
                while batcher.pending and len(group) < cfg.batch_max:
                    ticket = batcher.pending.popleft()
                    if ticket.cancelled:
                        continue
                    group.append(ticket)
            self._pass_baton(batcher)
            baton_passed = True
            if len(group) == 1:
                return self._request(
                    own.kind, own.subject, dest, deadline=own.deadline
                )
            replies: list[Reply] | None = None
            try:
                replies = self._exchange_batch(dest, group)
            finally:
                for i, ticket in enumerate(group):
                    if ticket is own:
                        continue
                    ticket.outcome = (
                        ("fallback", None) if replies is None
                        else ("reply", replies[i])
                    )
                    ticket.event.set()
            if replies is None:
                self._m_batch_fallbacks.inc()
                return self._request(
                    own.kind, own.subject, dest, deadline=own.deadline
                )
            return self._consume_item_reply(
                own.kind, own.subject, dest, own.deadline, replies[0]
            )
        finally:
            if not baton_passed:
                self._pass_baton(batcher)

    def _exchange_batch(
        self, dest: int, group: list[_BatchTicket]
    ) -> list[Reply] | None:
        """One batched request/reply exchange; ``None`` means the whole
        flush must degrade to classic per-item requests (comm timeout,
        envelope-level shed or fence, malformed reply). World teardown
        (:class:`CommClosedError`) and our own injected death
        (:class:`RankDeadError`) still raise — no retry survives those.
        """
        comm = self.comm
        assert comm is not None
        cfg = self.config
        now = time.monotonic()
        items = []
        latest = now
        for ticket in group:
            expiry = (
                ticket.deadline.at if ticket.deadline is not None
                else now + cfg.request_timeout
            )
            latest = max(latest, expiry)
            items.append((ticket.kind, ticket.subject, expiry))
        budget = max(1e-3, min(latest - now, cfg.request_timeout))
        reply_tag = self._next_reply_tag()
        request = Request(
            subject=None,
            reply_tag=reply_tag,
            trace_ctx=None,
            deadline=now + budget,
            epoch=self._fence_token(),
            batch=tuple(items),
        )
        t0 = time.perf_counter()
        try:
            comm.send(("batch", request.encode()), dest, TAG_DAEMON)
            raw = comm.recv(dest, reply_tag, timeout=budget)
        except (CommClosedError, RankDeadError):
            raise
        except CommError:
            self.health.failure(dest)
            return None
        try:
            replies = decode_batch_reply(raw)
        except WireFormatError:
            replies = None
        if replies is None or len(replies) != len(group):
            # an envelope-level shed/fence or a malformed reply: the
            # classic per-item fallback handles overload and fencing
            # with their full semantics (backoff, typed errors)
            self.health.failure(dest)
            return None
        self.health.observe(dest, time.perf_counter() - t0)
        self._m_batch_flushes.inc()
        self._m_batch_items.inc(len(group))
        return replies

    def _consume_item_reply(
        self,
        kind: str,
        subject: Any,
        dest: int,
        deadline: Deadline | None,
        reply: Reply,
    ) -> tuple[bool, Any]:
        """Map one batched item reply onto classic ``_request`` return
        semantics; a FAILED item (integrity failure, malformed subject)
        retries alone through the classic ladder."""
        if reply.status == Reply.OK:
            return True, reply.value
        if reply.status == Reply.MISS:
            return False, reply.value
        if reply.status == Reply.EXPIRED:
            self.stats.deadline_aborts += 1
            raise DeadlineExpiredError(
                f"rank {self.rank}: batched {kind} of {subject!r} to rank "
                f"{dest} dropped by the server: item deadline expired",
                subject if isinstance(subject, str) else None,
            )
        self._m_batch_fallbacks.inc()
        return self._request(kind, subject, dest, deadline=deadline)

    def _lookup(self, norm: str) -> FileRecord:
        """Metadata lookup with the runtime-output fallback: paths
        written after the load-time allgather live only on their writer
        and the hash owner, so a local miss asks the owner and caches
        the record."""
        try:
            return self.metadata.get(norm)
        except FileNotFoundInStoreError:
            record = self.stat_any(norm)
            if record is None:
                raise
            self.metadata.insert(record)
            return record

    def _blob_ok(self, record: FileRecord, data: bytes) -> bool:
        """Digest check of compressed bytes against the record; passes
        when verification is off or no digest was recorded.

        Verification time accumulates into ``_last_verify_s`` — an
        observed open resets it before fetching, so the verify phase
        histogram captures every digest check the fetch ladder did for
        that read (a failover verifies at each tier).

        Brownout: while the service loop is shedding (see
        :meth:`_admit`), *re*-verification of a payload this rank
        already digest-checked once is skipped — the marginal
        protection of the Nth identical check is what overload can
        afford to lose. First-time checks always run."""
        if not self.config.verify_reads or not record.stat.has_digest:
            return True
        if (
            record.path in self._verified_paths
            and time.monotonic() < self._brownout_until
        ):
            self.stats.brownout_skipped_verifies += 1
            return True
        t0 = time.perf_counter()
        ok = blob_crc32(data) == record.stat.crc32
        self._last_verify_s += time.perf_counter() - t0
        if ok:
            self._verified_paths.add(record.path)
        else:
            self._verified_paths.discard(record.path)
        return ok

    def _verified_local(self, norm: str, record: FileRecord | None = None) -> bytes:
        """Local backend bytes, digest-checked; a corrupt copy is
        quarantined and self-repaired through the failover ladder.
        Raises :class:`DataIntegrityError` when unrepairable and
        :class:`FileNotFoundInStoreError` when simply absent."""
        if record is None:
            try:
                record = self.metadata.get(norm)
            except FileNotFoundInStoreError:
                return self.backend.get(norm)
        try:
            data = self.backend.get(norm)
        except DataIntegrityError:
            # the backend itself flagged the bytes (torn partition file)
            return self.repair(norm, record)
        if self._blob_ok(record, data):
            return data
        return self.repair(norm, record)

    def fetch_compressed(
        self, path: str, *, deadline: Deadline | None = None
    ) -> bytes:
        """Compressed bytes for ``path`` — locally, from the home rank
        (hedged at a replica when enabled), from a surviving replica, or
        (degraded mode) re-read off the shared FS (§IV-C2, Figure 2;
        failover ladder home → replicas → partition file). Every tier's
        bytes are digest-verified before they are accepted; a mismatch
        anywhere descends the ladder.

        One :class:`~repro.comm.deadline.Deadline` (the caller's, or a
        fresh one from ``config.request_deadline``) budgets the whole
        ladder: tiers spend from it rather than stacking timeouts, and
        a spent budget surfaces as :class:`DeadlineExpiredError`.

        Concurrent fetches of the same key are *single-flighted*: one
        caller runs the ladder (hedged or not), everyone else shares its
        outcome — a miss storm costs one upstream fetch, and errors are
        shared the same way. A follower whose own deadline lapses while
        the leader is still fetching aborts alone; the flight runs on.
        ``pipeline.coalesce = False`` opts out: every caller runs its
        own ladder with fully independent errors.
        """
        norm = normalize(path)
        if not self.config.pipeline.coalesce:
            return self._fetch_ladder(norm, deadline)
        try:
            value, led = self._fetch_flight.run(
                norm,
                lambda: self._fetch_ladder(norm, deadline),
                timeout=None if deadline is None else deadline.remaining(),
            )
        except CommError:
            raise
        except FanStoreError:
            raise
        except TimeoutError:
            # the bare single-flight wait timeout (leader errors are
            # CommError/FanStoreError and re-raise above): this
            # follower's budget died waiting on someone else's flight
            self.stats.deadline_aborts += 1
            raise DeadlineExpiredError(
                f"rank {self.rank}: fetch of {norm} abandoned waiting on "
                "a coalesced in-flight fetch: deadline expired",
                norm,
            )
        if not led:
            self._m_coalesced.inc()
        return value

    def _fetch_ladder(
        self, norm: str, deadline: Deadline | None = None
    ) -> bytes:
        """The actual failover ladder behind :meth:`fetch_compressed`
        (``norm`` pre-normalized; one execution per single-flight)."""
        record = self._lookup(norm)
        if (
            record.home_rank == self.rank
            or self.comm is None
            or norm in self.backend  # replicated via an extra partition
        ):
            self.stats.local_opens += 1
            return self._verified_local(norm, record)
        if deadline is None and self.config.request_deadline is not None:
            deadline = Deadline.after(self.config.request_deadline)
        home = record.home_rank
        if self._route_dead(home):
            # known-dead home: skip the retry/backoff ladder entirely
            # and jump straight to the failover tiers (still counted as
            # a failover — the fetch did leave the home rank)
            self.stats.dead_route_skips += 1
            self.stats.failovers += 1
            return self._failover_fetch(
                norm, record, deadline,
                f"rank {self.rank}: fetch of {norm} skipped dead home "
                f"rank {home} (tag {TAG_DAEMON:#x}) and no replica or "
                "shared-FS copy answered",
            )
        if not self.health.allow(home):
            # the breaker saw a gray failure the membership layer has
            # not (yet): route around the slow home without spending a
            # single timeout on it
            self.stats.breaker_skips += 1
            self.stats.failovers += 1
            return self._failover_fetch(
                norm, record, deadline,
                f"rank {self.rank}: fetch of {norm} skipped home rank "
                f"{home} (circuit breaker open) and no replica or "
                "shared-FS copy answered",
            )
        try:
            ok, data = self._home_fetch(norm, record, deadline)
        except (RetryExhaustedError, ServerOverloadedError) as home_failure:
            if isinstance(home_failure, RetryExhaustedError):
                # overload is pressure, not death: don't poison routing
                self._note_dead_route(home)
            self.stats.failovers += 1
            data = self._fetch_from_replicas(norm, record, deadline=deadline)
            if data is None:
                data = self._degraded_read(norm, record)
            if data is None:
                raise home_failure
            return data
        if not ok:
            # authoritative not-found from a live home rank: no failover
            raise FileNotFoundInStoreError(norm)
        self.stats.remote_fetches += 1
        self.stats.remote_bytes += len(data)
        if self._blob_ok(record, data):
            return data
        # the home rank served corrupt bytes (and could not self-heal):
        # same quarantine + ladder as a corrupt local copy
        return self.repair(norm, record)

    def _failover_fetch(
        self,
        norm: str,
        record: FileRecord,
        deadline: Deadline | None,
        exhausted_message: str,
    ) -> bytes:
        """Replica tier then shared-FS floor, when the home rank was
        skipped outright (dead route or open breaker)."""
        data = self._fetch_from_replicas(norm, record, deadline=deadline)
        if data is None:
            data = self._degraded_read(norm, record)
        if data is None:
            raise RetryExhaustedError(exhausted_message, path=norm)
        return data

    def _home_fetch(
        self, norm: str, record: FileRecord, deadline: Deadline | None
    ) -> tuple[bool, Any]:
        """The home-rank tier: a plain retried request (batched when the
        destination is busy), or — with ``hedge_reads`` on and a replica
        available — a hedged one (never batched: a hedge is a latency
        bet, and parking it behind a flush would forfeit it)."""
        if not self.config.hedge_reads:
            return self._batched_request(
                "fetch", norm, record.home_rank, deadline=deadline
            )
        replicas = self._replica_order(norm, record)
        if not replicas:
            return self._batched_request(
                "fetch", norm, record.home_rank, deadline=deadline
            )
        return self._hedged_fetch(norm, record, replicas[0], deadline)

    def _hedge_delay(self, dest: int) -> float:
        """How long to leave the home rank alone before hedging: the
        configured quantile of its recent reply latencies, or the fixed
        ``hedge_after_s`` until enough samples exist."""
        cfg = self.config
        delay = self.health.quantile(
            dest, _HEDGE_QUANTILE, cfg.hedge_after_s,
            min_samples=_HEDGE_MIN_SAMPLES,
        )
        # floor well above zero so a burst of fast replies cannot turn
        # hedging into send-everything-twice
        return min(max(delay, 1e-3), cfg.request_timeout)

    def _hedged_fetch(
        self,
        norm: str,
        record: FileRecord,
        hedge_dest: int,
        deadline: Deadline | None,
    ) -> tuple[bool, Any]:
        """One fetch, two possible servers: the home rank first; if it
        stays silent past the hedge delay, the same request (same reply
        tag — whichever reply lands first is taken) goes to the best
        replica. The winner must pass digest verification or the loser
        gets its chance; the loser's late reply rots harmlessly on the
        never-reused tag. Raises :class:`RetryExhaustedError` when
        neither leg answers in time (the caller descends the ladder).
        """
        comm = self.comm
        assert comm is not None
        cfg = self.config
        home = record.home_rank
        if deadline is not None and deadline.expired():
            self.stats.deadline_aborts += 1
            raise DeadlineExpiredError(
                f"rank {self.rank}: hedged fetch of {norm} abandoned "
                "before send: deadline expired",
                norm,
            )
        budget = (
            cfg.request_timeout if deadline is None
            else deadline.cap(cfg.request_timeout)
        )
        reply_tag = self._next_reply_tag()
        traced = self.tracer.current_context() is not None
        span = (
            self.tracer.span("rpc.fetch", dest=home, hedge=hedge_dest)
            if traced else NULL_SPAN
        )
        with span:
            ctx = span.context()
            wire_body = Request(
                subject=norm,
                reply_tag=reply_tag,
                trace_ctx=None if ctx is None else ctx.as_wire(),
                deadline=time.monotonic() + budget,
                epoch=self._fence_token(),
            ).encode()
            t0 = time.perf_counter()
            comm.send(("fetch", wire_body), home, TAG_DAEMON)
            try:
                reply = comm.recv(
                    home, reply_tag,
                    timeout=min(self._hedge_delay(home), budget),
                )
            except CommError:
                reply = None
            racing: set[int] = set()
            if reply is not None:
                try:
                    return self._hedge_accept(
                        reply, home, home, record, t0, span
                    )
                except DataIntegrityError:
                    pass  # home's leg burned (corrupt/shed): hedge it
            else:
                # home missed its hedge delay: that is a slow strike
                # even if it eventually answers
                self.health.note_slow(home)
                racing.add(home)
            # the replica gets the same request on the same reply tag —
            # whichever leg lands first is the one that counts
            self.stats.hedged_reads += 1
            span.tag(hedged=True)
            comm.send(("fetch", wire_body), hedge_dest, TAG_DAEMON)
            racing.add(hedge_dest)
            while racing:
                remaining = budget - (time.perf_counter() - t0)
                if deadline is not None:
                    remaining = deadline.cap(remaining)
                if remaining <= 0:
                    break
                try:
                    reply, source, _tag = comm.recv_with_status(
                        ANY_SOURCE, reply_tag, timeout=remaining
                    )
                except CommError:
                    break
                if source not in racing:
                    continue  # a duplicate delivery of a counted leg
                racing.discard(source)
                if source == hedge_dest:
                    self.stats.hedge_wins += 1
                else:
                    self.stats.hedge_losses += 1
                try:
                    return self._hedge_accept(
                        reply, source, home, record, t0, span
                    )
                except DataIntegrityError:
                    continue  # corrupt leg: let the other one race on
        for leg in racing:
            self.health.failure(leg)
        raise RetryExhaustedError(
            f"rank {self.rank}: hedged fetch of {norm} from home rank "
            f"{home} (hedge rank {hedge_dest}, tag {TAG_DAEMON:#x}, reply "
            f"tag {reply_tag:#x}) got no verified reply in time",
            path=norm,
        )

    def _hedge_accept(
        self,
        raw: Any,
        source: int,
        home: int,
        record: FileRecord,
        t0: float,
        span: Any,
    ) -> tuple[bool, Any]:
        """Validate one hedged leg's reply; DataIntegrityError means
        "keep racing", anything returned is final. A shed or an
        undecodable reply is a failed leg."""
        try:
            reply = decode_reply(raw)
        except WireFormatError:
            reply = Reply(Reply.FAILED)
        if reply.status == Reply.OVERLOAD:
            self.stats.overload_backoffs += 1
        if reply.status not in (Reply.OK, Reply.MISS):
            self.health.failure(source)
            raise DataIntegrityError(  # caller treats as a dead leg
                record.path, f"hedged leg answered {reply.status}"
            )
        if reply.status == Reply.MISS:
            # authoritative not-found travels up only from the home
            # rank; a replica without the record is just a losing leg
            if source == home:
                return False, reply.value
            raise DataIntegrityError(record.path, "replica missed")
        data = reply.value
        if not self._blob_ok(record, data):
            raise DataIntegrityError(record.path, "hedged leg corrupt")
        self.health.observe(source, time.perf_counter() - t0)
        span.tag(winner=source)
        return True, data

    def repair(self, path: str, record: FileRecord | None = None) -> bytes:
        """Quarantine a corrupt copy of ``path`` and re-fetch verified
        bytes through the failover ladder: home rank (when remote) →
        announced replicas → shared-FS partition re-read. On success the
        good bytes replace the corrupt copy in the backend and any
        cached plaintext is discarded; on failure the corruption is
        unrepairable and a typed :class:`DataIntegrityError` naming the
        path is raised. Counts ``corruption_detected`` /
        ``corruption_repaired``."""
        norm = normalize(path)
        # Re-resolve the record even when the caller supplied one: after
        # a membership repair the authoritative home may have *moved*,
        # and healing against the stale owner would race the
        # re-replication engine (the caller's copy is kept only for
        # paths that have since left the table).
        try:
            record = self._lookup(norm)
        except FileNotFoundInStoreError:
            if record is None:
                raise
        self.stats.corruption_detected += 1
        self.cache.discard(norm)
        with self.tracer.span("daemon.repair", path=norm) as span:
            data: bytes | None = None
            if (
                self.comm is not None
                and record.home_rank != self.rank
                and not self._route_dead(record.home_rank)
            ):
                try:
                    ok, candidate = self._request(
                        "fetch", norm, record.home_rank
                    )
                except RetryExhaustedError:
                    ok, candidate = False, None
                    self._note_dead_route(record.home_rank)
                except (ServerOverloadedError, RankDeadError):
                    ok, candidate = False, None
                if ok and self._blob_ok(record, candidate):
                    data = candidate
            if data is None and self.comm is not None:
                data = self._fetch_from_replicas(norm, record)
            if data is None:
                data = self._degraded_read(norm, record)
            if data is None:
                span.tag(repaired=False)
                raise DataIntegrityError(
                    norm,
                    "compressed payload failed digest verification and no "
                    "replica or shared-FS copy could repair it",
                )
            span.tag(repaired=True)
            self.stats.corruption_repaired += 1
            self._durable_put("repair", norm, data)
            return data

    def _replica_order(self, norm: str, record: FileRecord) -> list[int]:
        """Failover order over the announced replicas: healthy
        view-ALIVE ranks first (ascending), then SUSPECT ranks, then
        open-breaker ranks (slow is still better than nothing — replicas
        are the fallback tier, so they are deprioritized, not skipped);
        convicted-DEAD and negative-cached ranks are skipped outright."""
        candidates = [
            r for r in self.metadata.replica_ranks(norm)
            if r not in (self.rank, record.home_rank)
            and not self._route_dead(r)
        ]
        view = self.current_view()
        return sorted(
            candidates,
            key=lambda r: (
                self.health.state(r) is BreakerState.OPEN,
                view is not None and view.state(r) == RankState.SUSPECT,
                r,
            ),
        )

    def _fetch_from_replicas(
        self,
        norm: str,
        record: FileRecord,
        *,
        deadline: Deadline | None = None,
    ) -> bytes | None:
        """Second tier of the ladder: ranks that announced a ring-copied
        (or re-replicated) copy of this path. A replica serving corrupt
        bytes is skipped the same way an unreachable or overloaded one
        is; each attempt spends from the shared ladder deadline."""
        for replica in self._replica_order(norm, record):
            if deadline is not None and deadline.expired():
                # out of budget: the caller's floor (shared FS) is
                # local-only, so let it decide — don't raise here
                return None
            # one span per replica attempt: a failed tier shows up as an
            # errored sibling, not a silent gap in the trace
            span = self.tracer.span("fetch.replica", rank=replica)
            try:
                with span:
                    ok, data = self._request(
                        "fetch", norm, replica,
                        attempts=_FAILOVER_ATTEMPTS,
                        deadline=deadline,
                    )
            except (RetryExhaustedError, ServerOverloadedError):
                continue
            except DeadlineExpiredError:
                return None
            if ok and self._blob_ok(record, data):
                self.stats.remote_fetches += 1
                self.stats.remote_bytes += len(data)
                return data
        return None

    def _degraded_read(self, norm: str, record: FileRecord) -> bytes | None:
        """Floor of the ladder: the prepared partition files never left
        the shared FS, so when home and replicas are all gone the
        payload can be re-read at its recorded offset — slow (the exact
        contention §IV-C1 staged data to avoid) but correct. The copy is
        digest-checked (a corrupt partition file must not be promoted)
        and then promoted into the local backend so one outage costs one
        shared-FS round trip, not one per epoch."""
        if self._prepared is None or record.data_offset < 0:
            return None  # runtime output: bytes exist only on its writer
        with self.tracer.span("fetch.degraded", path=norm):
            paths = self._prepared.partition_paths()
            if record.partition_id < len(paths):
                part = paths[record.partition_id]
            elif record.is_broadcast:
                part = self._prepared.broadcast_path()
            else:
                return None
            if part is None or not part.exists():
                return None
            with open(part, "rb") as fh:
                fh.seek(record.data_offset)
                data = fh.read(record.compressed_size)
            if len(data) != record.compressed_size:
                return None
            if not self._blob_ok(record, data):
                return None
            self.stats.degraded_reads += 1
            self._durable_put("promote", norm, data)
            return data

    def _decompress(
        self, record: FileRecord, data: bytes, *, observed: bool = False
    ) -> bytes:
        """Decompress one payload. ``observed`` additionally times the
        decode and feeds the per-codec ``codec.<name>.*`` metrics (the
        online counterpart of the lzbench profiles — enough to rebuild a
        ratio/cost profile from production traffic; see
        :func:`repro.selection.profiling.profile_from_metrics`)."""
        compressor = self.registry.get(record.compressor_id)
        if observed:
            t0 = time.perf_counter()
            plain = compressor.decompress(data)
            dt = time.perf_counter() - t0
            name = compressor.name
            self.metrics.histogram(f"codec.{name}.decode_seconds").observe(dt)
            self.metrics.counter(f"codec.{name}.decode_bytes").inc(len(plain))
            self.metrics.counter(
                f"codec.{name}.decode_compressed_bytes"
            ).inc(len(data))
        else:
            plain = compressor.decompress(data)
        self.stats.decompressions += 1
        self.stats.decompressed_bytes += len(plain)
        if len(plain) != record.stat.st_size:
            raise FanStoreError(
                f"{record.path}: decompressed to {len(plain)} bytes, "
                f"stat says {record.stat.st_size}"
            )
        return plain

    def open_file(self, path: str) -> bytes:
        """Figure 2's open(): cache hit or fetch+decompress+insert.
        Pins the cache entry; pair with :meth:`close_file`.

        The miss pipeline runs under the cache's single-flight table
        (:meth:`DecompressedCache.get_or_compute`), so a miss storm on
        one file decompresses it exactly once — concurrent openers share
        the leader's installed entry, each taking its own pin.

        Misses take the *observed* branch — per-phase timing plus a
        possible trace root — on every ``metrics_every``-th miss, when
        trace sampling is enabled, or when this thread is already inside
        a trace (so one sampled read never loses its child spans to the
        fast path). Everything else runs the bare pipeline: a hot local
        read is ~20 µs and always-on timing would dominate it."""
        norm = normalize(path)
        return self.cache.get_or_compute(
            norm, lambda: self._miss_bytes(norm)
        )

    def _miss_bytes(self, norm: str) -> bytes:
        """The cache-miss factory: fetch + decompress, *not* inserted —
        :meth:`DecompressedCache.get_or_compute` installs and pins the
        result for every waiter of the flight."""
        self._obs_tick = tick = self._obs_tick + 1
        every = self.config.metrics_every
        if (
            (every and tick % every == 0)
            or self._trace_opens
            or self.tracer.n_active
        ):
            return self._observed_miss_bytes(norm)
        record = self._lookup(norm)
        compressed = self.fetch_compressed(norm)
        return self._decompress(record, compressed)

    def _observed_miss_bytes(self, norm: str) -> bytes:
        """The sampled/traced miss path: same pipeline as
        :meth:`_miss_bytes`, wrapped in a ``client.read`` span (started
        or continued per :meth:`Tracer.maybe_root`) with per-phase
        latencies recorded into the ``daemon.phase.*`` histograms. The
        fetch phase includes any remote hops; verify is broken out
        separately via ``_last_verify_s`` (see :meth:`_blob_ok`)."""
        with self.tracer.maybe_root("client.read", path=norm):
            t0 = time.perf_counter()
            record = self._lookup(norm)
            t1 = time.perf_counter()
            self._last_verify_s = 0.0
            compressed = self.fetch_compressed(norm)
            t2 = time.perf_counter()
            plain = self._decompress(record, compressed, observed=True)
            t3 = time.perf_counter()
            self._h_meta.observe(t1 - t0)
            self._h_fetch.observe(t2 - t1)
            self._h_verify.observe(self._last_verify_s)
            self._h_decompress.observe(t3 - t2)
            self._h_open.observe(time.perf_counter() - t0)
            return plain

    def close_file(self, path: str) -> None:
        """Figure 4's close(): unpin (and free at refcount zero)."""
        self.cache.close(normalize(path))

    # -- write path ------------------------------------------------------------

    def _hash_owner(self, path: str) -> int:
        """Deterministic metadata owner for runtime-written paths (crc32
        rather than ``hash()``, which is salted per process)."""
        return zlib.crc32(path.encode("utf-8")) % self.size

    def _live_owner(self, path: str) -> int:
        """Hash owner, diverted around corpses: when the slot owner is
        DEAD in the current view, its ring successor among non-dead
        ranks takes over the metadata duty. Writer and reader divert
        identically (same view ⇒ same successor), so forwarded records
        stay discoverable across a death."""
        owner = self._hash_owner(path)
        view = self.current_view()
        if view is None or view.state(owner) != RankState.DEAD:
            return owner
        successor = ring_successor(owner, set(view.non_dead_ranks()), self.size)
        return successor if successor is not None else owner

    def store_output(self, path: str, data: bytes, record: FileRecord) -> None:
        """§V-D site 4: dump a closed output file to the backend and
        forward its metadata to the owning rank. The forward is
        acknowledged so that once ``close()`` returns, the metadata is
        globally discoverable — otherwise a peer racing a barrier could
        stat the path before the owner's daemon processed the insert."""
        norm = normalize(path)
        t0 = time.perf_counter()
        self._durable_put("write", norm, data, record=record)
        self.metadata.insert(record)
        self.stats.writes += 1
        self.stats.write_bytes += len(data)
        if self.comm is not None:
            owner = self._live_owner(norm)
            if owner != self.rank:
                # retried like any request/reply site; RetryExhaustedError
                # propagates — the caller must know the path is not yet
                # globally discoverable (bytes are safe on this rank).
                self._request("write_meta", record, owner)
        self._h_write.observe(time.perf_counter() - t0)

    def stat_any(self, path: str) -> FileRecord | None:
        """Metadata lookup that falls back to the hash owner for paths
        written after the load-time allgather."""
        norm = normalize(path)
        try:
            return self.metadata.get(norm)
        except FileNotFoundInStoreError:
            pass
        if self.comm is None:
            return None
        owner = self._live_owner(norm)
        if owner == self.rank:
            return None
        ok, rec = self._batched_request("stat", norm, owner)
        return rec if ok else None
