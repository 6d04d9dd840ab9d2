"""Unit drills for the gray-failure primitives: circuit-breaker FSM,
deadline arithmetic, admission-queue shedding, brownout verification
skips, and the client side of overload replies. State machines run
against fake clocks — no sleeps; only the request-exchange tests touch
a real two-rank world."""

from __future__ import annotations

import errno
import math
import time

import pytest

from repro.comm.communicator import ANY_SOURCE
from repro.comm.deadline import Deadline, wire_deadline
from repro.comm.launcher import run_parallel
from repro.errors import (
    DeadlineExpiredError,
    RetryExhaustedError,
    ServerOverloadedError,
)
from repro.fanstore.daemon import TAG_DAEMON, DaemonConfig, FanStoreDaemon
from repro.fanstore.health import (
    AdmissionQueue,
    BreakerState,
    CircuitBreaker,
    HealthTracker,
)
from repro.fanstore.layout import FileStat, blob_crc32
from repro.fanstore.metadata import FileRecord
from repro.fanstore.wire import OVERLOAD, decode_request


class FakeClock:
    def __init__(self, t: float = 100.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


def breaker(clock, **kw):
    kw.setdefault("failure_threshold", 3)
    kw.setdefault("slow_threshold", 3)
    kw.setdefault("reset_after", 1.0)
    return CircuitBreaker(clock=clock, **kw)


class TestCircuitBreakerFSM:
    def test_starts_closed_and_allows(self):
        br = breaker(FakeClock())
        assert br.state is BreakerState.CLOSED
        assert br.allow()
        assert br.opens == 0

    def test_consecutive_failures_trip(self):
        br = breaker(FakeClock())
        br.record_failure()
        br.record_failure()
        assert br.state is BreakerState.CLOSED  # below threshold
        br.record_failure()
        assert br.state is BreakerState.OPEN
        assert not br.allow()
        assert br.opens == 1

    def test_success_clears_strikes(self):
        br = breaker(FakeClock())
        br.record_failure()
        br.record_failure()
        br.record_success()
        br.record_failure()
        br.record_failure()
        assert br.state is BreakerState.CLOSED  # counter restarted

    def test_consecutive_slow_signals_trip(self):
        br = breaker(FakeClock(), slow_threshold=2)
        br.record_slow()
        assert br.state is BreakerState.CLOSED
        br.record_slow()
        assert br.state is BreakerState.OPEN

    def test_cooloff_half_opens_and_counts_probes(self):
        clock = FakeClock()
        br = breaker(clock)
        for _ in range(3):
            br.record_failure()
        assert not br.allow()
        clock.advance(0.99)
        assert not br.allow()  # still cooling off
        clock.advance(0.02)
        assert br.state is BreakerState.HALF_OPEN
        assert br.allow()
        assert br.probes == 1

    def test_probe_success_closes(self):
        clock = FakeClock()
        br = breaker(clock)
        for _ in range(3):
            br.record_failure()
        clock.advance(1.5)
        assert br.allow()
        br.record_success()
        assert br.state is BreakerState.CLOSED
        assert br.allow() and br.probes == 1  # no new probe once closed

    def test_probe_failure_retrips_immediately(self):
        clock = FakeClock()
        br = breaker(clock)
        for _ in range(3):
            br.record_failure()
        clock.advance(1.5)
        assert br.allow()
        br.record_failure()  # one strike is enough in HALF_OPEN
        assert br.state is BreakerState.OPEN
        assert br.opens == 2
        # and the cool-off restarted from the re-trip
        clock.advance(0.5)
        assert not br.allow()

    def test_slow_probe_also_retrips(self):
        clock = FakeClock()
        br = breaker(clock)
        for _ in range(3):
            br.record_slow()
        clock.advance(1.5)
        assert br.allow()
        br.record_slow()
        assert br.state is BreakerState.OPEN

    def test_force_open_is_idempotent_on_the_open_counter(self):
        clock = FakeClock()
        br = breaker(clock)
        br.force_open()
        assert br.state is BreakerState.OPEN and br.opens == 1
        clock.advance(0.8)
        br.force_open()  # restart, not a new transition
        assert br.opens == 1
        clock.advance(0.8)  # 1.6 since first, 0.8 since restart
        assert br.state is BreakerState.OPEN

    def test_half_open_skips_the_cooloff(self):
        br = breaker(FakeClock())
        br.force_open()
        br.half_open()
        assert br.state is BreakerState.HALF_OPEN
        assert br.allow() and br.probes == 1

    def test_half_open_noop_when_closed(self):
        br = breaker(FakeClock())
        br.half_open()
        assert br.state is BreakerState.CLOSED

    @pytest.mark.parametrize(
        "kw", [dict(failure_threshold=0), dict(slow_threshold=0),
               dict(reset_after=-1.0)]
    )
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            CircuitBreaker(**kw)


class TestHealthTracker:
    def tracker(self, clock=None, **kw):
        return HealthTracker(0, clock=clock or FakeClock(), **kw)

    def test_ewma_and_quantile(self):
        h = self.tracker(ewma_alpha=0.5)
        assert h.ewma(1) is None
        assert h.quantile(1, 0.95, default=0.25) == 0.25
        h.observe(1, 0.1)
        h.observe(1, 0.3)
        assert h.ewma(1) == pytest.approx(0.2)
        for v in (0.2, 0.4, 0.5):
            h.observe(1, v)
        assert h.quantile(1, 0.0, default=0.0) == pytest.approx(0.1)
        assert h.quantile(1, 1.0, default=0.0) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            h.quantile(1, 1.5, default=0.0)

    def test_quantile_nearest_rank_and_min_samples(self):
        h = self.tracker()
        for v in (0.001, 0.002, 0.009):
            h.observe(1, v)
        # nearest-rank never rounds down: a p95 of three samples is
        # their maximum, not the median
        assert h.quantile(1, 0.95, default=0.03) == pytest.approx(0.009)
        assert h.quantile(1, 0.5, default=0.03) == pytest.approx(0.002)
        # too few samples to trust: the default still answers
        assert h.quantile(1, 0.95, default=0.03, min_samples=4) == 0.03
        for v in range(1, 18):
            h.observe(1, v / 1000)
        assert h.quantile(1, 0.95, default=0.03, min_samples=20) == (
            pytest.approx(0.016)
        )

    def test_failures_open_and_fire_callback(self):
        h = self.tracker()
        opened = []
        h.on_open = opened.append
        for _ in range(3):
            h.failure(2)
        assert h.state(2) is BreakerState.OPEN
        assert not h.allow(2)
        assert h.open_peers() == [2]
        assert opened == [2]

    def test_note_slow_strikes(self):
        h = self.tracker(slow_threshold=2)
        h.note_slow(1)
        h.note_slow(1)
        assert h.state(1) is BreakerState.OPEN

    def test_allow_counts_probes_via_callback(self):
        clock = FakeClock()
        h = self.tracker(clock=clock, reset_after=1.0)
        probes = []
        h.on_probe = probes.append
        for _ in range(3):
            h.failure(1)
        clock.advance(2.0)
        assert h.allow(1)
        assert probes == [1]
        # state() must not count probes
        assert h.state(1) is BreakerState.HALF_OPEN
        assert probes == [1]

    def test_membership_reconciliation_hooks(self):
        h = self.tracker()
        h.force_open(4)
        assert not h.allow(4)
        h.half_open(4)
        assert h.allow(4)  # the rejoin probe

    def test_validation(self):
        with pytest.raises(ValueError):
            HealthTracker(0, ewma_alpha=0.0)
        with pytest.raises(ValueError):
            HealthTracker(0, window=0)


class TestDeadline:
    def test_after_and_remaining(self):
        clock = FakeClock(50.0)
        d = Deadline.after(2.0, clock=clock)
        assert d.remaining() == pytest.approx(2.0)
        assert not d.expired()
        clock.advance(1.5)
        assert d.remaining() == pytest.approx(0.5)
        clock.advance(1.0)
        assert d.expired()
        assert d.remaining() == 0.0  # never negative

    def test_after_rejects_negative(self):
        with pytest.raises(ValueError):
            Deadline.after(-0.1)

    def test_cap(self):
        clock = FakeClock(0.0)
        d = Deadline.after(1.0, clock=clock)
        assert d.cap(5.0) == pytest.approx(1.0)
        assert d.cap(0.25) == pytest.approx(0.25)
        assert d.cap(None) == pytest.approx(1.0)

    def test_check_raises_typed_oserror(self):
        clock = FakeClock(0.0)
        d = Deadline.after(0.5, clock=clock)
        d.check("still fine", path="a/b")
        clock.advance(1.0)
        with pytest.raises(DeadlineExpiredError) as ei:
            d.check("budget spent", path="a/b")
        assert isinstance(ei.value, (OSError, TimeoutError))
        assert ei.value.errno == errno.ETIMEDOUT
        assert ei.value.filename == "a/b"

    @pytest.mark.parametrize(
        "raw,expected",
        [
            (12.5, 12.5),
            (3, 3.0),
            (True, None),  # a bool is not a deadline
            (float("nan"), None),
            (float("inf"), None),
            (-float("inf"), None),
            ("soon", None),
            (None, None),
        ],
    )
    def test_wire_deadline_validation(self, raw, expected):
        got = wire_deadline(raw)
        if expected is None:
            assert got is None
        else:
            assert got == pytest.approx(expected) and isinstance(got, float)
            assert not isinstance(got, bool)
            assert not math.isnan(got)


class TestAdmissionQueue:
    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            AdmissionQueue(0)

    def test_fifo_under_capacity(self):
        q = AdmissionQueue(4)
        for name in ("a", "b", "c"):
            assert q.push(name, None) == []
        assert [q.pop(), q.pop(), q.pop(), q.pop()] == ["a", "b", "c", None]

    def test_overflow_sheds_nearest_deadline_first(self):
        q = AdmissionQueue(2)
        q.push("late", 100.0)
        q.push("soon", 10.0)
        shed = q.push("mid", 50.0)
        assert shed == ["soon"]  # closest to expiry goes first
        assert len(q) == 2

    def test_new_item_itself_can_be_shed(self):
        q = AdmissionQueue(2)
        q.push("a", 100.0)
        q.push("b", 200.0)
        assert q.push("urgent-but-doomed", 1.0) == ["urgent-but-doomed"]
        assert [q.pop(), q.pop()] == ["a", "b"]

    def test_no_deadline_sheds_last_oldest_first(self):
        q = AdmissionQueue(2)
        q.push("old-nodl", None)
        q.push("new-nodl", None)
        shed = q.push("deadlined", 5.0)
        # entries without a deadline are shed after deadlined ones,
        # oldest arrival first among themselves — but never before a
        # deadlined entry
        assert shed == ["deadlined"]
        shed = q.push("another", None)
        assert shed == ["old-nodl"]

    def test_service_order_stays_fifo_after_shedding(self):
        q = AdmissionQueue(3)
        q.push("a", 30.0)
        q.push("b", 10.0)
        q.push("c", 20.0)
        q.push("d", 40.0)  # sheds "b"
        assert [q.pop(), q.pop(), q.pop()] == ["a", "c", "d"]


class TestBrownoutVerificationSkip:
    def _record(self, payload: bytes) -> FileRecord:
        return FileRecord(
            path="data/x",
            stat=FileStat(st_size=len(payload)).with_digest(
                blob_crc32(payload)
            ),
            compressor_id=1,
            compressed_size=len(payload),
            home_rank=0,
            partition_id=0,
        )

    def test_first_verification_always_runs(self):
        daemon = FanStoreDaemon()
        rec = self._record(b"payload")
        daemon._brownout_until = time.monotonic() + 60.0
        # never verified before: brownout must NOT skip the check
        assert not daemon._blob_ok(rec, b"corrupt")
        assert daemon.stats.brownout_skipped_verifies == 0

    def test_reverification_skipped_under_brownout(self):
        daemon = FanStoreDaemon()
        rec = self._record(b"payload")
        assert daemon._blob_ok(rec, b"payload")  # verified once, clean
        daemon._brownout_until = time.monotonic() + 60.0
        assert daemon._blob_ok(rec, b"anything goes")
        assert daemon.stats.brownout_skipped_verifies == 1
        # brownout over: the check is back
        daemon._brownout_until = 0.0
        assert not daemon._blob_ok(rec, b"anything goes")
        assert daemon.stats.brownout_skipped_verifies == 1


FAST = dict(
    request_timeout=0.3,
    max_retries=1,
    retry_backoff_base=0.01,
    retry_backoff_max=0.02,
    retry_jitter=0.0,
)


#: ``_serve_until_done`` default: swallow requests, never answer
SILENT = object()


def _serve_until_done(comm, reply=SILENT):
    """Stub server: answer every daemon request with ``reply`` (or
    swallow it when SILENT) until a 'done' kind arrives."""
    while True:
        payload, src, _tag = comm.recv_with_status(
            ANY_SOURCE, TAG_DAEMON, timeout=30
        )
        kind, body = payload
        if kind == "done":
            return None
        if reply is not SILENT:
            reply_tag = decode_request(body).reply_tag
            comm.send(reply, src, reply_tag)


class TestOverloadReplies:
    def test_every_attempt_shed_raises_server_overloaded(self):
        def body(comm):
            if comm.rank == 1:
                return _serve_until_done(comm, reply=(OVERLOAD, 0.01))
            daemon = FanStoreDaemon(comm, config=DaemonConfig(**FAST))
            with pytest.raises(ServerOverloadedError) as ei:
                daemon._request("fetch", "some/path", 1)
            comm.send(("done", None), 1, TAG_DAEMON)
            exc = ei.value
            return (
                exc.errno,
                exc.retry_after_s,
                daemon.stats.overload_backoffs,
                daemon.stats.retries,
            )

        res = run_parallel(body, 2, timeout=30)[0]
        err, retry_after, backoffs, retries = res
        assert err == errno.EAGAIN
        assert retry_after == pytest.approx(0.01)
        assert backoffs == 2  # both attempts were shed
        assert retries == 1

    def test_overload_trips_the_breaker_like_a_failure(self):
        def body(comm):
            if comm.rank == 1:
                return _serve_until_done(comm, reply=(OVERLOAD, 0.0))
            cfg = DaemonConfig(breaker_failure_threshold=2, **FAST)
            daemon = FanStoreDaemon(comm, config=cfg)
            with pytest.raises(ServerOverloadedError):
                daemon._request("fetch", "p", 1)
            comm.send(("done", None), 1, TAG_DAEMON)
            return daemon.health.state(1), daemon.stats.breaker_opens

        state, opens = run_parallel(body, 2, timeout=30)[0]
        assert state is BreakerState.OPEN
        assert opens == 1


class TestMalformedReplies:
    @pytest.mark.parametrize(
        "reply", [("garbage",), None], ids=["1-tuple", "none"]
    )
    def test_malformed_reply_is_a_failed_attempt(self, reply):
        # a reply that does not decode is charged like a timeout and
        # ends the budget as a typed error, never a bare unpack error
        def body(comm):
            if comm.rank == 1:
                return _serve_until_done(comm, reply=reply)
            daemon = FanStoreDaemon(comm, config=DaemonConfig(**FAST))
            charged = []
            failure = daemon.health.failure

            def counting_failure(peer):
                charged.append(peer)
                failure(peer)

            daemon.health.failure = counting_failure
            with pytest.raises(RetryExhaustedError) as ei:
                daemon._request("fetch", "some/path", 1)
            comm.send(("done", None), 1, TAG_DAEMON)
            return charged, daemon.stats.retries, ei.value.filename

        charged, retries, path = run_parallel(body, 2, timeout=30)[0]
        assert charged == [1, 1]  # both attempts charged to the peer
        assert retries == 1
        assert path == "some/path"


class TestDeadlineBudgetedRetries:
    def test_deadline_bounds_the_whole_retry_ladder(self):
        def body(comm):
            if comm.rank == 1:
                return _serve_until_done(comm)  # never answer
            cfg = DaemonConfig(
                request_timeout=0.15,
                max_retries=8,
                retry_backoff_base=0.01,
                retry_backoff_max=0.02,
                retry_jitter=0.0,
            )
            daemon = FanStoreDaemon(comm, config=cfg)
            t0 = time.perf_counter()
            with pytest.raises(DeadlineExpiredError) as ei:
                daemon._request(
                    "fetch", "p", 1, deadline=Deadline.after(0.4)
                )
            elapsed = time.perf_counter() - t0
            comm.send(("done", None), 1, TAG_DAEMON)
            return ei.value.errno, elapsed, daemon.stats.deadline_aborts

        err, elapsed, aborts = run_parallel(body, 2, timeout=30)[0]
        assert err == errno.ETIMEDOUT
        # 9 stacked timeouts would be >1.3 s; the deadline caps the lot
        assert elapsed < 1.0
        assert aborts == 1
