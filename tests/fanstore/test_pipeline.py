"""PR 9 concurrency suite: the pipelined scheduler.

Single-flight fetch coalescing (a miss storm runs one failover ladder),
the :meth:`DecompressedCache.get_or_compute` double-decompress fix,
per-destination request batching (parked requests flush as one envelope,
items keep their own deadlines and error isolation), a hedged miss storm
installing exactly one cache entry, and the typed wire envelope (the
one request form the daemon accepts).
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.comm.deadline import Deadline
from repro.comm.launcher import run_parallel
from repro.errors import (
    DeadlineExpiredError,
    FanStoreError,
    FileNotFoundInStoreError,
    WireFormatError,
)
from repro.fanstore.cache import DecompressedCache
from repro.fanstore.daemon import DaemonConfig, FanStoreDaemon
from repro.fanstore.layout import FileStat, blob_crc32
from repro.fanstore.metadata import FileRecord
from repro.fanstore.pipeline import PipelineConfig, SingleFlight
from repro.fanstore.wire import (
    EXPIRED,
    FAILED,
    OVERLOAD,
    WIRE_MAGIC,
    WIRE_VERSION,
    Reply,
    Request,
    decode_batch_reply,
    decode_reply,
    decode_request,
    encode_batch_reply,
)


def _record(path: str, payload: bytes, home_rank: int = 0) -> FileRecord:
    # compressor 1 is memcpy: "compressed" and plain bytes coincide, so
    # these records round-trip through the real decompress path
    return FileRecord(
        path=path,
        stat=FileStat(st_size=len(payload)).with_digest(blob_crc32(payload)),
        compressor_id=1,
        compressed_size=len(payload),
        home_rank=home_rank,
        partition_id=0,
    )


#: quick retries but a generous per-attempt budget: the batching tests
#: must never fall back to the classic ladder because of a slow CI box.
CALM = dict(
    request_timeout=2.0,
    max_retries=1,
    retry_backoff_base=0.01,
    retry_backoff_max=0.02,
    retry_jitter=0.0,
)


# -- the typed wire envelope ----------------------------------------------


class TestWireEnvelope:
    def test_v2_round_trip(self):
        req = Request(
            subject="train/x",
            reply_tag=0x1007,
            trace_ctx=("trace", 1),
            deadline=1234.5,
            epoch=3,
            batch=(("fetch", "train/x", None),),
        )
        assert decode_request(req.encode()) == req

    def test_magic_stays_out_of_the_path_value_space(self):
        # normalized paths never contain NULs, so no (subject, ...) body
        # can pass for an envelope
        assert "\x00" in WIRE_MAGIC

    def test_newer_version_decodes_known_prefix(self):
        body = Request(subject="p", reply_tag=1, epoch=2).encode()
        body = (body[0], WIRE_VERSION + 1) + body[2:] + ("future-field",)
        req = decode_request(body)
        assert req.subject == "p"
        assert req.reply_tag == 1
        assert req.epoch == 2

    def test_older_version_rejected(self):
        body = Request(subject="p", reply_tag=1).encode()
        with pytest.raises(WireFormatError):
            decode_request((body[0], WIRE_VERSION - 1) + body[2:])

    def test_truncated_envelope_rejected(self):
        body = Request(subject="p", reply_tag=1).encode()
        with pytest.raises(WireFormatError):
            decode_request(body[:6])

    @pytest.mark.parametrize(
        "field,value",
        [
            ("reply_tag", -1),
            ("reply_tag", True),
            ("reply_tag", "seven"),
            ("epoch", "stale"),
            ("epoch", True),
            ("batch", ["not", "a", "tuple"]),
        ],
    )
    def test_hostile_fields_rejected(self, field, value):
        body = list(Request(subject="p", reply_tag=7).encode())
        body[{"reply_tag": 3, "epoch": 6, "batch": 7}[field]] = value
        with pytest.raises(WireFormatError):
            decode_request(tuple(body))

    @pytest.mark.parametrize(
        "body",
        [
            ("p", 9),
            ("p", 9, ("ctx",)),
            ("p", 9, None, 55.0),
            ("p", 9, None, 55.0, 4),
            ("p", 9, None, 55.0, 4, "extra"),
            12345,
        ],
        ids=["2-tuple", "3-tuple", "4-tuple", "5-tuple", "6-tuple",
             "non-tuple"],
    )
    def test_hostile_bodies_rejected(self, body):
        # positional bodies are not envelopes: the server counts them
        # malformed rather than guessing at their fields
        with pytest.raises(WireFormatError):
            decode_request(body)

    def test_replies_stay_legacy_shaped(self):
        assert Reply(Reply.OK, b"d").encode() == (True, b"d")
        assert Reply(Reply.MISS, "p").encode() == (False, "p")
        assert Reply(Reply.OVERLOAD, 0.5).encode() == (OVERLOAD, 0.5)
        assert Reply(Reply.EXPIRED, "p").encode() == (EXPIRED, "p")
        assert Reply(Reply.FAILED, "p").encode() == (FAILED, "p")

    def test_reply_round_trip_and_unknown_marker(self):
        for reply in (
            Reply(Reply.OK, b"x"),
            Reply(Reply.MISS, None),
            Reply(Reply.EXPIRED, "p"),
        ):
            assert decode_reply(reply.encode()) == reply
        for raw in (("__mystery__", None), ([], None), (1, b"x")):
            with pytest.raises(WireFormatError):
                decode_reply(raw)

    def test_batch_reply_round_trip(self):
        replies = [
            Reply(Reply.OK, b"a"),
            Reply(Reply.FAILED, "p"),
            Reply(Reply.MISS, "q"),
        ]
        assert decode_batch_reply(encode_batch_reply(replies)) == replies

    def test_non_batch_reply_decodes_to_none(self):
        assert decode_batch_reply((True, b"payload")) is None
        assert decode_batch_reply((OVERLOAD, 0.1)) is None


# -- the single-flight primitive ------------------------------------------


class TestSingleFlightPrimitive:
    def test_followers_share_one_execution(self):
        flight = SingleFlight()
        entered = threading.Event()
        release = threading.Event()
        runs = []

        def work():
            runs.append(1)
            entered.set()
            assert release.wait(10)
            return "value"

        out = []
        lead = threading.Thread(target=lambda: out.append(flight.run("k", work)))
        lead.start()
        assert entered.wait(10)
        follow = threading.Thread(
            target=lambda: out.append(flight.run("k", lambda: "other"))
        )
        follow.start()
        time.sleep(0.1)
        release.set()
        lead.join(10)
        follow.join(10)
        assert len(runs) == 1
        assert sorted(out) == [("value", False), ("value", True)]

    def test_follower_timeout_is_bare_timeout_error(self):
        flight = SingleFlight()
        release = threading.Event()
        lead = threading.Thread(
            target=lambda: flight.run("k", lambda: release.wait(10))
        )
        lead.start()
        stop_at = time.monotonic() + 5
        while not flight._flights:
            assert time.monotonic() < stop_at
            time.sleep(0.001)
        with pytest.raises(TimeoutError):
            flight.run("k", lambda: None, timeout=0.05)
        release.set()
        lead.join(10)

    def test_fresh_flight_after_completion(self):
        flight = SingleFlight()
        assert flight.run("k", lambda: 1) == (1, True)
        assert flight.run("k", lambda: 2) == (2, True)


# -- fetch coalescing through the daemon ----------------------------------


class TestFetchCoalescing:
    def test_miss_storm_runs_one_ladder(self):
        daemon = FanStoreDaemon()
        calls = []
        entered = threading.Event()
        release = threading.Event()

        def ladder(norm, deadline=None):
            calls.append(norm)
            entered.set()
            assert release.wait(10)
            return b"compressed"

        daemon._fetch_ladder = ladder
        n = 8
        start = threading.Barrier(n)
        results: list[bytes] = []
        errors: list[Exception] = []

        def worker():
            start.wait(10)
            try:
                results.append(daemon.fetch_compressed("train/x"))
            except Exception as exc:  # pragma: no cover - fails the test
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(n)]
        for t in threads:
            t.start()
        assert entered.wait(10)
        time.sleep(0.25)  # let every follower park on the flight
        release.set()
        for t in threads:
            t.join(10)
        assert not errors, errors
        assert calls == ["train/x"]  # exactly one upstream fetch
        assert results == [b"compressed"] * n
        assert daemon.metrics.get("daemon.pipeline.coalesced_fetches").value == n - 1

    def test_coalesce_off_runs_every_ladder(self):
        # coalesce=False is the pre-pipelining contract: every caller
        # runs its own ladder with fully independent errors
        daemon = FanStoreDaemon(
            config=DaemonConfig(pipeline=PipelineConfig(coalesce=False))
        )
        calls = []
        gate = threading.Barrier(4)

        def ladder(norm, deadline=None):
            gate.wait(10)  # hold every ladder open concurrently
            calls.append(norm)
            return b"compressed"

        daemon._fetch_ladder = ladder
        start = threading.Barrier(4)
        results: list[bytes] = []

        def worker():
            start.wait(10)
            results.append(daemon.fetch_compressed("train/x"))

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10)
        assert calls == ["train/x"] * 4  # no sharing at all
        assert results == [b"compressed"] * 4
        assert daemon.metrics.get("daemon.pipeline.coalesced_fetches").value == 0

    def test_follower_deadline_aborts_alone(self):
        daemon = FanStoreDaemon()
        entered = threading.Event()
        release = threading.Event()

        def ladder(norm, deadline=None):
            entered.set()
            assert release.wait(10)
            return b"payload"

        daemon._fetch_ladder = ladder
        out = {}
        lead = threading.Thread(
            target=lambda: out.setdefault("v", daemon.fetch_compressed("t/x"))
        )
        lead.start()
        assert entered.wait(10)
        before = daemon.stats.deadline_aborts
        with pytest.raises(DeadlineExpiredError):
            daemon.fetch_compressed("t/x", deadline=Deadline.after(0.05))
        assert daemon.stats.deadline_aborts == before + 1
        release.set()
        lead.join(10)
        assert out["v"] == b"payload"  # the flight ran on unharmed

    def test_leader_error_shared_with_followers(self):
        daemon = FanStoreDaemon()
        entered = threading.Event()
        release = threading.Event()

        def ladder(norm, deadline=None):
            entered.set()
            assert release.wait(10)
            raise FileNotFoundInStoreError(norm)

        daemon._fetch_ladder = ladder
        errors: list[Exception] = []

        def worker():
            try:
                daemon.fetch_compressed("t/y")
            except FileNotFoundInStoreError as exc:
                errors.append(exc)

        lead = threading.Thread(target=worker)
        lead.start()
        assert entered.wait(10)
        follow = threading.Thread(target=worker)
        follow.start()
        time.sleep(0.1)
        release.set()
        lead.join(10)
        follow.join(10)
        assert len(errors) == 2
        assert errors[0] is errors[1]  # shared instance, by contract


# -- the cache double-decompress fix --------------------------------------


class TestCacheGetOrCompute:
    def test_miss_storm_decompresses_once(self):
        cache = DecompressedCache(1 << 20)
        runs = []
        entered = threading.Event()
        release = threading.Event()

        def factory():
            runs.append(1)
            entered.set()
            assert release.wait(10)
            return b"plain-bytes"

        n = 6
        start = threading.Barrier(n)
        got: list[bytes] = []

        def worker():
            start.wait(10)
            got.append(cache.get_or_compute("d/x", factory))

        threads = [threading.Thread(target=worker) for _ in range(n)]
        for t in threads:
            t.start()
        assert entered.wait(10)
        time.sleep(0.2)
        release.set()
        for t in threads:
            t.join(10)
        assert len(runs) == 1  # the race used to decompress N times
        assert got == [b"plain-bytes"] * n
        assert cache.refcount("d/x") == n  # every waiter holds its own pin
        assert cache.stats.singleflight_leaders == 1
        # every non-leader scores exactly one hit: followers on their
        # post-flight reopen, late arrivals on their first open
        assert cache.stats.hits == n - 1
        assert cache.stats.misses == 1 + cache.stats.singleflight_followers

    def test_leader_failure_shared_then_fresh_flight(self):
        cache = DecompressedCache(1 << 20)
        boom = FanStoreError("decompress failed")
        entered = threading.Event()
        release = threading.Event()

        def failing():
            entered.set()
            assert release.wait(10)
            raise boom

        errors: list[Exception] = []

        def worker():
            try:
                cache.get_or_compute("d/y", failing)
            except FanStoreError as exc:
                errors.append(exc)

        lead = threading.Thread(target=worker)
        lead.start()
        assert entered.wait(10)
        follow = threading.Thread(target=worker)
        follow.start()
        time.sleep(0.1)
        release.set()
        lead.join(10)
        follow.join(10)
        assert errors == [boom, boom]  # one failure, shared
        # the failed flight left the table: the next caller leads anew
        assert cache.get_or_compute("d/y", lambda: b"ok") == b"ok"
        # only the successful round installs (and counts) a leader
        assert cache.stats.singleflight_leaders == 1


# -- server-side batch items ----------------------------------------------


class TestServeBatchItems:
    def _daemon(self, payload: bytes = b"batch-payload"):
        daemon = FanStoreDaemon()
        daemon.metadata.insert(_record("data/good", payload))
        daemon.backend.put("data/good", payload)
        return daemon, payload

    def test_live_fetch_and_stat_items_served(self):
        daemon, payload = self._daemon()
        fetched = daemon._serve_batch_item(("fetch", "data/good", None))
        assert fetched.status == Reply.OK
        assert bytes(fetched.value) == payload
        stat = daemon._serve_batch_item(("stat", "data/good", None))
        assert stat.status == Reply.OK
        assert stat.value.path == "data/good"

    def test_expired_item_dropped_not_served(self):
        daemon, _ = self._daemon()
        reply = daemon._serve_batch_item(
            ("fetch", "data/good", time.monotonic() - 1.0)
        )
        assert reply.status == Reply.EXPIRED
        assert daemon.stats.deadline_expired_drops == 1
        # a live deadline still serves
        live = daemon._serve_batch_item(
            ("fetch", "data/good", time.monotonic() + 30.0)
        )
        assert live.status == Reply.OK

    def test_missing_paths_answer_miss(self):
        daemon, _ = self._daemon()
        assert daemon._serve_batch_item(
            ("fetch", "data/absent", None)
        ).status == Reply.MISS
        assert daemon._serve_batch_item(
            ("stat", "data/absent", None)
        ).status == Reply.MISS

    def test_poisoned_item_fails_alone(self):
        daemon, payload = self._daemon()
        batch = [
            ("fetch", 12345, None),  # poisoned: subject is not a path
            ("fetch", "data/good", None),
            ("fetch",),  # malformed: not an item triple
        ]
        replies = [daemon._serve_batch_item(item) for item in batch]
        assert [r.status for r in replies] == [
            Reply.FAILED,
            Reply.OK,
            Reply.FAILED,
        ]
        assert bytes(replies[1].value) == payload
        assert daemon.stats.malformed_requests == 2

    def test_mutating_kinds_never_batch(self):
        daemon, _ = self._daemon()
        reply = daemon._serve_batch_item(
            ("write_meta", _record("data/new", b"x"), None)
        )
        assert reply.status == Reply.FAILED
        assert daemon.stats.malformed_requests == 1


# -- client-side batching, end to end -------------------------------------


PAYLOADS = {f"train/f{i}": b"payload-%d" % i * 4 for i in range(3)}


def _park_all(daemon, batcher, jobs):
    """Start one thread per job while the baton is held (so every
    request parks), wait until all are parked, then hand the baton over
    to elect a flush leader."""
    results: dict[str, tuple] = {}
    errors: list[Exception] = []

    def worker(name, kind, subject):
        try:
            results[name] = daemon._batched_request(
                kind, subject, 1, deadline=Deadline.after(10)
            )
        except Exception as exc:  # pragma: no cover - fails the test
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(name, kind, subject))
        for name, (kind, subject) in jobs.items()
    ]
    for t in threads:
        t.start()
    stop_at = time.monotonic() + 5
    while len(batcher.pending) < len(jobs):
        assert time.monotonic() < stop_at, "tickets never parked"
        time.sleep(0.005)
    daemon._pass_baton(batcher)  # elect a flush leader
    for t in threads:
        t.join(15)
    return results, errors


class TestBatchedRequests:
    def test_parked_requests_flush_as_one_envelope(self):
        def body(comm):
            daemon = FanStoreDaemon(comm, config=DaemonConfig(**CALM))
            if comm.rank == 1:
                for path, blob in PAYLOADS.items():
                    daemon.metadata.insert(_record(path, blob, home_rank=1))
                    daemon.backend.put(path, blob)
                daemon.start()
                comm.barrier(timeout=30)
                daemon.stop()
                return daemon.metrics.get("daemon.batch.served").value
            batcher = daemon._batcher(1)
            with batcher.lock:
                batcher.busy = True  # hold the baton: callers must park
            jobs = {p: ("fetch", p) for p in PAYLOADS}
            results, errors = _park_all(daemon, batcher, jobs)
            comm.barrier(timeout=30)
            assert not errors, errors
            return (
                results,
                daemon.metrics.get("daemon.batch.flushes").value,
                daemon.metrics.get("daemon.batch.items").value,
            )

        out = run_parallel(body, 2, timeout=60)
        results, flushes, items = out[0]
        for path, blob in PAYLOADS.items():
            ok, data = results[path]
            assert ok is True
            assert bytes(data) == blob
        assert flushes == 1  # one envelope carried all three requests
        assert items == len(PAYLOADS)
        assert out[1] == 1  # the server saw exactly one batched envelope

    def test_one_flush_mixes_kinds_and_isolates_misses(self):
        good = "train/f0"
        blob = PAYLOADS[good]

        def body(comm):
            daemon = FanStoreDaemon(comm, config=DaemonConfig(**CALM))
            if comm.rank == 1:
                daemon.metadata.insert(_record(good, blob, home_rank=1))
                daemon.backend.put(good, blob)
                daemon.start()
                comm.barrier(timeout=30)
                daemon.stop()
                return None
            batcher = daemon._batcher(1)
            with batcher.lock:
                batcher.busy = True
            jobs = {
                "fetch-hit": ("fetch", good),
                "fetch-miss": ("fetch", "train/absent"),
                "stat-hit": ("stat", good),
            }
            results, errors = _park_all(daemon, batcher, jobs)
            comm.barrier(timeout=30)
            assert not errors, errors
            return results, daemon.metrics.get("daemon.batch.flushes").value

        results, flushes = run_parallel(body, 2, timeout=60)[0]
        ok, data = results["fetch-hit"]
        assert ok is True
        assert bytes(data) == blob
        ok, _ = results["fetch-miss"]
        assert ok is False  # the miss hurt only its own waiter
        ok, rec = results["stat-hit"]
        assert ok is True
        assert rec.path == good
        assert flushes == 1

    def test_parked_ticket_deadline_aborts_alone(self):
        def body(comm):
            if comm.rank == 1:
                comm.barrier(timeout=30)
                return None
            daemon = FanStoreDaemon(comm, config=DaemonConfig(**CALM))
            batcher = daemon._batcher(1)
            with batcher.lock:
                batcher.busy = True  # baton never returns in time
            caught: list[Exception] = []

            def worker():
                try:
                    daemon._batched_request(
                        "fetch", "p", 1, deadline=Deadline.after(0.05)
                    )
                except DeadlineExpiredError as exc:
                    caught.append(exc)

            t = threading.Thread(target=worker)
            t.start()
            t.join(10)
            aborts = daemon.stats.deadline_aborts
            daemon._pass_baton(batcher)  # must skip the cancelled ticket
            with batcher.lock:
                busy = batcher.busy
            comm.barrier(timeout=30)
            return len(caught), aborts, busy

        n_caught, aborts, busy = run_parallel(body, 2, timeout=60)[0]
        assert n_caught == 1
        assert aborts == 1
        assert busy is False  # the baton retired cleanly


# -- hedged reads through the single-flight layer -------------------------


class TestHedgedMissStorm:
    def test_hedged_miss_storm_installs_once(self):
        path = "train/hedged"
        blob = b"hedged-payload" * 8

        def body(comm):
            cfg = DaemonConfig(hedge_reads=True, hedge_after_s=0.001, **CALM)
            daemon = FanStoreDaemon(comm, config=cfg)
            daemon.metadata.insert(_record(path, blob, home_rank=1))
            daemon.metadata.add_replica(path, 2)
            if comm.rank != 0:
                daemon.backend.put(path, blob)
                daemon.start()
                comm.barrier(timeout=60)
                daemon.stop()
                return None
            n = 6
            start = threading.Barrier(n)
            got: list[bytes] = []
            errors: list[Exception] = []

            def worker():
                start.wait(10)
                try:
                    got.append(daemon.open_file(path))
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [threading.Thread(target=worker) for _ in range(n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30)
            comm.barrier(timeout=60)
            assert not errors, errors
            for _ in got:
                daemon.close_file(path)
            return (
                [bytes(b) for b in got],
                daemon.stats.remote_fetches,
                daemon.stats.decompressions,
                daemon.cache.stats.singleflight_leaders,
                daemon.cache.stats.hits,
            )

        out = run_parallel(body, 3, timeout=90)
        blobs, remote_fetches, decompressions, leaders, hits = out[0]
        assert blobs == [blob] * 6
        assert remote_fetches == 1  # the storm left the rank exactly once
        assert decompressions == 1  # and decompressed exactly once
        assert leaders == 1  # one cache install
        assert hits == 5  # everyone else shared it


# -- the knob group -------------------------------------------------------


class TestPipelineKnobs:
    def test_defaults_form_a_coherent_group(self):
        cfg = DaemonConfig()
        assert cfg.pipeline.pipeline_workers == 4
        assert cfg.pipeline.max_inflight == 32
        assert cfg.pipeline.batch_max == 16
        assert cfg.pipeline.batch_linger == 0.0  # opportunistic batching
        assert cfg.pipeline.coalesce is True

    @pytest.mark.parametrize(
        "bad",
        [
            dict(pipeline_workers=-1),
            dict(max_inflight=0),
            dict(batch_max=0),
            dict(batch_linger=-0.1),
        ],
    )
    def test_validation_rejects_nonsense(self, bad):
        with pytest.raises(FanStoreError):
            PipelineConfig(**bad)

    def test_unknown_kwarg_rejected(self):
        with pytest.raises(TypeError, match="bogus_knob"):
            FanStoreDaemon(bogus_knob=1)

    def test_legacy_scheduler_kwargs_rejected(self):
        # the scheduler knobs live on DaemonConfig(pipeline=...), not on
        # the daemon's constructor
        for knob in ("pipeline_workers", "batch_max"):
            with pytest.raises(TypeError, match=knob):
                FanStoreDaemon(**{knob: 1})
