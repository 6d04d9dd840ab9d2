"""Daemon service-loop robustness under malformed traffic."""

from __future__ import annotations

import pytest

from repro.comm.launcher import run_parallel
from repro.fanstore.daemon import TAG_DAEMON
from repro.fanstore.store import FanStore, FanStoreOptions
from repro.fanstore.wire import Reply, Request, decode_reply


class TestMalformedMessages:
    def test_service_survives_garbage(self, prepared_dataset):
        """Garbage on the daemon tag must be counted, not fatal: the
        daemon keeps serving fetches afterwards."""

        def body(comm):
            with FanStore(prepared_dataset, FanStoreOptions(comm=comm)) as fs:
                peer = (comm.rank + 1) % comm.size
                # four flavours of garbage at the peer's daemon; the
                # last is a positional body, which is not an envelope
                comm.send("not a tuple", peer, TAG_DAEMON)
                comm.send(("unknown-kind", None), peer, TAG_DAEMON)
                comm.send((1, 2, 3), peer, TAG_DAEMON)
                comm.send(
                    ("fetch", ("train/x", 0x7000 + comm.rank)),
                    peer,
                    TAG_DAEMON,
                )
                comm.barrier()
                # the daemon must still answer real requests
                total = 0
                for rec in fs.daemon.metadata.walk_files():
                    total += len(fs.client.read_file(rec.path))
                comm.barrier()
                return total, fs.daemon.stats.malformed_requests

        results = run_parallel(body, 3, timeout=60)
        totals = {t for t, _ in results}
        assert len(totals) == 1
        # all four flavours were counted: the garbage went out before
        # this rank's own fetches to the same daemon, which it admits
        # in arrival order
        assert all(m >= 4 for _, m in results)

    def test_fetch_for_missing_path_answers_not_found(self, prepared_dataset):
        def body(comm):
            with FanStore(prepared_dataset, FanStoreOptions(comm=comm)) as fs:
                peer = (comm.rank + 1) % comm.size
                reply_tag = 0x7000 + comm.rank
                request = Request(
                    subject="no/such/file", reply_tag=reply_tag, deadline=None
                )
                comm.send(("fetch", request.encode()), peer, TAG_DAEMON)
                reply = decode_reply(comm.recv(peer, reply_tag, timeout=20))
                comm.barrier()
                return reply.status

        assert run_parallel(body, 2, timeout=60) == [Reply.MISS] * 2
