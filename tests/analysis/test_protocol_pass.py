"""protocol-conformance on fixture daemons: unhandled kinds and
request bodies that are not fenced Request envelopes."""

from __future__ import annotations

import textwrap

from tests.analysis.conftest import rules_of

CONFORMING = textwrap.dedent(
    """
    TAG_DAEMON = 0x0FA0

    class Daemon:
        def _serve(self):
            while True:
                kind, body = self.comm.recv(-1, TAG_DAEMON, timeout=None)
                if kind == "stop":
                    break
                if kind not in ("fetch", "stat", "batch"):
                    continue
                request = decode_request(body)

        def _request(self, kind, body, dest):
            reply_tag = self._next_tag()
            wire_body = Request(
                subject=body,
                reply_tag=reply_tag,
                trace_ctx=None,
                deadline=self._clock() + self.timeout,
                epoch=self._fence_token(),
            ).encode()
            self.comm.send((kind, wire_body), dest, TAG_DAEMON)
            return self.comm.recv(dest, reply_tag, timeout=self.timeout)

        def fetch(self, path):
            return self._request("fetch", path, 0)

        def stop(self):
            self.comm.send(("stop", None), 0, TAG_DAEMON)
    """
)

ENVELOPE = """\
        wire_body = Request(
            subject=body,
            reply_tag=reply_tag,
            trace_ctx=None,
            deadline=self._clock() + self.timeout,
            epoch=self._fence_token(),
        ).encode()
"""


def swap(old: str, new: str) -> str:
    """CONFORMING with one fragment replaced (which must be there)."""
    assert old in CONFORMING, old
    return CONFORMING.replace(old, new)


class TestProtocolConformance:
    def test_conforming_daemon_is_clean(self, lint_tree):
        report = lint_tree({"fanstore/daemon.py": CONFORMING})
        assert not rules_of(report, "protocol-conformance"), report.summary()

    def test_unhandled_kind_via_helper_flagged(self, lint_tree):
        src = CONFORMING + textwrap.dedent(
            """
            class Client:
                def evict(self, daemon, path):
                    return daemon._request("evict", path, 0)
            """
        )
        report = lint_tree({"fanstore/daemon.py": src})
        findings = rules_of(report, "protocol-conformance")
        assert len(findings) == 1
        assert "'evict'" in findings[0].message
        assert "wait forever" in findings[0].message

    def test_unhandled_kind_via_direct_send_flagged(self, lint_tree):
        src = swap(
            'self.comm.send(("stop", None), 0, TAG_DAEMON)',
            'self.comm.send(("halt", None), 0, TAG_DAEMON)',
        )
        report = lint_tree({"fanstore/daemon.py": src})
        findings = rules_of(report, "protocol-conformance")
        assert len(findings) == 1 and "'halt'" in findings[0].message

    def test_oversized_wire_body_flagged(self, lint_tree):
        src = swap(
            ENVELOPE,
            "        wire_body = (body, reply_tag, None, None, 0, 1)\n",
        )
        report = lint_tree({"fanstore/daemon.py": src})
        findings = rules_of(report, "protocol-conformance")
        assert len(findings) == 1
        assert "positional wire body with 6 fields" in findings[0].message

    def test_missing_fenced_form_flagged(self, lint_tree):
        # an epoch-carrying positional tuple is not a fenced form: the
        # server rejects every positional body
        src = swap(
            ENVELOPE,
            "        wire_body = (body, reply_tag, None, None,"
            " self._fence_token())\n",
        )
        report = lint_tree({"fanstore/daemon.py": src})
        findings = rules_of(report, "protocol-conformance")
        assert len(findings) == 1
        assert "build a Request(...) envelope with epoch=" in (
            findings[0].message
        )

    def test_waiver_applies(self, lint_tree):
        src = CONFORMING + textwrap.dedent(
            """
            class Client:
                def evict(self, daemon, path):
                    # lint: allow[protocol-conformance] arm lands in the next PR
                    return daemon._request("evict", path, 0)
            """
        )
        report = lint_tree({"fanstore/daemon.py": src})
        findings = rules_of(report, "protocol-conformance")
        assert findings and findings[0].waived


class TestEnvelopeConformance:
    """The typed v2 envelope is the one wire form, and it must carry the
    fencing token."""

    def test_fenced_envelope_is_clean(self, lint_tree):
        report = lint_tree({"fanstore/daemon.py": CONFORMING})
        assert not rules_of(report, "protocol-conformance"), report.summary()

    def test_unfenced_envelope_flagged(self, lint_tree):
        src = swap("            epoch=self._fence_token(),\n", "")
        report = lint_tree({"fanstore/daemon.py": src})
        findings = rules_of(report, "protocol-conformance")
        assert len(findings) == 1
        assert "without an epoch= fencing token" in findings[0].message

    def test_tuple_body_beside_envelope_flagged(self, lint_tree):
        # a fenced envelope does not excuse a positional body built next
        # to it: the server would reject that one as malformed
        src = swap(
            "        self.comm.send((kind, wire_body), dest, TAG_DAEMON)",
            "        legacy_body = (body, reply_tag)\n"
            "        self.comm.send((kind, wire_body), dest, TAG_DAEMON)",
        )
        report = lint_tree({"fanstore/daemon.py": src})
        findings = rules_of(report, "protocol-conformance")
        assert len(findings) == 1
        assert "positional wire body with 2 fields" in findings[0].message
