"""error-conventions, determinism, metric-catalogue, and
durable-write passes on fixture trees."""

from __future__ import annotations

import textwrap

from tests.analysis.conftest import rules_of

GOOD_ERRORS = textwrap.dedent(
    """
    class StoreError(Exception):
        pass

    class MissingError(StoreError, OSError):
        def __init__(self, path):
            import errno
            super().__init__(f"not found: {path}")
            self.errno = errno.ENOENT
            self.filename = path

    class StaleError(MissingError):
        pass
    """
)


class TestErrorConventions:
    def test_os_family_without_errno_init_flagged(self, lint_tree):
        src = textwrap.dedent(
            """
            class BareError(OSError):
                pass
            """
        )
        report = lint_tree({"errors.py": src})
        findings = rules_of(report, "error-conventions")
        assert len(findings) == 1
        assert "BareError" in findings[0].message
        assert "errno" in findings[0].message

    def test_inherited_init_from_project_ancestor_is_clean(self, lint_tree):
        report = lint_tree({"errors.py": GOOD_ERRORS})
        assert not rules_of(report, "error-conventions"), report.summary()

    def test_timeout_error_counts_as_os_family(self, lint_tree):
        src = textwrap.dedent(
            """
            class RetryGone(Exception, TimeoutError):
                pass
            """
        )
        report = lint_tree({"errors.py": src})
        findings = rules_of(report, "error-conventions")
        assert len(findings) == 1 and "RetryGone" in findings[0].message

    def test_non_os_raise_at_boundary_flagged(self, lint_tree):
        src = GOOD_ERRORS + textwrap.dedent(
            """
            class Client:
                def pread(self, fd, n, off):
                    if off < 0:
                        raise ValueError("negative offset")
                    raise MissingError("/x")
            """
        )
        report = lint_tree({"fanstore/client.py": src})
        findings = rules_of(report, "error-conventions")
        assert len(findings) == 1
        assert "ValueError" in findings[0].message
        assert "VFS boundary" in findings[0].message

    def test_reraise_and_non_boundary_module_clean(self, lint_tree):
        boundary = GOOD_ERRORS + textwrap.dedent(
            """
            class Client:
                def read(self):
                    try:
                        return self._go()
                    except MissingError as exc:
                        raise exc
            """
        )
        elsewhere = "def f():\n    raise ValueError('fine outside the boundary')\n"
        report = lint_tree(
            {"fanstore/client.py": boundary, "fanstore/daemon.py": elsewhere}
        )
        assert not rules_of(report, "error-conventions"), report.summary()

    def test_waiver_applies(self, lint_tree):
        src = GOOD_ERRORS + textwrap.dedent(
            """
            class Client:
                def check(self, mode):
                    if mode not in ("r", "rb"):
                        # lint: allow[error-conventions] validated before any fd exists
                        raise ValueError(mode)
            """
        )
        report = lint_tree({"fanstore/client.py": src})
        findings = rules_of(report, "error-conventions")
        assert findings and findings[0].waived


class TestDeterminism:
    def test_unseeded_sources_flagged(self, lint_tree):
        src = textwrap.dedent(
            """
            import os
            import random
            import time
            from datetime import datetime

            def drill(paths):
                r = random.random()
                t = time.time()
                d = datetime.now()
                for p in os.listdir("/data"):
                    pass
                for q in {1, 2, 3}:
                    pass
            """
        )
        report = lint_tree({"fanstore/chaos.py": src})
        messages = [f.message for f in rules_of(report, "determinism")]
        assert len(messages) == 5, "\n".join(messages)
        joined = "\n".join(messages)
        assert "random.random()" in joined
        assert "time.time()" in joined
        assert "datetime.now()" in joined
        assert "os.listdir(...)" in joined
        assert "a set literal" in joined

    def test_seeded_and_sorted_forms_clean(self, lint_tree):
        src = textwrap.dedent(
            """
            import os
            import random

            def drill(seed):
                rng = random.Random(seed)
                x = rng.random()
                for p in sorted(os.listdir("/data")):
                    pass
            """
        )
        report = lint_tree({"fanstore/corruption.py": src})
        assert not rules_of(report, "determinism"), report.summary()

    def test_out_of_scope_module_clean(self, lint_tree):
        src = "import time\nt = time.time()\n"
        report = lint_tree({"fanstore/daemon.py": src})
        assert not rules_of(report, "determinism")

    def test_waiver_applies(self, lint_tree):
        src = (
            "import time\n"
            "t = time.time()  # lint: allow[determinism] drill wall-time is reported, not replayed\n"
        )
        report = lint_tree({"simnet.py": src})
        findings = rules_of(report, "determinism")
        assert findings and findings[0].waived


CATALOGUE_DOC = textwrap.dedent(
    """
    # Observability

    | metric | type | meaning |
    |---|---|---|
    | `loader.bytes_read` | counter | bytes served |
    | `codec.<name>.decode_seconds` | histogram | decode latency |
    """
)


class TestMetricCatalogue:
    def test_undocumented_literal_flagged(self, lint_tree):
        src = textwrap.dedent(
            """
            def setup(metrics):
                metrics.counter("loader.bytes_read")
                metrics.counter("loader.bytes_dropped")
            """
        )
        report = lint_tree(
            {"docs/observability.md": CATALOGUE_DOC, "obs.py": src}
        )
        findings = rules_of(report, "metric-catalogue")
        assert len(findings) == 1
        assert "loader.bytes_dropped" in findings[0].message

    def test_fstring_matches_placeholder_row(self, lint_tree):
        src = textwrap.dedent(
            """
            def setup(metrics, name):
                metrics.histogram(f"codec.{name}.decode_seconds")
            """
        )
        report = lint_tree(
            {"docs/observability.md": CATALOGUE_DOC, "obs.py": src}
        )
        assert not rules_of(report, "metric-catalogue"), report.summary()

    def test_segment_count_must_match(self, lint_tree):
        src = textwrap.dedent(
            """
            def setup(metrics, name):
                metrics.histogram(f"codec.{name}.extra.decode_seconds")
            """
        )
        report = lint_tree(
            {"docs/observability.md": CATALOGUE_DOC, "obs.py": src}
        )
        assert len(rules_of(report, "metric-catalogue")) == 1

    def test_no_catalogue_file_skips_pass(self, lint_tree):
        src = "def setup(metrics):\n    metrics.counter('ghost.metric')\n"
        report = lint_tree({"obs.py": src})
        assert not rules_of(report, "metric-catalogue")


class TestDurableWrite:
    def test_write_mode_open_in_fanstore_flagged(self, lint_tree):
        src = textwrap.dedent(
            """
            def save(path, data):
                with open(path, "wb") as fh:
                    fh.write(data)
            """
        )
        report = lint_tree({"fanstore/writer.py": src})
        findings = rules_of(report, "durable-write")
        assert len(findings) == 1
        assert "'wb'" in findings[0].message
        assert "atomic-apply" in findings[0].message

    def test_read_mode_open_is_clean(self, lint_tree):
        src = textwrap.dedent(
            """
            def load(path):
                with open(path) as fh:
                    return fh.read()

            def load_binary(path):
                with open(path, "rb") as fh:
                    return fh.read()
            """
        )
        report = lint_tree({"fanstore/reader.py": src})
        assert not rules_of(report, "durable-write"), report.summary()

    def test_os_rename_and_write_bytes_flagged(self, lint_tree):
        src = textwrap.dedent(
            """
            import os
            from pathlib import Path

            def install(tmp, final):
                os.rename(tmp, final)

            def dump(path, data):
                Path(path).write_bytes(data)
            """
        )
        report = lint_tree({"fanstore/install.py": src})
        found = {f.message.split(" ")[0] for f in rules_of(report, "durable-write")}
        assert found == {"os.rename", ".write_bytes"}

    def test_str_replace_not_confused_with_os_replace(self, lint_tree):
        src = textwrap.dedent(
            """
            def canon(name):
                return name.replace("\\\\", "/")
            """
        )
        report = lint_tree({"fanstore/paths.py": src})
        assert not rules_of(report, "durable-write"), report.summary()

    def test_outside_fanstore_is_out_of_scope(self, lint_tree):
        src = textwrap.dedent(
            """
            def save(path, data):
                with open(path, "w") as fh:
                    fh.write(data)
            """
        )
        report = lint_tree({"training/logs.py": src})
        assert not rules_of(report, "durable-write"), report.summary()

    def test_waiver_with_reason_suppresses(self, lint_tree):
        src = textwrap.dedent(
            """
            def tear(path, data):
                with open(path, "wb") as fh:  # lint: allow[durable-write] fault injector tears bytes on purpose
                    fh.write(data[:3])
            """
        )
        report = lint_tree({"fanstore/injector.py": src})
        (finding,) = rules_of(report, "durable-write")
        assert finding.waived
        assert finding.reason == "fault injector tears bytes on purpose"
        assert not report.unwaived

    def test_dynamic_mode_out_of_scope(self, lint_tree):
        src = textwrap.dedent(
            """
            def open_as(path, mode):
                return open(path, mode)
            """
        )
        report = lint_tree({"fanstore/anymode.py": src})
        assert not rules_of(report, "durable-write"), report.summary()
