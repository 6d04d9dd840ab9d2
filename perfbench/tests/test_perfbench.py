"""Tests of the benchmark itself: tiny runs of every workload emit
every metric BENCHMARK.json names, the checker catches wrong bytes,
the span analysis computes self time, and the command refuses to run
without the program's source.

Run from the repository root: ``PYTHONPATH=src python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench.harness import (
    END_TO_END,
    PER_LAYER,
    Bench,
    Epoch,
    Phase,
    SampleChecker,
    digest,
    timings,
)
from perfbench.tracing import (
    Patches,
    Span,
    SpanRecorder,
    Window,
    layer_metrics,
    self_times,
)
from perfbench.workloads import WORKLOADS, provenance

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

#: the metrics where a larger value is better; every other is lower-better
HIGHER_IS_BETTER = {
    "samples_per_s", "compression_ratio", "cache.hit_ratio",
    "codec.decode_mb_s", "trace.overhead_x",
}


def tiny(name: str):
    """The workload at a size that runs in about a second."""
    spec = WORKLOADS[name]
    files = 8 if spec.dataset == "em" else 32
    return dataclasses.replace(
        spec, num_files=files, file_bytes=min(spec.file_bytes, 4096),
        setup_reps=2,
    )


def test_metric_lists_match_benchmark_json():
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == [
        name for name, _ in END_TO_END]
    assert [m["unit"] for m in BENCHMARK["end_to_end"]] == [
        unit for _, unit in END_TO_END]
    assert [m["name"] for m in BENCHMARK["per_layer"]] == [
        name for name, _ in PER_LAYER]
    assert [m["unit"] for m in BENCHMARK["per_layer"]] == [
        unit for _, unit in PER_LAYER]
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        want = "higher" if metric["name"] in HIGHER_IS_BETTER else "lower"
        assert metric["better"] == want, metric["name"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in BENCHMARK["workloads"]] == [
        w.why for w in WORKLOADS.values()]


def test_provenance_record_is_current():
    recorded = json.loads((ROOT / "perfbench" / "provenance.json").read_text())
    assert recorded["workloads"] == provenance()["workloads"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_untraced_run_emits_every_end_to_end_metric(name, tmp_path):
    result = Bench(tiny(name), 3, tmp_path).run_untraced(0.3)
    assert result.correct and result.failed == 0 and result.attempted > 0
    assert list(result.metrics) == [n for n, _ in END_TO_END]
    assert all(value > 0 for value, _ in result.metrics.values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_traced_run_emits_every_per_layer_metric(name, tmp_path):
    dump = tmp_path / "trace.jsonl"
    result = Bench(tiny(name), 3, tmp_path / "work").run_traced(0.6, dump)
    assert result.correct and result.failed == 0
    assert list(result.metrics) == [n for n, _ in PER_LAYER]
    metrics = {k: v for k, (v, _) in result.metrics.items()}
    assert metrics["codec.decode_s"] > 0
    assert 0 <= metrics["trace.unattributed_frac"] < 1
    header = json.loads(dump.read_text().splitlines()[0])
    assert header["fields"][:4] == ["span_id", "parent_id", "request_id", "name"]
    if WORKLOADS[name].backend == "disk":
        assert metrics["journal.fsyncs"] > 0
        assert metrics["daemon.write_meta_forwards"] > 0


def test_timings_are_scaled_to_the_reference_host():
    # an epoch run while the host was twice as fast as the reference
    fast = Epoch(samples=100, seconds=1.0, read_ms=np.full(100, 2.0),
                 write_ms=[1.0], scale=2.0)
    slow = Epoch(samples=50, seconds=1.0, read_ms=np.full(50, 4.0),
                 write_ms=[2.0], scale=1.0)
    values = timings([Phase(epochs=[fast, slow])])
    assert values["samples_per_s"] == pytest.approx(150 / 3.0)
    assert values["read_mean_ms"] == pytest.approx(4.0)
    assert values["write_p90_ms"] == pytest.approx(2.0)


def test_checker_counts_a_wrong_sample():
    checker = SampleChecker({"a": digest(b"right"), "b": digest(b"also")})
    assert checker.check("a", b"right")
    assert not checker.check("b", b"wrong")
    assert not checker.check("unknown", b"right")
    assert (checker.attempted, checker.failed) == (3, 2)


class _TamperedBench(Bench):
    """Changes one raw file after its digest was taken, so the store
    serves bytes that differ from the generated sample."""

    def generate(self) -> None:
        super().generate()
        victim = sorted(p for p in self.raw.rglob("*") if p.is_file())[0]
        victim.write_bytes(victim.read_bytes()[::-1])


def test_an_injected_wrong_sample_fails_the_run(tmp_path):
    result = _TamperedBench(tiny("epoch-lz4"), 3, tmp_path).run_untraced(0.2)
    assert not result.correct
    assert result.failed > 0
    assert any("differ" in note for note in result.notes)


def test_a_failed_read_fails_the_run(tmp_path, monkeypatch):
    from repro.errors import FanStoreError
    from repro.fanstore.client import FanStoreClient

    read_file = FanStoreClient.read_file
    calls = []

    def flaky(self, path):
        calls.append(path)
        if len(calls) == 3:
            raise FanStoreError(f"{path}: injected read failure")
        return read_file(self, path)

    monkeypatch.setattr(FanStoreClient, "read_file", flaky)
    result = Bench(tiny("epoch-lz4"), 3, tmp_path).run_untraced(0.2)
    assert not result.correct
    assert result.failed == 1
    assert any("injected read failure" in note for note in result.notes)


def test_a_missing_patch_point_stops_the_traced_run(monkeypatch):
    from repro.fanstore.client import FanStoreClient

    monkeypatch.setattr(
        "perfbench.tracing.patch_points",
        lambda: [(FanStoreClient, "no_such_entry", "client.gone", {})],
    )
    with pytest.raises(LookupError, match="FanStoreClient.no_such_entry"):
        Patches(SpanRecorder())


def test_self_time_subtracts_children():
    spans = [
        Span(1, None, 7, "client.read_file", 0.0, 10.0, 1, 0, None),
        Span(2, 1, 7, "daemon.open_file", 1.0, 9.0, 1, 0, None),
        Span(3, 2, 7, "codec.decode", 2.0, 7.0, 1, 100, None),
    ]
    assert self_times(spans) == {1: 2.0, 2: 3.0, 3: 5.0}
    metrics = layer_metrics(spans, [Window(1, 0.0, 20.0)], 1, {})
    assert metrics["trace.unattributed_frac"] == pytest.approx(0.5)
    assert metrics["self_share.codec"] == pytest.approx(0.5)
    assert metrics["daemon.open_self_s"] == pytest.approx(3.0)
    assert metrics["codec.decode_mb_s"] == pytest.approx(100 / 5.0 / 1e6)


def test_command_fails_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload",
         "epoch-lz4", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
