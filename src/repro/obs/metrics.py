"""Per-rank metrics: counters, gauges, fixed-bucket latency histograms.

Design constraints, in order:

1. **Hot-path cost.** A cached FanStore read is ~20 µs end to end, so
   the instrumentation the daemon leaves permanently on (counter
   arithmetic) must cost nothing beyond what the pre-existing
   ``DaemonStats`` bag already paid. The registry therefore supports
   *bound* metrics: the value lives as a plain attribute on the stats
   object (``stats.retries += 1`` stays a bare int add under the GIL)
   and the registry merely knows how to read — and write — it. Plain
   :class:`Counter`/:class:`Gauge`/:class:`Histogram` objects exist for
   the paths that are not microsecond-hot (write path, scrubber,
   trainer, sampled read phases).
2. **Lock discipline.** The registry lock guards only metric
   *creation*; updates are bare ``+=`` on ints/floats, the same
   GIL-atomicity contract the existing stats dataclasses rely on.
   Snapshots may therefore be a few updates stale — fine for metrics.
3. **Mergeability.** Snapshots from different ranks merge into one
   cluster view: counters sum, gauges keep the max, histograms with
   identical bucket edges add bucket-wise. That is what ``fanstore-top``
   renders and what the CI observability job asserts on.

Wire format: one JSON object per line (JSONL), flat::

    {"rank": 0, "label": "bench", "name": "daemon.local_opens",
     "type": "counter", "value": 24}

Histogram lines additionally carry ``edges``/``buckets``/``count``/
``sum``/``min``/``max``. The catalogue of metric names lives in
``docs/observability.md`` and is linted by ``tests/obs``.
"""

from __future__ import annotations

import json
import math
import threading
import weakref
from bisect import bisect_left
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping

from repro.errors import ReproError


class ObservabilityError(ReproError):
    """Misuse of the metrics/tracing API (name clashes, bad merges)."""


#: default latency bucket edges: a 1-2-5 ladder from 1 µs to 100 s.
#: The upper edge of each bucket is its label (``le`` semantics); one
#: implicit overflow bucket catches everything past the last edge.
DEFAULT_LATENCY_EDGES: tuple[float, ...] = tuple(
    m * (10.0 ** d) for d in range(-6, 2) for m in (1.0, 2.0, 5.0)
) + (100.0,)


class Counter:
    """A monotonically increasing value. ``inc()`` is unlocked by
    design — int ``+=`` is GIL-atomic enough for metrics."""

    kind = "counter"
    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int | float = 1) -> None:
        self.value += amount

    def to_dict(self) -> dict:
        return {"name": self.name, "type": self.kind, "value": self.value}


class BoundCounter:
    """A counter whose storage is an attribute of another object.

    This is how the stats dataclasses (``DaemonStats``,
    ``CacheStats``, ``MembershipStats``) fold into the registry without
    touching their hot ``+=`` sites: the dataclass field *is* the
    counter cell; the registry reads (and can write) through it.
    """

    kind = "counter"
    __slots__ = ("name", "_obj", "_attr")

    def __init__(self, name: str, obj: Any, attr: str) -> None:
        if not hasattr(obj, attr):
            raise ObservabilityError(
                f"{name}: {type(obj).__name__} has no attribute {attr!r}"
            )
        self.name = name
        self._obj = obj
        self._attr = attr

    @property
    def value(self) -> int | float:
        return getattr(self._obj, self._attr)

    def inc(self, amount: int | float = 1) -> None:
        setattr(self._obj, self._attr, getattr(self._obj, self._attr) + amount)

    def to_dict(self) -> dict:
        return {"name": self.name, "type": self.kind, "value": self.value}


class Gauge:
    """A point-in-time value (resident bytes, view epoch, ...)."""

    kind = "gauge"
    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: int | float = 0

    def set(self, value: int | float) -> None:
        self.value = value

    def to_dict(self) -> dict:
        return {"name": self.name, "type": self.kind, "value": self.value}


class BoundGauge:
    """A gauge read from an attribute (or property) of another object,
    or from a zero-argument callable — evaluated at snapshot time, so
    the instrumented object never has to push updates."""

    kind = "gauge"
    __slots__ = ("name", "_obj", "_attr", "_fn")

    def __init__(
        self,
        name: str,
        obj: Any = None,
        attr: str | None = None,
        fn: Callable[[], float] | None = None,
    ) -> None:
        if (fn is None) == (obj is None):
            raise ObservabilityError(f"{name}: bind either obj/attr or fn")
        self.name = name
        self._obj = obj
        self._attr = attr
        self._fn = fn

    @property
    def value(self) -> int | float:
        if self._fn is not None:
            return self._fn()
        return getattr(self._obj, self._attr)  # type: ignore[arg-type]

    def to_dict(self) -> dict:
        return {"name": self.name, "type": self.kind, "value": self.value}


class Histogram:
    """Fixed-bucket latency histogram with ``le`` (≤ upper edge)
    semantics plus an implicit overflow bucket.

    ``observe()`` is deliberately bare — one bisect over ~25 floats,
    five unlocked updates — because the daemon calls it on sampled hot
    reads. Concurrent observers can therefore lose an update under
    pathological interleaving; metrics-grade accuracy, same contract as
    every other counter in this repo.
    """

    kind = "histogram"
    __slots__ = ("name", "edges", "buckets", "count", "sum", "min", "max")

    def __init__(
        self, name: str, edges: Iterable[float] = DEFAULT_LATENCY_EDGES
    ) -> None:
        self.name = name
        self.edges: tuple[float, ...] = tuple(float(e) for e in edges)
        if not self.edges or list(self.edges) != sorted(set(self.edges)):
            raise ObservabilityError(
                f"{name}: edges must be non-empty, sorted, unique"
            )
        self.buckets = [0] * (len(self.edges) + 1)  # +1 = overflow
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        self.buckets[bisect_left(self.edges, value)] += 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Bucket-resolution quantile: the upper edge of the bucket
        holding the ``q``-th observation (the recorded max for the
        overflow bucket). 0 when empty."""
        if not 0.0 <= q <= 1.0:
            raise ObservabilityError(f"quantile {q} outside [0, 1]")
        if self.count == 0:
            return 0.0
        target = max(1, math.ceil(q * self.count))
        seen = 0
        for i, n in enumerate(self.buckets):
            seen += n
            if seen >= target:
                return self.edges[i] if i < len(self.edges) else self.max
        return self.max

    def merge(self, other: "Histogram") -> None:
        if other.edges != self.edges:
            raise ObservabilityError(
                f"{self.name}: cannot merge histograms with different edges"
            )
        for i, n in enumerate(other.buckets):
            self.buckets[i] += n
        self.count += other.count
        self.sum += other.sum
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "type": self.kind,
            "edges": list(self.edges),
            "buckets": list(self.buckets),
            "count": self.count,
            "sum": self.sum,
            "min": None if self.count == 0 else self.min,
            "max": None if self.count == 0 else self.max,
        }


Metric = Counter | BoundCounter | Gauge | BoundGauge | Histogram

#: every registry constructed in this process, for the benchmark
#: conftest: ``emit_report`` snapshots whatever is live without the
#: individual benchmarks having to thread registries around.
_LIVE: "weakref.WeakSet[MetricsRegistry]" = weakref.WeakSet()


def live_registries() -> list["MetricsRegistry"]:
    """Registries still alive in this process (creation order not
    guaranteed). Benchmarks use this to snapshot everything a test
    touched without plumbing."""
    return list(_LIVE)


class MetricsRegistry:
    """One rank's named metrics. Creation is locked; updates are not.

    ``counter``/``gauge``/``histogram`` are get-or-create: the first
    call fixes the metric's type (and, for histograms, edges), and a
    later call with a clashing type raises. ``bind_*`` register
    metrics whose storage lives on an existing stats object — the
    zero-overhead path for the stats dataclasses.
    """

    def __init__(self, rank: int = 0, label: str | None = None) -> None:
        self.rank = rank
        self.label = label
        self._lock = threading.Lock()
        self._metrics: dict[str, Metric] = {}
        _LIVE.add(self)

    # -- creation ---------------------------------------------------------

    def _register(self, metric: Metric) -> Metric:
        with self._lock:
            existing = self._metrics.get(metric.name)
            if existing is not None:
                if existing.kind != metric.kind:
                    raise ObservabilityError(
                        f"{metric.name}: registered as {existing.kind}, "
                        f"requested as {metric.kind}"
                    )
                return existing
            self._metrics[metric.name] = metric
            return metric

    def counter(self, name: str) -> Counter:
        """Get-or-create a plain counter."""
        metric = self._metrics.get(name)  # unlocked fast path
        if type(metric) is Counter:
            return metric
        return self._register(Counter(name))  # type: ignore[return-value]

    def gauge(self, name: str) -> Gauge:
        """Get-or-create a plain gauge."""
        metric = self._metrics.get(name)
        if type(metric) is Gauge:
            return metric
        return self._register(Gauge(name))  # type: ignore[return-value]

    def histogram(
        self, name: str, edges: Iterable[float] = DEFAULT_LATENCY_EDGES
    ) -> Histogram:
        """Get-or-create a fixed-bucket histogram (first caller's edges
        win; merging across ranks requires identical edges)."""
        metric = self._metrics.get(name)
        if type(metric) is Histogram:
            return metric
        return self._register(Histogram(name, edges))  # type: ignore[return-value]

    def bind_counter(self, name: str, obj: Any, attr: str) -> BoundCounter:
        """Register a counter backed by ``obj.attr`` (see module doc)."""
        return self._register(BoundCounter(name, obj, attr))  # type: ignore[return-value]

    def bind_gauge(
        self,
        name: str,
        obj: Any = None,
        attr: str | None = None,
        fn: Callable[[], float] | None = None,
    ) -> BoundGauge:
        """Register a gauge read from ``obj.attr`` or ``fn()`` at
        snapshot time."""
        return self._register(BoundGauge(name, obj, attr, fn))  # type: ignore[return-value]

    # -- access -----------------------------------------------------------

    def get(self, name: str) -> Metric:
        """The registered metric, or :class:`KeyError`."""
        return self._metrics[name]

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def snapshot(self) -> "MetricsSnapshot":
        """A point-in-time, JSON-ready copy of every metric."""
        with self._lock:
            metrics = [m.to_dict() for m in self._metrics.values()]
        return MetricsSnapshot(rank=self.rank, label=self.label, metrics=metrics)


class MetricsSnapshot:
    """A serialized registry state: exportable, loadable, mergeable.

    ``metrics`` is a list of flat dicts (see module doc for the wire
    format). ``rank`` is -1 for a merged, cluster-wide snapshot.
    """

    def __init__(
        self, rank: int = 0, label: str | None = None,
        metrics: list[dict] | None = None,
    ) -> None:
        self.rank = rank
        self.label = label
        self.metrics = metrics or []

    # -- access -----------------------------------------------------------

    def get(self, name: str) -> dict:
        """The metric dict named ``name``, or :class:`KeyError`."""
        for m in self.metrics:
            if m.get("name") == name:
                return m
        raise KeyError(name)

    def names(self) -> list[str]:
        return sorted(m["name"] for m in self.metrics if "name" in m)

    def value(self, name: str) -> Any:
        """Counter/gauge value (histograms: the observation count)."""
        m = self.get(name)
        return m["count"] if m.get("type") == "histogram" else m.get("value")

    def __len__(self) -> int:
        return len(self.metrics)

    # -- JSONL ------------------------------------------------------------

    def to_lines(self) -> list[str]:
        return [
            json.dumps({"rank": self.rank, "label": self.label, **m},
                       sort_keys=True)
            for m in self.metrics
        ]

    def write_jsonl(self, path: Path | str, *, append: bool = False) -> Path:
        """Write one JSON object per metric; returns the path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        mode = "a" if append else "w"
        with open(path, mode, encoding="utf-8") as fh:
            for line in self.to_lines():
                fh.write(line + "\n")
        return path

    # -- human table -------------------------------------------------------

    def render(self, *, prefix: str = "") -> str:
        """A fixed-width table (what ``fanstore-top`` prints)."""
        rows = [("metric", "type", "value")]
        for m in sorted(self.metrics, key=lambda d: d.get("name", "")):
            name = m.get("name", "?")
            if prefix and not name.startswith(prefix):
                continue
            if m.get("type") == "histogram":
                value = _format_histogram(m)
            else:
                value = _format_number(m.get("value", 0))
            rows.append((name, m.get("type", "?"), value))
        widths = [max(len(r[i]) for r in rows) for i in range(3)]
        lines = ["  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip()
                 for r in rows]
        lines.insert(1, "  ".join("-" * w for w in widths))
        return "\n".join(lines)


def _format_number(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _format_seconds(value: float) -> str:
    if value < 1e-3:
        return f"{value * 1e6:.0f}us"
    if value < 1.0:
        return f"{value * 1e3:.1f}ms"
    return f"{value:.2f}s"


def _format_histogram(m: Mapping[str, Any]) -> str:
    count = m.get("count", 0)
    if not count:
        return "count=0"
    h = Histogram(m["name"], m["edges"])
    h.buckets = list(m["buckets"])
    h.count = count
    h.sum = m.get("sum", 0.0)
    h.min = m.get("min") or 0.0
    h.max = m.get("max") or 0.0
    return (
        f"count={count} mean={_format_seconds(h.mean)} "
        f"p50={_format_seconds(h.quantile(0.5))} "
        f"p95={_format_seconds(h.quantile(0.95))} "
        f"max={_format_seconds(h.max)}"
    )


def load_snapshots(paths: Iterable[Path | str]) -> list[MetricsSnapshot]:
    """Load snapshots back from JSONL files (one snapshot per distinct
    ``(rank, label)`` pair found across all lines; non-metric lines —
    e.g. interleaved trace spans — are skipped)."""
    grouped: dict[tuple[int, str | None], list[dict]] = {}
    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            for raw in fh:
                raw = raw.strip()
                if not raw:
                    continue
                try:
                    obj = json.loads(raw)
                except json.JSONDecodeError:
                    continue
                if not isinstance(obj, dict) or "name" not in obj:
                    continue
                if obj.get("type") not in ("counter", "gauge", "histogram"):
                    continue
                key = (int(obj.pop("rank", 0)), obj.pop("label", None))
                grouped.setdefault(key, []).append(obj)
    return [
        MetricsSnapshot(rank=rank, label=label, metrics=metrics)
        for (rank, label), metrics in sorted(
            grouped.items(), key=lambda kv: (kv[0][0], kv[0][1] or "")
        )
    ]


def merge_snapshots(snapshots: Iterable[MetricsSnapshot]) -> MetricsSnapshot:
    """Fold per-rank snapshots into one cluster-wide snapshot: counters
    sum, gauges keep the max, histograms merge bucket-wise (identical
    edges required). The result has ``rank == -1``."""
    counters: dict[str, float] = {}
    gauges: dict[str, float] = {}
    hists: dict[str, Histogram] = {}
    for snap in snapshots:
        for m in snap.metrics:
            name, kind = m.get("name"), m.get("type")
            if name is None:
                continue
            if kind == "counter":
                counters[name] = counters.get(name, 0) + m.get("value", 0)
            elif kind == "gauge":
                value = m.get("value", 0)
                gauges[name] = max(gauges.get(name, value), value)
            elif kind == "histogram":
                incoming = Histogram(name, m["edges"])
                incoming.buckets = list(m["buckets"])
                incoming.count = m.get("count", 0)
                incoming.sum = m.get("sum", 0.0)
                incoming.min = m.get("min") if m.get("min") is not None else math.inf
                incoming.max = m.get("max") if m.get("max") is not None else -math.inf
                if name in hists:
                    hists[name].merge(incoming)
                else:
                    hists[name] = incoming
    metrics: list[dict] = []
    for name, value in counters.items():
        metrics.append({"name": name, "type": "counter", "value": value})
    for name, value in gauges.items():
        metrics.append({"name": name, "type": "gauge", "value": value})
    for h in hists.values():
        metrics.append(h.to_dict())
    metrics.sort(key=lambda d: d["name"])
    return MetricsSnapshot(rank=-1, label="merged", metrics=metrics)
