"""Process-local metrics: counters, gauges, fixed-bucket histograms.

Unlike tracing (off by default), metrics are always on — incrementing a
counter is a dict lookup plus an add, cheap enough for every hot path.
The payoff is the snapshot/merge API: a worker process accumulates into
its own registry copy, ships ``snapshot()`` back through the scheduler's
result pipe, and the parent folds it in with ``merge_snapshot`` — so a
parallel sweep reports one aggregated view of cache hits, retries,
timeouts, and degradations across every worker.

Metric naming mirrors spans (dotted lowercase, category first):
``harness.exact_cache.hit``, ``parallel.retries``, ``solve.sweeps`` …
"""

from __future__ import annotations

import bisect
import threading
from typing import Any, Mapping, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "counter",
    "gauge",
    "histogram",
    "merge_snapshot",
    "prometheus_text",
    "registry",
    "reset",
    "snapshot",
]

#: default histogram bucket upper bounds (seconds-ish scale); the last
#: implicit bucket is +inf
DEFAULT_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name}: negative increment {amount}")
        self.value += amount


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Fixed-bucket histogram: cumulative-free counts per bucket + sum."""

    __slots__ = ("name", "buckets", "counts", "total", "count")

    def __init__(self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError(f"histogram {name}: needs at least one bucket")
        self.name = name
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)  # last slot: > max bound
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.buckets, value)] += 1
        self.total += value
        self.count += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class MetricsRegistry:
    """One process's (or worker's) metric instruments, by name."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        # lock-free hit: instruments are created once and never replaced
        # (reset() drops them all), and a dict read is atomic
        c = self._counters.get(name)
        if c is not None:
            return c
        with self._lock:
            c = self._counters.get(name)
            if c is None:
                c = self._counters[name] = Counter(name)
            return c

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            g = self._gauges.get(name)
            if g is None:
                g = self._gauges[name] = Gauge(name)
            return g

    def histogram(
        self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        with self._lock:
            h = self._histograms.get(name)
            if h is None:
                h = self._histograms[name] = Histogram(name, buckets)
            return h

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """A JSON-serializable copy of every instrument's current state."""
        with self._lock:
            return {
                "counters": {n: c.value for n, c in self._counters.items()},
                "gauges": {n: g.value for n, g in self._gauges.items()},
                "histograms": {
                    n: {
                        "buckets": list(h.buckets),
                        "counts": list(h.counts),
                        "total": h.total,
                        "count": h.count,
                    }
                    for n, h in self._histograms.items()
                },
            }

    def merge_snapshot(
        self, snap: Mapping[str, Any], *, gauge_merge: str = "last"
    ) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        Counters and histograms add — their merge is commutative, so the
        order snapshots arrive in never matters.  Gauges are *not*
        commutative under the default policy, so the policy is explicit:

        ``gauge_merge="last"`` (default)
            the incoming value wins.  Correct when the merged-in
            snapshot is the strictly fresher observation of the *same*
            process state — e.g. a drained server's final snapshot, or
            a journal replayed in recorded order.
        ``gauge_merge="max"``
            keep the larger of the two values.  Correct for fan-in from
            *concurrent* worker processes, where "last" would mean
            "whichever worker happened to finish last" — an
            order-dependent answer.  ``max`` is commutative, so the
            merged result is deterministic regardless of completion
            order (this is what ``eval/parallel`` uses; see
            ``docs/observability.md``).

        Histograms with mismatched bucket bounds raise — merging them
        would silently mis-bin.
        """
        if gauge_merge not in ("last", "max"):
            raise ValueError(f"gauge_merge must be 'last' or 'max', got {gauge_merge!r}")
        for name, value in (snap.get("counters") or {}).items():
            self.counter(name).value += float(value)
        for name, value in (snap.get("gauges") or {}).items():
            g = self.gauge(name)
            if gauge_merge == "max":
                g.set(max(g.value, float(value)))
            else:
                g.set(float(value))
        for name, h in (snap.get("histograms") or {}).items():
            mine = self.histogram(name, h["buckets"])
            if list(mine.buckets) != [float(b) for b in h["buckets"]]:
                raise ValueError(
                    f"histogram {name}: cannot merge mismatched buckets "
                    f"{list(mine.buckets)} vs {h['buckets']}"
                )
            for i, c in enumerate(h["counts"]):
                mine.counts[i] += int(c)
            mine.total += float(h["total"])
            mine.count += int(h["count"])


# ---------------------------------------------------------------------------
# module-level default registry (what the instrumentation uses)
# ---------------------------------------------------------------------------
_registry = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _registry


def counter(name: str) -> Counter:
    return _registry.counter(name)


def gauge(name: str) -> Gauge:
    return _registry.gauge(name)


def histogram(name: str, buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
    return _registry.histogram(name, buckets)


def snapshot() -> dict[str, Any]:
    return _registry.snapshot()


def merge_snapshot(snap: Mapping[str, Any], *, gauge_merge: str = "last") -> None:
    _registry.merge_snapshot(snap, gauge_merge=gauge_merge)


def reset() -> None:
    _registry.reset()


# ---------------------------------------------------------------------------
# Prometheus text exposition (format version 0.0.4)
# ---------------------------------------------------------------------------
def _prom_name(name: str) -> str:
    """A valid Prometheus metric name from our dotted convention."""
    s = "".join(ch if (ch.isalnum() or ch in "_:") else "_" for ch in name)
    if s and s[0].isdigit():
        s = "_" + s
    return s or "_"


def _prom_value(v: float) -> str:
    if v == float("inf"):
        return "+Inf"
    if v == float("-inf"):
        return "-Inf"
    if v != v:  # NaN
        return "NaN"
    if float(v).is_integer() and abs(v) < 1e15:
        return str(int(v))
    return repr(float(v))


def prometheus_text(snap: Mapping[str, Any] | None = None) -> str:
    """Render a snapshot as Prometheus text exposition (v0.0.4).

    Counters gain a ``_total`` suffix per the naming convention; our
    fixed-bucket histograms are converted to the cumulative
    ``_bucket{le="..."}`` form Prometheus expects, closed by the
    mandatory ``le="+Inf"`` bucket plus ``_sum``/``_count`` samples.
    Metric names are sanitized (dots become underscores).  This is what
    the serve admin ``metrics`` op returns, so a scraper (or a human
    with ``nc``) can pull the live registry off a running server.
    """
    if snap is None:
        snap = _registry.snapshot()
    lines: list[str] = []
    for name in sorted(snap.get("counters") or {}):
        pname = _prom_name(name)
        if not pname.endswith("_total"):
            pname += "_total"
        lines.append(f"# HELP {pname} repro counter {name}")
        lines.append(f"# TYPE {pname} counter")
        lines.append(f"{pname} {_prom_value(float(snap['counters'][name]))}")
    for name in sorted(snap.get("gauges") or {}):
        pname = _prom_name(name)
        lines.append(f"# HELP {pname} repro gauge {name}")
        lines.append(f"# TYPE {pname} gauge")
        lines.append(f"{pname} {_prom_value(float(snap['gauges'][name]))}")
    for name in sorted(snap.get("histograms") or {}):
        h = snap["histograms"][name]
        pname = _prom_name(name)
        lines.append(f"# HELP {pname} repro histogram {name}")
        lines.append(f"# TYPE {pname} histogram")
        cumulative = 0
        for bound, count in zip(h["buckets"], h["counts"]):
            cumulative += int(count)
            lines.append(
                f'{pname}_bucket{{le="{_prom_value(float(bound))}"}} {cumulative}'
            )
        total_count = int(h["count"])
        lines.append(f'{pname}_bucket{{le="+Inf"}} {total_count}')
        lines.append(f"{pname}_sum {_prom_value(float(h['total']))}")
        lines.append(f"{pname}_count {total_count}")
    return "\n".join(lines) + "\n"
