"""Shared pieces of the benchmark: metric names, the run outcome, and the
hermetic set-up every workload starts from."""

from __future__ import annotations

import hashlib
import os
import resource
import subprocess
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from spans import inherit, self_times, span_counts

#: checkout root (the directory holding ``src/`` and ``perfbench/``)
ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / ".out"

#: environment variables that would make a run depend on state outside it
HERMETIC_VARS = ("REPRO_CACHE_DIR", "REPRO_FAULTS", "REPRO_PROFILE")

WORKLOADS = ("offline-preprocess", "offline-solve", "serve-mixed")

#: end-to-end metrics (untraced runs): name -> unit
END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "ops_per_s": "1/s",
    "sim_speedup": "ratio",
    "inaccuracy_pct": "%",
    "peak_rss_mb": "MB",
}

#: per-layer metrics (traced runs): name -> unit
PER_LAYER = {
    "graphs.generate_s": "s",
    "graphs.clustering_s": "s",
    "graphs.clustering_calls": "count",
    "core.coalesce_s": "s",
    "core.shmem_s": "s",
    "core.divergence_s": "s",
    "core.edges_added": "count",
    "core.confluence_s": "s",
    "core.confluence_calls": "count",
    "algorithms.sssp_s": "s",
    "algorithms.bfs_s": "s",
    "algorithms.pagerank_s": "s",
    "algorithms.wcc_s": "s",
    "algorithms.bc_s": "s",
    "algorithms.iterations": "count",
    "perf.sssp_batched_s": "s",
    "gpusim.price_s": "s",
    "gpusim.price_calls": "count",
    "gpusim.price_share": "fraction",
    "gpusim.sim_cycles": "count",
    "serve.decode_s": "s",
    "serve.encode_s": "s",
    "serve.admission_wait_s": "s",
    "serve.plan_s": "s",
    "serve.execute_s": "s",
    "serve.requests.ok": "count",
    "serve.requests.error": "count",
    "serve.requests.overloaded": "count",
    "serve.requests.timeout": "count",
    "serve.requests.shutting_down": "count",
    "bench.generator_lag_p50_ms": "ms",
    "bench.generator_lag_max_ms": "ms",
    "bench.trace_overhead_pct": "%",
}

#: span names whose self time is reported as ``<name>_s``
TIMED_LAYERS = (
    "graphs.generate",
    "graphs.clustering",
    "core.coalesce",
    "core.shmem",
    "core.divergence",
    "core.confluence",
    "algorithms.sssp",
    "algorithms.bfs",
    "algorithms.pagerank",
    "algorithms.wcc",
    "algorithms.bc",
    "perf.sssp_batched",
    "gpusim.price",
    "serve.decode",
    "serve.encode",
    "serve.admission_wait",
    "serve.plan",
    "serve.execute",
)
#: span names whose call count is reported as ``<name>_calls``
COUNTED_LAYERS = ("graphs.clustering", "core.confluence", "gpusim.price")
#: spans that make up solve time, the denominator of ``gpusim.price_share``
SOLVE_LAYERS = (
    "algorithms.sssp",
    "algorithms.bfs",
    "algorithms.pagerank",
    "algorithms.wcc",
    "algorithms.bc",
    "perf.sssp_batched",
)


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    metrics: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    wrong: list[str] = field(default_factory=list)
    info: dict = field(default_factory=dict)

    def fail(self, what: str, *, wrong: bool) -> None:
        """Count one failed operation; ``wrong`` marks an incorrect answer."""
        self.failed += 1
        if wrong:
            self.wrong.append(what)
        else:
            self.info.setdefault("errors", []).append(what)


def hermetic_env() -> dict[str, str]:
    """This process's environment minus :data:`HERMETIC_VARS`, with the
    checkout's ``src`` first on ``PYTHONPATH`` (for child processes)."""
    env = {k: v for k, v in os.environ.items() if k not in HERMETIC_VARS}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH_DIR)])
    return env


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def source_id() -> dict[str, str]:
    """Commit (when the checkout is a git work tree) and a hash of the
    solver sources, which identifies the code even without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    commit = "none"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            check=False,
        )
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {"commit": commit, "src_sha256": digest.hexdigest()[:16]}


def peak_rss_mb_self() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


class HostSpeed:
    """The host's speed over a run, read from a fixed reference kernel.

    The shared host this benchmark runs on runs identical work up to
    1.6x faster or slower from one minute to the next (a small offline-solve
    pass took 2.5-4.1 s within four minutes), far past any regression
    bound.  The kernel does the same kind of work as the program —
    a scipy Dijkstra on a fixed sparse graph, a numpy scatter and a
    Python dict loop — but calls nothing in ``repro``, so a change to
    the program never changes it.  Workloads sample it between timed
    operations, and :meth:`scale` converts a measured interval into the
    time it would take on a host where the kernel takes
    :data:`REFERENCE_S`: over the same four minutes the scaled pass
    times stayed within 1.08x of each other.
    """

    #: the kernel's time on the reference host
    REFERENCE_S = 0.010
    #: samples nearest an interval that make its scale factor
    NEAREST = 8

    def __init__(self, cpus: set[int] | None = None) -> None:
        """``cpus``: where to run the kernel (default: where the caller runs)."""
        import scipy.sparse as sparse

        self._cpus = cpus
        rng = np.random.default_rng(0)
        n, m = 20_000, 200_000
        self._graph = sparse.csr_matrix(
            (rng.random(m) + 0.1, (rng.integers(0, n, m), rng.integers(0, n, m))),
            shape=(n, n),
        )
        self._index = rng.integers(0, n, 400_000)
        self._values = rng.random(400_000)
        self._times: list[float] = []
        self._seconds: list[float] = []
        for _ in range(3):
            self._kernel()

    def _kernel(self) -> float:
        from scipy.sparse.csgraph import dijkstra

        start = perf_counter()
        dijkstra(self._graph, indices=0)
        np.minimum.at(np.full(self._graph.shape[0], np.inf), self._index, self._values)
        counts: dict[int, int] = {}
        for i in range(5000):
            counts[i % 977] = counts.get(i % 977, 0) + i
        return perf_counter() - start

    def sample(self, times: int = 1) -> None:
        """Time the kernel ``times`` times."""
        own = os.sched_getaffinity(0)
        if self._cpus:
            os.sched_setaffinity(0, self._cpus)
        try:
            for _ in range(times):
                start = perf_counter()
                self._seconds.append(self._kernel())
                self._times.append(start)
        finally:
            if self._cpus:
                os.sched_setaffinity(0, own)

    def factor(self, start: float, end: float) -> float:
        """Reference-host seconds per measured second around ``[start, end]``:
        from the median of the :data:`NEAREST` samples closest to its middle."""
        if not self._seconds:
            raise RuntimeError("HostSpeed.factor before any sample")
        mid = 0.5 * (start + end)
        times = np.asarray(self._times)
        nearest = np.argsort(np.abs(times - mid), kind="stable")[: self.NEAREST]
        return self.REFERENCE_S / float(np.median(np.asarray(self._seconds)[nearest]))

    def scale(self, start: float, end: float) -> float:
        """The interval ``[start, end]`` in reference-host seconds."""
        return (end - start) * self.factor(start, end)

    def median_s(self) -> float:
        """The kernel's median time over the run, for the report."""
        return float(np.median(self._seconds))


def geomean(values) -> float:
    arr = np.asarray(values, dtype=np.float64)
    return float(np.exp(np.log(arr).mean()))


def layer_metrics(groups: list[tuple[list[tuple], dict[str, float], float]]) -> dict[str, float]:
    """Per-layer metrics from traced spans and counters.

    Each group is ``(spans, counters, units)``: what was recorded over
    ``units`` units of work (set-ups, passes or queries).  A layer's
    figure is its self time (or count) per unit, summed over the groups.
    """
    out = {name: 0.0 for name in PER_LAYER}
    solve_s = 0.0
    for spans, counters, units in groups:
        if units <= 0:
            continue
        selfs = self_times(spans)
        counts = span_counts(spans)
        for layer in TIMED_LAYERS:
            out[f"{layer}_s"] += selfs.get(layer, 0.0) / units
        for layer in COUNTED_LAYERS:
            out[f"{layer}_calls"] += counts.get(layer, 0) / units
        for name, value in counters.items():
            if name in out:
                out[name] += value / units
        # solve time is the solvers' whole span time, pricing included;
        # the public solvers never call one another, so no span nests
        for _sid, _parent, name, start, end, _rid in spans:
            if name in SOLVE_LAYERS:
                solve_s += (end - start) / units
    if solve_s > 0:
        out["gpusim.price_share"] = out["gpusim.price_s"] / solve_s
    return out


def price_share_by_solver(spans) -> dict[str, float]:
    """Pricing self time inside each solver's spans over their duration."""
    solver = inherit(spans, lambda s: s[2] if s[2] in SOLVE_LAYERS else None)
    shares = {}
    for name in SOLVE_LAYERS:
        total = sum(s[4] - s[3] for s in spans if s[2] == name)
        if total > 0:
            price = self_times(
                spans, keep=lambda s: s[2] == "gpusim.price" and solver[s[0]] == name
            ).get("gpusim.price", 0.0)
            shares[name] = price / total
    return shares
