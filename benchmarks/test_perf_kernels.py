"""Host-kernel wall-clock benchmark: the tracked perf baseline.

Times every solver hot path through the ``repro.perf`` engine and the
preserved pre-engine reference paths (SSSP/WCC's snapshot loops), then
writes the machine-readable report to
``benchmarks/results/BENCH_PR4.json`` — the same artifact
``python -m repro perf`` emits, and the one CI's perf-smoke job gates
regressions against.

Scale follows ``REPRO_BENCH_SCALE`` (default ``small``).  BC has one
engine and no reference scan any more; its gate is the ``bc@batched``
row: stacking 8 sources must beat the same sources run one per call by
1.2× on the best graph (CI's ``--min-bc-speedup`` floor), asserted at
``medium`` scale, where per-call overhead does not drown the gap.  The
gap scales with diameter: the high-diameter road graph, with many
small levels, is where stacking amortizes the most.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.eval.reporting import format_table
from repro.perf.bench import run_bench

from conftest import run_once

RESULTS_DIR = Path(__file__).parent / "results"


def test_perf_kernels(benchmark, emit):
    scale = os.environ.get("REPRO_BENCH_SCALE", "small")
    report = run_once(benchmark, lambda: run_bench(scale, repeats=3))

    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / "BENCH_PR4.json"
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    rows = [
        {
            "kernel": r["kernel"],
            "graph": r["graph"],
            "seconds": r["seconds"],
            "reference_seconds": r.get("reference_seconds", float("nan")),
            "speedup": r.get("speedup_vs_reference", float("nan")),
        }
        for r in report["kernels"]
    ]
    emit(
        "perf_kernels",
        format_table(
            rows,
            ["kernel", "graph", "seconds", "reference_seconds", "speedup"],
            title=f"Engine vs reference host wall-clock (scale={scale})",
            floatfmt="{:,.4f}",
        ),
    )

    agg = report["aggregate_speedup_vs_reference"]
    best = report["best_speedup_vs_reference"]
    assert set(agg) == {"sssp", "wcc"}
    assert set(best) == {"sssp", "wcc"}
    stacked = max(
        r["speedup_vs_looped"]
        for r in report["kernels"]
        if r["kernel"] == "bc@batched"
    )
    # sanity on every scale: stacking must not lose badly to one call
    # per source (per-call overhead makes tiny-scale ratios hover near
    # 1.0, so only a gross regression trips this)
    assert stacked > 0.6
    if scale == "medium":
        assert stacked >= 1.2
