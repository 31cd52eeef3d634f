"""Produce the committed benchmark records under ``perfbench/results/``.

    python3 perfbench/record.py trace --seed 1
    python3 perfbench/record.py steadiness --seeds 10 --sets 2

``trace`` runs every workload once with ``--trace 1`` and writes
``trace_report.json``: the per-layer metrics, the tracing overhead, the
pricing share per solver and the clustering share of the shmem build.

``steadiness`` runs every workload on seeds ``1..N`` per set, untraced,
and writes ``steadiness.json``: for each end-to-end metric its values,
each set's median and spread (interquartile range over median, from
``statistics.quantiles(values, n=4)``), and how far the second set's
median is worse than the first's, against the bound in ``BENCHMARK.json``.
Runs are interleaved across workloads so slow drift of the host spreads
over all of them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

from common import BENCH_DIR, OUT_DIR, ROOT, WORKLOADS, hermetic_env

RESULTS = BENCH_DIR / "results"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, seed: int, trace: int) -> dict:
    """One run of ``run.py`` in a subprocess; returns its result line."""
    cmd = [
        sys.executable,
        str(BENCH_DIR / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(BENCHMARK["run_seconds"]),
        "--trace", str(trace),
    ]
    start = time.perf_counter()
    proc = subprocess.run(
        cmd, cwd=str(ROOT), env=hermetic_env(), capture_output=True, text=True, check=False
    )
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
    print(f"{workload} seed={seed} trace={trace} exit={proc.returncode} wall={wall:.1f}s", flush=True)
    if proc.returncode != 0:
        print(proc.stderr[-2000:], file=sys.stderr)
    return {"exit": proc.returncode, "wall_s": wall, "result": result}


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def record_trace(seed: int) -> dict:
    report = {"seed": seed, "workloads": {}}
    for workload in WORKLOADS:
        outcome = run(workload, seed, 1)
        detail = json.loads((OUT_DIR / f"{workload}-seed{seed}-trace1.json").read_text())
        metrics = {k: v["value"] for k, v in detail["metrics"].items()}
        shmem_total = metrics["graphs.clustering_s"] + metrics["core.shmem_s"]
        report["workloads"][workload] = {
            "exit": outcome["exit"],
            "wall_s": outcome["wall_s"],
            "context": {
                k: detail[k]
                for k in ("scale", "seconds", "nproc", "commit", "src_sha256")
            },
            "metrics": metrics,
            "clustering_share_of_shmem": (
                metrics["graphs.clustering_s"] / shmem_total if shmem_total else None
            ),
            "price_share_by_solver": detail["info"].get("price_share_by_solver", {}),
            "info": {
                k: v for k, v in detail["info"].items() if k != "price_share_by_solver"
            },
        }
    return report


def record_steadiness(seeds: int, sets: int) -> dict:
    runs = {w: [[] for _ in range(sets)] for w in WORKLOADS}
    for s in range(sets):
        for seed in range(1, seeds + 1):
            for workload in WORKLOADS:
                runs[workload][s].append({"seed": seed, **run(workload, seed, 0)})
    summary = {}
    for workload, per_set in runs.items():
        rows = {}
        for metric in BENCHMARK["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sets_values = [
                [r["result"]["metrics"][name]["value"] for r in rs if r["exit"] == 0]
                for rs in per_set
            ]
            medians = [statistics.median(v) for v in sets_values]
            worse = (medians[-1] - medians[0]) / medians[0]
            if metric["better"] == "higher":
                worse = -worse
            spreads = [spread(v) for v in sets_values]
            rows[name] = {
                "bound": bound,
                "medians": medians,
                "spreads": spreads,
                "second_median_worse_by": worse,
                "spread_within_bound": name == "setup_s" or max(spreads) <= bound,
                "spread_below_third_of_bound": max(spreads) < bound / 3,
                "median_within_bound": worse <= bound,
                "values": sets_values,
            }
        summary[workload] = {
            "failed_runs": sum(r["exit"] != 0 for rs in per_set for r in rs),
            "max_wall_s": max(r["wall_s"] for rs in per_set for r in rs),
            "total_wall_s": sum(r["wall_s"] for rs in per_set for r in rs),
            "metrics": rows,
        }
    return {"seeds": list(range(1, seeds + 1)), "sets": sets, "workloads": summary}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/record.py")
    sub = parser.add_subparsers(dest="what", required=True)
    trace = sub.add_parser("trace")
    trace.add_argument("--seed", type=int, default=1)
    steady = sub.add_parser("steadiness")
    steady.add_argument("--seeds", type=int, default=10)
    steady.add_argument("--sets", type=int, default=2)
    args = parser.parse_args(argv)

    RESULTS.mkdir(exist_ok=True)
    if args.what == "trace":
        report, path = record_trace(args.seed), RESULTS / "trace_report.json"
    else:
        report, path = record_steadiness(args.seeds, args.sets), RESULTS / "steadiness.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    if args.what == "steadiness":
        for workload, body in report["workloads"].items():
            for name, row in body["metrics"].items():
                print(
                    f"{workload:20s} {name:16s} spreads="
                    + ",".join(f"{x:.3f}" for x in row["spreads"])
                    + f" worse_by={row['second_median_worse_by']:+.3f} bound={row['bound']}"
                )
    return 0


if __name__ == "__main__":
    sys.exit(main())
