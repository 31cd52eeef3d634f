"""The repository's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload offline-preprocess --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout.  With ``--trace 0`` it prints every
end-to-end metric; with ``--trace 1`` every per-layer metric (see
``perfbench/README.md``).  Each metric is printed as a line
``metric <name> <value> <unit>``; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  A wrong answer
or a failed operation makes the exit code non-zero.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from common import (  # noqa: E402  (needs the path set above)
    END_TO_END,
    HERMETIC_VARS,
    OUT_DIR,
    PER_LAYER,
    SRC,
    WORKLOADS,
    nproc,
    source_id,
)


def _import_repro() -> None:
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no repro sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro
    from repro import cache

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}")
    if cache.active() is not None:
        raise SystemExit("perfbench: repro.cache is on; builds would not be cold")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    for var in HERMETIC_VARS:
        os.environ.pop(var, None)
    _import_repro()
    OUT_DIR.mkdir(parents=True, exist_ok=True)

    if args.workload == "serve-mixed":
        from serving import SCALE as scale, run_serve as run
    else:
        from offline import SCALES, run_preprocess, run_solve

        scale = SCALES[args.workload]
        run = run_preprocess if args.workload == "offline-preprocess" else run_solve
    outcome = run(args.seed, args.seconds, bool(args.trace))

    wanted = PER_LAYER if args.trace else END_TO_END
    missing = set(wanted) - set(outcome.metrics)
    if missing:
        raise RuntimeError(f"workload did not measure {sorted(missing)}")
    bad = [k for k in wanted if not math.isfinite(outcome.metrics[k])]
    if bad:
        raise RuntimeError(f"non-finite metrics {bad}")
    metrics = {k: {"value": float(outcome.metrics[k]), "unit": wanted[k]} for k in wanted}
    correct = not outcome.wrong
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": scale,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc(),
        **source_id(),
    }
    report = {
        **context,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "failed_frac": outcome.failed / max(1, outcome.attempted),
        "wrong": outcome.wrong[:20],
        "info": outcome.info,
        "metrics": metrics,
    }
    report_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=2, default=str) + "\n")

    print("perfbench " + " ".join(f"{k}={v}" for k, v in context.items()))
    print(
        f"attempted={outcome.attempted} failed={outcome.failed} "
        f"failed_frac={report['failed_frac']:.6f} report={report_path.name}"
    )
    for line in outcome.wrong[:20]:
        print(f"wrong: {line}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"metric {name} {m['value']!r} {m['unit']}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct and outcome.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
