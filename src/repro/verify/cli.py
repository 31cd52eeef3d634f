"""``python -m repro verify``: run the verification oracle suite.

Modes::

    python -m repro verify --quick            # structural + metamorphic +
                                              # fast differential checks
    python -m repro verify --deep             # + combined plans, the
                                              # serial-vs-parallel sweep and
                                              # the golden table bands
    python -m repro verify --report out.json  # machine-readable verdicts

``--quick`` is the CI smoke gate: every invariant oracle over the
adversarial + generated corpus on exact and all three transform plans,
the metamorphic relations, and the cross-engine/cache differentials.
``--deep`` is the nightly gate and adds the expensive end-to-end
comparisons.  Exit status is 0 iff every check is green.

Each check runs under a ``verify.check`` obs span, bumps the
``verify.checks.pass`` / ``verify.checks.fail`` counters, and records
its wall-clock through ``obs.metrics`` — a ``verify.check.seconds.<name>``
gauge per check plus the ``verify.check.time`` histogram.  With
``--report`` the metrics snapshot is embedded in the JSON
(``report["metrics"]``), so ``python -m repro obs diff old.json new.json``
catches verification-*time* regressions the pass/fail bits can't.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
import traceback

from ..core.knobs import CoalescingKnobs, DivergenceKnobs, SharedMemoryKnobs
from ..core.pipeline import build_plan
from ..gpusim.device import DeviceConfig
from ..obs import metrics, trace
from . import differential, golden, metamorphic, tuned
from .corpus import default_corpus
from .invariants import Violation, check_plan
from .metamorphic import (
    check_exact_identity,
    check_knob_monotonicity,
    check_relabel_invariance,
    check_weight_scaling,
)

__all__ = ["main", "run_checks", "VERIFY_DEVICE"]

#: a deliberately small device so padding/clustering actually fire on the
#: corpus-sized graphs (the K40C's 32-lane warps would dwarf them)
VERIFY_DEVICE = DeviceConfig(warp_size=8, line_words=4, shared_mem_words=512)

#: knobs tuned so every transform does nontrivial work on tiny graphs —
#: replicas, added shmem edges and padded nodes all appear in the corpus
VERIFY_KNOBS = {
    "coalescing": CoalescingKnobs(chunk_size=4, connectedness_threshold=0.3),
    "shmem": SharedMemoryKnobs(cc_threshold=0.3, edge_budget_fraction=0.1),
    "divergence": DivergenceKnobs(degree_sim_threshold=0.4),
}

QUICK_TECHNIQUES = ("exact", "coalescing", "shmem", "divergence")


def _invariant_checks(corpus, techniques, device):
    for gname, graph in corpus.items():
        for technique in techniques:
            def run(graph=graph, technique=technique):
                plan = build_plan(
                    graph,
                    technique,
                    device=device,
                    coalescing=VERIFY_KNOBS["coalescing"],
                    shmem=VERIFY_KNOBS["shmem"],
                    divergence=VERIFY_KNOBS["divergence"],
                )
                return check_plan(
                    graph,
                    plan,
                    coalescing=VERIFY_KNOBS["coalescing"],
                    shmem=VERIFY_KNOBS["shmem"],
                    divergence=VERIFY_KNOBS["divergence"],
                    device=device,
                )

            yield f"invariants:{gname}:{technique}", run


def _metamorphic_checks(corpus, seed, device):
    yield "metamorphic:relabel:er", lambda: check_relabel_invariance(
        corpus["er"], seed=seed, device=device
    )
    yield "metamorphic:relabel:road", lambda: check_relabel_invariance(
        corpus["road"], seed=seed + 1, device=device
    )
    yield "metamorphic:scaling:zero-weight", lambda: check_weight_scaling(
        corpus["zero-weight"], device=device
    )
    yield "metamorphic:scaling:social", lambda: check_weight_scaling(
        corpus["social"], device=device
    )
    yield "metamorphic:monotone:social", lambda: check_knob_monotonicity(
        corpus["social"], device=device
    )
    yield "metamorphic:monotone:multigraph", lambda: check_knob_monotonicity(
        corpus["multigraph"], device=device
    )
    yield "metamorphic:identity:rmat", lambda: check_exact_identity(
        corpus["rmat"], device=device
    )


def _differential_checks(corpus, seed, device):
    yield "differential:schedules:road:exact", lambda: (
        differential.check_schedules(
            corpus["road"], technique="exact", seed=seed, device=device
        )
    )
    yield "differential:schedules:multigraph:exact", lambda: (
        differential.check_schedules(
            corpus["multigraph"], technique="exact", seed=seed, device=device
        )
    )
    yield "differential:schedules:social:coalescing", lambda: (
        differential.check_schedules(
            corpus["social"], technique="coalescing", seed=seed, device=device
        )
    )
    yield "differential:schedules:er:divergence", lambda: (
        differential.check_schedules(
            corpus["er"], technique="divergence", seed=seed, device=device
        )
    )
    yield "differential:schedules:zero-weight:shmem", lambda: (
        differential.check_schedules(
            corpus["zero-weight"], technique="shmem", seed=seed, device=device
        )
    )

    yield "differential:batched:road:exact", lambda: (
        differential.check_batched(
            corpus["road"], technique="exact", seed=seed, device=device
        )
    )
    yield "differential:batched:multigraph:exact", lambda: (
        differential.check_batched(
            corpus["multigraph"], technique="exact", seed=seed, device=device
        )
    )
    yield "differential:batched:social:coalescing", lambda: (
        differential.check_batched(
            corpus["social"], technique="coalescing", seed=seed, device=device
        )
    )
    yield "differential:batched:er:divergence", lambda: (
        differential.check_batched(
            corpus["er"], technique="divergence", seed=seed, device=device
        )
    )

    def cache_check():
        with tempfile.TemporaryDirectory(prefix="repro-verify-cache-") as tmp:
            return differential.check_cache_differential(
                corpus["er"], "divergence", tmp, device=device
            )

    yield "differential:cache:er:divergence", cache_check


def _tuned_checks(corpus, device):
    for gname, technique in (
        ("rmat", "coalescing"),
        ("road", "shmem"),
        ("social", "divergence"),
        ("multigraph", "exact"),
    ):
        yield (
            f"differential:tuned:identity:{gname}:{technique}",
            lambda g=gname, t=technique: tuned.check_tuned_identity(
                corpus[g], t, knobs=VERIFY_KNOBS, device=device
            ),
        )
    yield "differential:tuned:monotone:road", lambda: (
        tuned.check_budget_monotonicity(
            corpus["road"], knobs=VERIFY_KNOBS, device=device
        )
    )

    def tuned_golden_check():
        report = tuned.run_adaptive_golden(
            corpus, knobs=VERIFY_KNOBS, device=device
        )
        tuned_golden_check.report = report
        return tuned.adaptive_violations(report)

    tuned_golden_check.report = None
    yield "golden:tuned", tuned_golden_check


def _deep_checks(corpus, device):
    for gname, graph in corpus.items():
        def run(graph=graph):
            plan = build_plan(
                graph,
                "combined",
                device=device,
                coalescing=VERIFY_KNOBS["coalescing"],
                shmem=VERIFY_KNOBS["shmem"],
                divergence=VERIFY_KNOBS["divergence"],
            )
            return check_plan(
                graph,
                plan,
                coalescing=VERIFY_KNOBS["coalescing"],
                shmem=VERIFY_KNOBS["shmem"],
                divergence=VERIFY_KNOBS["divergence"],
                device=device,
            )

        yield f"invariants:{gname}:combined", run
    yield "differential:serial-vs-parallel", (
        lambda: differential.check_serial_parallel(
            technique="divergence", scale="tiny", algorithms=("sssp", "pr")
        )
    )

    def golden_check():
        report = golden.run_golden(scale="tiny")
        golden_check.report = report
        return golden.golden_violations(report)

    golden_check.report = None
    yield "golden:tables", golden_check


def run_checks(
    *, deep: bool = False, seed: int = 0, quiet: bool = False
) -> dict:
    """Run the suite; returns the machine-readable report dict."""
    corpus = default_corpus(seed)
    device = VERIFY_DEVICE
    checks = []
    checks += list(_invariant_checks(corpus, QUICK_TECHNIQUES, device))
    checks += list(_metamorphic_checks(corpus, seed, device))
    checks += list(_differential_checks(corpus, seed, device))
    checks += list(_tuned_checks(corpus, device))
    golden_report = None
    tuned_golden_report = None
    if deep:
        checks += list(_deep_checks(corpus, device))

    results = []
    failed = 0
    with trace.span("verify.run", deep=deep, seed=seed):
        for name, run in checks:
            t0 = time.perf_counter()
            with trace.span("verify.check", check=name):
                try:
                    violations = run()
                    error = None
                except Exception as exc:  # noqa: BLE001 - reported, not hidden
                    violations = [
                        Violation("verify.crash", f"{type(exc).__name__}: {exc}")
                    ]
                    error = traceback.format_exc()
            elapsed = time.perf_counter() - t0
            ok = not violations
            metrics.counter(
                "verify.checks.pass" if ok else "verify.checks.fail"
            ).inc()
            metrics.gauge(f"verify.check.seconds.{name}").set(elapsed)
            metrics.histogram("verify.check.time").observe(elapsed)
            if not ok:
                failed += 1
            results.append(
                {
                    "check": name,
                    "passed": ok,
                    "violations": [
                        {"oracle": x.oracle, "message": x.message}
                        for x in violations
                    ],
                    **({"traceback": error} if error else {}),
                }
            )
            if not quiet:
                status = "ok  " if ok else "FAIL"
                print(f"[{status}] {name}")
                for x in violations:
                    print(f"        - {x}")
            if name == "golden:tables" and getattr(run, "report", None):
                golden_report = run.report
            if name == "golden:tuned" and getattr(run, "report", None):
                tuned_golden_report = run.report

    report = {
        "mode": "deep" if deep else "quick",
        "seed": seed,
        "checks": results,
        "num_checks": len(results),
        "num_failed": failed,
        "passed": failed == 0,
        # per-check timing gauges + the verify.check.time histogram,
        # diffable across runs with `python -m repro obs diff`
        "metrics": metrics.snapshot(),
    }
    if golden_report is not None:
        report["golden"] = golden_report
    if tuned_golden_report is not None:
        report["tuned_golden"] = tuned_golden_report
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro verify",
        description="Run the structural/metamorphic/differential/golden "
        "verification oracles (see docs/verification.md).",
    )
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--quick",
        action="store_true",
        help="fast oracle pass (default; the CI smoke gate)",
    )
    mode.add_argument(
        "--deep",
        action="store_true",
        help="add combined plans, serial-vs-parallel and golden table bands",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="corpus / sampling seed"
    )
    parser.add_argument(
        "--report", default=None, help="write the JSON report to this path"
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-check lines"
    )
    args = parser.parse_args(argv)

    report = run_checks(deep=args.deep, seed=args.seed, quiet=args.quiet)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)

    print(
        f"verify: {report['num_checks'] - report['num_failed']}/"
        f"{report['num_checks']} checks passed"
        + ("" if report["passed"] else f" ({report['num_failed']} FAILED)")
    )
    return 0 if report["passed"] else 1


if __name__ == "__main__":  # pragma: no cover - exercised via -m repro
    sys.exit(main())
