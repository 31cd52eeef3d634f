"""The analytics service: hot plans + deadline-aware query execution.

:class:`GraphService` owns the state a long-lived server keeps hot:

* the graph suite (:func:`repro.graphs.generators.paper_suite` at a
  configured scale/seed — deterministic, so clients and load generators
  can rebuild bit-identical references);
* one pre-transformed :class:`~repro.core.pipeline.ExecutionPlan` per
  (graph, technique), built through :mod:`repro.cache` so a restart with
  a disk cache warm-starts, with the serve circuit breaker guarding that
  disk tier;
* a startup **self-check**: every preloaded plan is run through the
  :mod:`repro.verify` structural oracles before the server reports
  ready — a corrupt cache entry or a bad transform can not silently
  serve wrong answers.

:meth:`GraphService.execute` answers one query under a
:class:`~repro.serve.deadline.Deadline`: the budget is checked between
stages (plan fetch → solve → serialize) and inside the sweep loops via
:class:`~repro.serve.deadline.DeadlineRunner`, and the degradation
ladder may substitute the approximate plan (footnoted) before any work
starts.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .. import cache as repro_cache
from ..algorithms.bc import betweenness_centrality
from ..algorithms.pagerank import pagerank
from ..algorithms.sssp import sssp
from ..core.pipeline import TECHNIQUES, ExecutionPlan, build_plan
from ..errors import ProtocolError, ServeError
from ..graphs.csr import CSRGraph
from ..graphs.generators import paper_suite
from ..gpusim.device import DeviceConfig, K40C
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..obs.log import get_logger
from ..perf.batched import sssp_batched
from ..resilience.faults import fault_point
from ..verify.invariants import verify_plan
from .batching import BatchWindow
from .breaker import CircuitBreaker
from .deadline import Deadline, deadline_runner_factory
from .degrade import DegradationLadder, tuned_overrides_from_report

__all__ = ["ServeConfig", "GraphService"]

logger = get_logger("serve.service")

#: histogram buckets for per-stage service time (seconds, ms-scale)
STAGE_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 5.0,
)


@dataclass
class ServeConfig:
    """Everything the server and service need, in one place."""

    scale: str = "tiny"
    seed: int = 7
    techniques: tuple[str, ...] = ("exact", "coalescing")
    default_technique: str = "exact"
    host: str = "127.0.0.1"
    port: int = 0
    workers: int = 4
    max_queue_depth: int = 16
    default_deadline_ms: float = 2000.0
    drain_seconds: float = 10.0
    cache_dir: str | None = None
    self_check: bool = True
    allow_chaos: bool = False
    device: DeviceConfig = K40C
    # breaker knobs (disk cache tier)
    breaker_failure_threshold: int = 3
    breaker_slow_call_seconds: float = 0.25
    breaker_cooldown_seconds: float = 2.0
    # degradation ladder knobs
    degradation: bool = True
    approx_technique: str = "coalescing"
    level1_wait_ms: float = 50.0
    level2_wait_ms: float = 200.0
    # BENCH_TUNE.json (or its serve block) driving level-2 reduced-work
    # knobs; None keeps the historical halving fallbacks
    tune_config: str | None = None
    # query batching window (0 = disabled): same-graph/same-algorithm
    # queries arriving within the window share one batched sweep
    batch_window_ms: float = 0.0
    batch_max_lanes: int = 8
    # observability sinks flushed on drain
    metrics_out: str | None = None
    trace_out: str | None = None
    extra_graphs: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        for t in tuple(self.techniques) + (self.default_technique, self.approx_technique):
            if t not in TECHNIQUES:
                raise ServeError(
                    f"unknown technique {t!r}; choose from {TECHNIQUES}"
                )
        if self.default_technique not in self.techniques:
            raise ServeError("default_technique must be in techniques")
        if self.approx_technique not in self.techniques:
            raise ServeError("approx_technique must be in techniques")
        if self.workers < 1:
            raise ServeError("workers must be >= 1")
        if self.batch_window_ms < 0:
            raise ServeError("batch_window_ms must be >= 0")
        if self.batch_max_lanes < 1:
            raise ServeError("batch_max_lanes must be >= 1")


class GraphService:
    """Executes analytics queries over pre-transformed hot plans."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.breaker = CircuitBreaker(
            "disk",
            failure_threshold=config.breaker_failure_threshold,
            slow_call_seconds=config.breaker_slow_call_seconds,
            cooldown_seconds=config.breaker_cooldown_seconds,
        )
        tuned_overrides = None
        if config.tune_config:
            import json
            from pathlib import Path

            try:
                tuned_overrides = tuned_overrides_from_report(
                    json.loads(Path(config.tune_config).read_text())
                )
            except (OSError, ValueError) as exc:
                raise ServeError(
                    f"bad tune config {config.tune_config!r}: {exc}"
                ) from exc
            logger.info(
                "tuned level-2 overrides from %s: %s",
                config.tune_config, tuned_overrides,
            )
        self.ladder = DegradationLadder(
            approx_technique=config.approx_technique,
            level1_wait_seconds=config.level1_wait_ms / 1000.0,
            level2_wait_seconds=config.level2_wait_ms / 1000.0,
            enabled=config.degradation,
            tuned_overrides=tuned_overrides,
        )
        if config.cache_dir is not None:
            cfg = repro_cache.configure(cache_dir=config.cache_dir)
            if cfg.disk is not None:
                cfg.disk.breaker = self.breaker
        with obs_trace.span("serve.startup.graphs", scale=config.scale):
            self.graphs: dict[str, CSRGraph] = dict(
                paper_suite(config.scale, seed=config.seed)
            )
            self.graphs.update(config.extra_graphs)
        self._plans: dict[tuple[str, str], ExecutionPlan] = {}
        self._plan_lock = threading.Lock()
        with obs_trace.span("serve.startup.plans"):
            for name in self.graphs:
                for technique in config.techniques:
                    self._plans[(name, technique)] = build_plan(
                        self.graphs[name], technique, device=config.device
                    )
        self.batcher = (
            BatchWindow(config.batch_window_ms / 1000.0, config.batch_max_lanes)
            if config.batch_window_ms > 0
            else None
        )
        if config.self_check:
            self.self_check()
        logger.info(
            "service ready: %d graphs x %s (%d plans hot)",
            len(self.graphs), list(config.techniques), len(self._plans),
        )

    # ------------------------------------------------------------------
    def self_check(self) -> None:
        """Run the structural oracles over every hot plan (startup gate).

        Raises :class:`~repro.errors.VerificationError` on the first
        violating plan — a server that would serve from a broken plan
        must fail readiness, not answer queries.
        """
        with obs_trace.span("serve.startup.self_check", plans=len(self._plans)):
            for (name, technique), plan in self._plans.items():
                verify_plan(self.graphs[name], plan)
                obs_metrics.counter("serve.self_check.plans").inc()
        logger.info("startup self-check passed on %d plans", len(self._plans))

    def plan(self, graph: str, technique: str) -> ExecutionPlan:
        """The hot plan for (graph, technique), building it on first use."""
        key = (graph, technique)
        hot = self._plans.get(key)
        if hot is not None:
            return hot
        if graph not in self.graphs:
            raise ProtocolError(
                f"unknown graph {graph!r}; choose from {sorted(self.graphs)}"
            )
        if technique not in TECHNIQUES:
            raise ProtocolError(f"unknown technique {technique!r}")
        with self._plan_lock:
            hot = self._plans.get(key)
            if hot is None:
                hot = self._plans[key] = build_plan(
                    self.graphs[graph], technique, device=self.config.device
                )
        return hot

    def graphs_info(self) -> dict[str, dict[str, int]]:
        """The loaded graph inventory (the ``graphs`` admin op)."""
        return {
            name: {"nodes": int(g.num_nodes), "edges": int(g.num_edges)}
            for name, g in self.graphs.items()
        }

    # ------------------------------------------------------------------
    def execute(self, req: dict, deadline: Deadline) -> dict:
        """Answer one validated query request; returns the response dict.

        Raises :class:`DeadlineExceeded` on budget expiry and
        :class:`ProtocolError` on bad parameters — the server maps both
        to response statuses.
        """
        from .protocol import response

        op = req["op"]
        graph_name = req.get("graph")
        if not isinstance(graph_name, str) or graph_name not in self.graphs:
            raise ProtocolError(
                f"unknown graph {graph_name!r}; choose from {sorted(self.graphs)}"
            )
        requested = req.get("technique") or self.config.default_technique
        params = {
            k: v
            for k, v in req.items()
            if k not in ("op", "id", "graph", "technique", "deadline_ms")
        }
        technique, params, reason = self.ladder.apply(op, requested, params)
        degraded = bool(reason)
        if degraded:
            obs_metrics.counter("serve.requests.degraded").inc()

        with obs_trace.span(
            "serve.execute", op=op, graph=graph_name, technique=technique
        ):
            fault_point("serve", f"{op}:{graph_name}")
            deadline.check("plan")
            t0 = _now()
            plan = self.plan(graph_name, technique)
            _stage_time("plan", t0)

            deadline.check("solve")
            t0 = _now()
            batch_key = (graph_name, technique)
            if op == "sssp":
                result = self._sssp(plan, params, deadline, batch_key=batch_key)
            elif op == "pr_topk":
                result = self._pr_topk(plan, params, deadline)
            elif op == "bc_node":
                result = self._bc_node(plan, params, deadline, batch_key=batch_key)
            else:  # pragma: no cover - parse_request rejects these
                raise ProtocolError(f"op {op!r} is not a query op")
            _stage_time("solve", t0)

            deadline.check("serialize")
        result["technique"] = technique
        return response(
            req, "ok", result=result, degraded=degraded, degraded_reason=reason
        )

    # ------------------------------------------------------------------
    def _sssp(
        self,
        plan: ExecutionPlan,
        params: dict,
        deadline: Deadline,
        *,
        batch_key: tuple | None = None,
    ) -> dict:
        source = _int_param(params, "source", required=True)
        n = plan.num_original
        if not 0 <= source < n:
            raise ProtocolError(f"source {source} out of range for n={n}")
        target = _int_param(params, "target", required=False)
        if target is not None and not 0 <= target < n:
            raise ProtocolError(f"target {target} out of range for n={n}")

        def solo(src: int, dl: Deadline) -> tuple[np.ndarray, int]:
            res = sssp(
                plan,
                src,
                device=self.config.device,
                runner_factory=deadline_runner_factory(dl),
            )
            return res.values, int(res.iterations)

        if self.batcher is not None and batch_key is not None:

            def batch(sources: list[int], dl: Deadline) -> list:
                res = sssp_batched(
                    plan,
                    sources,
                    device=self.config.device,
                    runner_factory=deadline_runner_factory(dl),
                    deadline=dl,
                )
                return [
                    (res.values[i], int(res.iterations[i]))
                    for i in range(len(sources))
                ]

            (dist, iters), lanes = self.batcher.run(
                ("sssp",) + batch_key, source, deadline, batch, solo
            )
        else:
            (dist, iters), lanes = solo(source, deadline), 1

        out: dict[str, Any] = {"source": source, "iterations": iters}
        if lanes > 1:
            out["batched"] = True
            out["batch_lanes"] = lanes
        if target is not None:
            d = float(dist[target])
            out["target"] = target
            out["reachable"] = bool(np.isfinite(d))
            out["distance"] = d if np.isfinite(d) else None
        else:
            finite = np.isfinite(dist)
            out["reached"] = int(finite.sum())
            out["total_distance"] = float(dist[finite].sum())
        return out

    def _pr_topk(self, plan: ExecutionPlan, params: dict, deadline: Deadline) -> dict:
        k = _int_param(params, "k", required=False)
        k = 10 if k is None else k
        if k < 1:
            raise ProtocolError("k must be >= 1")
        tol = _float_param(params, "tol", default=1e-8)
        if tol <= 0:
            raise ProtocolError("tol must be > 0")
        res = pagerank(
            plan,
            tol=tol,
            device=self.config.device,
            runner_factory=deadline_runner_factory(deadline),
        )
        ranks = res.values
        k = min(k, ranks.size)
        # deterministic top-k: rank descending, node id ascending on ties
        order = np.lexsort((np.arange(ranks.size), -ranks))[:k]
        return {
            "k": int(k),
            "iterations": int(res.iterations),
            "top": [[int(i), float(ranks[i])] for i in order],
        }

    def _bc_node(
        self,
        plan: ExecutionPlan,
        params: dict,
        deadline: Deadline,
        *,
        batch_key: tuple | None = None,
    ) -> dict:
        node = _int_param(params, "node", required=True)
        n = plan.num_original
        if not 0 <= node < n:
            raise ProtocolError(f"node {node} out of range for n={n}")
        num_sources = _int_param(params, "num_sources", required=False)
        num_sources = 8 if num_sources is None else num_sources
        if num_sources < 1:
            raise ProtocolError("num_sources must be >= 1")
        seed = _int_param(params, "seed", required=False)
        seed = 0 if seed is None else seed
        if seed < 0:
            raise ProtocolError("seed must be >= 0")

        def solo(nd: int, dl: Deadline) -> float:
            res = betweenness_centrality(
                plan,
                num_sources=num_sources,
                seed=seed,
                device=self.config.device,
                runner_factory=deadline_runner_factory(dl),
            )
            return float(res.values[nd])

        if self.batcher is not None and batch_key is not None:
            # one BC run answers every node in the group
            def batch(nodes: list[int], dl: Deadline) -> list[float]:
                res = betweenness_centrality(
                    plan,
                    num_sources=num_sources,
                    seed=seed,
                    device=self.config.device,
                    runner_factory=deadline_runner_factory(dl),
                )
                return [float(res.values[nd]) for nd in nodes]

            key = ("bc_node",) + batch_key + (num_sources, seed)
            score, lanes = self.batcher.run(key, node, deadline, batch, solo)
        else:
            score, lanes = solo(node, deadline), 1

        out: dict[str, Any] = {
            "node": node,
            "num_sources": int(num_sources),
            "seed": int(seed),
            "score": score,
        }
        if lanes > 1:
            out["batched"] = True
            out["batch_lanes"] = lanes
        return out


def _now() -> float:
    import time

    return time.perf_counter()


def _stage_time(stage: str, t0: float) -> None:
    obs_metrics.histogram(f"serve.stage.{stage}", STAGE_BUCKETS).observe(
        _now() - t0
    )


def _int_param(params: dict, name: str, *, required: bool) -> int | None:
    value = params.get(name)
    if value is None:
        if required:
            raise ProtocolError(f"missing required param {name!r}")
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProtocolError(f"param {name!r} must be an integer")
    if isinstance(value, float) and not value.is_integer():
        raise ProtocolError(f"param {name!r} must be an integer")
    return int(value)


def _float_param(params: dict, name: str, *, default: float) -> float:
    value = params.get(name)
    if value is None:
        return default
    # bool is an int subclass; NaN/inf survive float() and poison solves
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProtocolError(f"param {name!r} must be a finite number")
    value = float(value)
    import math

    if not math.isfinite(value):
        raise ProtocolError(f"param {name!r} must be a finite number")
    return value
