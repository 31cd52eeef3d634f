"""Deadline propagation: admission, stage boundaries, and sweep loops.

The two satellite guarantees under test:

* a request whose budget is already spent at admission is rejected
  *without* any solver work (the ``solve.sweeps`` counter must not
  move);
* a deadline expiring mid-pipeline releases the worker promptly — the
  request's wall-clock stays bounded by a small multiple of the budget,
  not by time-to-convergence.
"""

from __future__ import annotations

import time

import pytest

from repro.algorithms.bc import betweenness_centrality
from repro.algorithms.sssp import sssp
from repro.core.pipeline import build_plan
from repro.errors import DeadlineExceeded
from repro.obs import metrics as obs_metrics
from repro.serve.deadline import Deadline, DeadlineRunner, deadline_runner_factory


@pytest.fixture(autouse=True)
def _clean_metrics():
    obs_metrics.reset()
    yield
    obs_metrics.reset()


class TestDeadline:
    def test_unbounded_never_expires(self):
        d = Deadline.none()
        assert not d.expired
        assert d.remaining() == float("inf")
        d.check("anywhere")  # must not raise

    def test_from_ms(self):
        d = Deadline.from_ms(250.0)
        assert 0.0 < d.budget <= 0.25
        assert not d.expired

    def test_from_ms_none_is_unbounded(self):
        assert Deadline.from_ms(None).remaining() == float("inf")

    def test_expired_check_raises_with_stage(self):
        d = Deadline(0.0)
        with pytest.raises(DeadlineExceeded, match="admission"):
            d.check("admission")

    def test_expiry_counted_per_stage(self):
        d = Deadline(0.0)
        with pytest.raises(DeadlineExceeded):
            d.check("sweep")
        snap = obs_metrics.snapshot()
        assert snap["counters"]["serve.deadline.expired.sweep"] == 1

    def test_remaining_decreases(self):
        d = Deadline(10.0)
        first = d.remaining()
        time.sleep(0.01)
        assert d.remaining() < first


class TestDeadlineRunner:
    def test_expired_at_admission_runs_zero_sweeps(self, rmat_small):
        """The headline guarantee: an expired budget costs no solver work."""
        plan = build_plan(rmat_small, "exact")
        expired = Deadline(0.0)
        before = obs_metrics.snapshot()["counters"].get("solve.sweeps", 0)
        with pytest.raises(DeadlineExceeded):
            sssp(plan, 0, runner_factory=deadline_runner_factory(expired))
        after = obs_metrics.snapshot()["counters"].get("solve.sweeps", 0)
        assert after == before, "an expired request must not run any sweep"

    def test_unbounded_runner_matches_plain_run(self, rmat_small):
        plan = build_plan(rmat_small, "exact")
        plain = sssp(plan, 0)
        ran = sssp(plan, 0, runner_factory=deadline_runner_factory(Deadline.none()))
        assert (plain.values == ran.values).all()

    def test_mid_pipeline_expiry_bounded_wall_clock(self, rmat_small):
        """An in-flight request notices expiry within one sweep.

        The budget (20 ms) is far below time-to-convergence; the request
        must abandon within a small multiple of the budget plus one
        sweep's work, not run to completion.  The 2 s ceiling is ~100x
        the budget — generous for shared runners, far below the multi-
        second convergence a tiny budget would otherwise burn.
        """
        plan = build_plan(rmat_small, "exact")
        deadline = Deadline(0.020)
        time.sleep(0.025)  # guarantee expiry before the first sweep check
        t0 = time.perf_counter()
        with pytest.raises(DeadlineExceeded):
            sssp(plan, 0, runner_factory=deadline_runner_factory(deadline))
        elapsed = time.perf_counter() - t0
        assert elapsed < 2.0

    @pytest.mark.parametrize("strategy", ["inner", "outer"])
    @pytest.mark.parametrize("num_sources", [1, 4])
    def test_bc_expired_runs_zero_sweeps(self, rmat_small, strategy, num_sources):
        plan = build_plan(rmat_small, "coalescing")
        with pytest.raises(DeadlineExceeded, match="sweep"):
            betweenness_centrality(
                plan,
                num_sources=num_sources,
                strategy=strategy,
                runner_factory=deadline_runner_factory(Deadline(0.0)),
            )
        assert obs_metrics.snapshot()["counters"].get("solve.sweeps", 0) == 0

    def test_bc_checks_once_per_stacked_level(self, rmat_small):
        """Both passes check the deadline at every stacked level, so a
        budget that runs out during the backward pass stops it too."""

        class Counting(Deadline):
            __slots__ = ("checks",)

            def check(self, stage):
                self.checks.append(stage)
                super().check(stage)

        deadline = Counting(None)
        deadline.checks = []
        res = betweenness_centrality(
            rmat_small,
            num_sources=4,
            runner_factory=deadline_runner_factory(deadline),
        )
        depth = max(res.aux["per_source_iterations"])
        assert deadline.checks == ["sweep"] * (2 * depth)

    def test_factory_binds_deadline(self, rmat_small):
        plan = build_plan(rmat_small, "exact")
        d = Deadline(5.0)
        from repro.gpusim.device import K40C

        factory = deadline_runner_factory(d)
        runner = factory(plan, K40C)
        assert isinstance(runner, DeadlineRunner)
        assert runner.deadline is d
