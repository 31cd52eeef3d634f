"""Serve-layer SLO observatory: admin ops, burn-driven degradation,
and `bench serve` slo: gating."""

from __future__ import annotations

import json

import pytest

from repro.errors import DeadlineExceeded, Overloaded
from repro.obs import metrics as obs_metrics
from repro.obs.slo import SLOTracker, default_serve_slos
from repro.serve.degrade import DegradationLadder
from repro.serve.protocol import ADMIN_OPS, ServeClient
from repro.serve.server import ReproServer
from repro.serve.service import ServeConfig


@pytest.fixture(scope="module")
def server():
    srv = ReproServer(ServeConfig(scale="tiny", seed=7, workers=2))
    srv.start()
    yield srv
    srv.stop(drain=False)


@pytest.fixture
def client(server):
    with ServeClient("127.0.0.1", server.port) as c:
        yield c


class TestMetricsOp:
    def test_metrics_is_admin(self):
        assert "metrics" in ADMIN_OPS and "slo" in ADMIN_OPS

    def test_prometheus_exposition_over_the_wire(self, client):
        # drive at least one analytics request so histograms exist
        client.request({"op": "pr_topk", "graph": "rmat", "k": 3})
        resp = client.request({"op": "metrics"})
        assert resp["status"] == "ok"
        assert resp["result"]["content_type"].startswith("text/plain")
        text = resp["result"]["text"]
        from test_obs_slo import parse_prometheus

        samples = parse_prometheus(text)
        assert samples["serve_requests_total"] >= 1
        assert any(
            k.startswith("serve_request_time_bucket") for k in samples
        )
        inf_key = 'serve_request_time_bucket{le="+Inf"}'
        assert samples[inf_key] == samples["serve_request_time_count"]

    def test_slo_op_shape(self, client):
        client.request({"op": "pr_topk", "graph": "rmat", "k": 3})
        resp = client.request({"op": "slo"})
        assert resp["status"] == "ok"
        status = resp["result"]
        assert {s["name"] for s in status["slos"]} == {"latency", "availability"}
        assert "burn_rate" in status
        for s in status["slos"]:
            assert "windows" in s and "burning" in s

    def test_health_reports_burn(self, client):
        resp = client.request({"op": "health"})
        assert "slo_burn_rate" in resp["result"]


class TestBurnDrivesLadder:
    def test_burn_rate_steps_ladder_up(self):
        ladder = DegradationLadder(
            level1_wait_seconds=0.05, level2_wait_seconds=0.2,
            level2_burn_rate=8.0, ewma_alpha=1.0,
        )
        # no wait, empty queue — but burning budget 16x: full level-2
        # pressure (16/8 * 0.2s = 0.4s signal)
        assert ladder.observe(0.0, 0.0, burn_rate=16.0) == 2

    def test_half_burn_reaches_level_one(self):
        ladder = DegradationLadder(
            level1_wait_seconds=0.05, level2_wait_seconds=0.2,
            level2_burn_rate=8.0, ewma_alpha=1.0,
        )
        # burn 4 of 8 -> signal 0.1s: above level1, below level2
        assert ladder.observe(0.0, 0.0, burn_rate=4.0) == 1

    def test_zero_burn_is_backward_compatible(self):
        ladder = DegradationLadder(ewma_alpha=1.0)
        assert ladder.observe(0.0, 0.0) == 0

    def test_bad_burn_threshold_rejected(self):
        with pytest.raises(ValueError):
            DegradationLadder(level2_burn_rate=0.0)

    def test_failing_requests_raise_server_burn(self):
        """End-to-end: errors move the tracker, tracker feeds health."""
        import time

        srv = ReproServer(
            ServeConfig(scale="tiny", seed=7, workers=2, self_check=False)
        )
        srv.start()
        try:
            with ServeClient("127.0.0.1", srv.port) as c:
                c.request({"op": "pr_topk", "graph": "rmat", "k": 3})
                time.sleep(srv.slo_tracker.tick_seconds + 0.05)
                for _ in range(20):
                    # unknown graph -> error status -> availability burn
                    c.request({"op": "pr_topk", "graph": "nope", "k": 3})
                time.sleep(srv.slo_tracker.tick_seconds + 0.05)
                c.request({"op": "pr_topk", "graph": "rmat", "k": 3})
                health = c.request({"op": "health"})["result"]
            assert health["slo_burn_rate"] > 1.0
        finally:
            srv.stop(drain=False)


class TestLoadgenSLOGating:
    def _spec(self, slo_block):
        return {
            "name": "slo-gate-test",
            "server": {"scale": "tiny", "seed": 7, "workers": 2,
                       "self_check": False},
            "clients": 2,
            "requests": 20,
            "seed": 99,
            "deadline_ms": 5000.0,
            "verify": False,
            "queries": [{"op": "pr_topk", "graph": "rmat", "ratio": 1.0, "k": 3}],
            "kpis": [],
            "slo": slo_block,
        }

    def test_passing_slo_gates(self):
        from repro.serve.loadgen import run_spec

        obs_metrics.reset()
        report = run_spec(
            self._spec(
                [
                    {"name": "availability", "target": 0.5,
                     "good_counter": "serve.requests.ok",
                     "total_counter": "serve.queries.total"},
                ]
            )
        )
        gates = {g["metric"]: g for g in report["kpis"]}
        gate = gates["slo:availability:compliance"]
        assert gate["pass"] is True
        assert report["slo"][0]["name"] == "availability"
        assert report["ok"] is True

    def test_unmeetable_slo_fails_the_run(self):
        from repro.serve.loadgen import run_spec

        obs_metrics.reset()
        report = run_spec(
            self._spec(
                [
                    # nothing is faster than 1ms at q=99.9%: must fail
                    {"name": "latency", "indicator": "serve.request.time",
                     "threshold_ms": 0.0001, "target": 0.999,
                     "max_burn_rate": 0.001},
                ]
            )
        )
        gates = {g["metric"]: g for g in report["kpis"]}
        assert gates["slo:latency:compliance"]["pass"] is False
        assert gates["slo:latency:burn_rate"]["pass"] is False
        assert report["ok"] is False

    def test_slo_block_survives_report_json(self, tmp_path):
        from repro.serve.loadgen import run_spec

        obs_metrics.reset()
        report = run_spec(
            self._spec(
                [{"name": "availability", "target": 0.5,
                  "good_counter": "serve.requests.ok",
                  "total_counter": "serve.queries.total"}]
            )
        )
        out = tmp_path / "BENCH_SERVE.json"
        out.write_text(json.dumps(report, indent=2))
        doc = json.loads(out.read_text())
        assert doc["slo"][0]["compliance"] >= 0.5


class TestAvailabilityDenominator:
    """``serve.queries.total`` counts a query when it ends, with its
    outcome: a query still in flight is neither good nor bad."""

    @pytest.fixture
    def srv(self):
        srv = ReproServer(
            ServeConfig(scale="tiny", seed=7, workers=2, self_check=False)
        )
        clock = {"t": 0.0}
        srv.slo_tracker = SLOTracker(
            default_serve_slos(), clock=lambda: clock["t"]
        )
        srv.clock = clock
        yield srv
        srv.stop(drain=False)

    @staticmethod
    def _tick(srv) -> float:
        srv.clock["t"] += 1.0
        return srv.slo_tracker.observe()

    @staticmethod
    def _query(srv) -> dict:
        return srv.handle_line(b'{"op": "pr_topk", "graph": "rmat", "k": 3}')

    def test_query_blocked_in_execute_burns_nothing(self, srv, monkeypatch):
        import threading

        entered, release = threading.Event(), threading.Event()
        real_execute = srv.service.execute

        def blocking(req, deadline):
            entered.set()
            assert release.wait(30)
            return real_execute(req, deadline)

        monkeypatch.setattr(srv.service, "execute", blocking)
        self._tick(srv)
        replies = []
        worker = threading.Thread(target=lambda: replies.append(self._query(srv)))
        worker.start()
        try:
            assert entered.wait(30)
            assert self._tick(srv) == 0.0
            assert srv.slo_tracker.status()["slos"][1]["windows"]["10s"] == 0.0
        finally:
            release.set()
            worker.join(30)
        assert replies[0]["status"] == "ok"
        assert self._tick(srv) == 0.0

    @pytest.mark.parametrize(
        "failure, status",
        [
            (Overloaded("queue full"), "overloaded"),
            (DeadlineExceeded("too slow"), "timeout"),
            (RuntimeError("boom"), "error"),
        ],
    )
    def test_failed_replies_still_burn(self, srv, monkeypatch, failure, status):
        def failing(req, deadline):
            raise failure

        monkeypatch.setattr(srv.service, "execute", failing)
        self._tick(srv)
        assert self._query(srv)["status"] == status
        assert self._tick(srv) > 1.0

    def test_draining_replies_still_burn(self, srv):
        self._tick(srv)
        srv._draining.set()
        assert self._query(srv)["status"] == "shutting_down"
        assert self._tick(srv) > 1.0
