"""Self-tests of the benchmark: names, smoke runs, span arithmetic, and
that a wrong answer is caught.

Run from the checkout root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re

import numpy as np
import pytest

import common
import offline
import run
import serving
import spans
from repro.graphs.generators import paper_suite

NAME = re.compile(r"[A-Za-z0-9_.-]+")
BENCHMARK = json.loads((common.ROOT / "BENCHMARK.json").read_text())


def test_metric_names_match_benchmark_json():
    e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert e2e == common.END_TO_END
    assert per_layer == common.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(common.WORKLOADS)
    for name in list(e2e) + list(per_layer):
        assert NAME.fullmatch(name) and len(name) <= 64


@pytest.fixture
def tiny(monkeypatch):
    """Every workload on the tiny suite."""
    monkeypatch.setitem(offline.SCALES, "offline-preprocess", "tiny")
    monkeypatch.setitem(offline.SCALES, "offline-solve", "tiny")
    monkeypatch.setattr(serving, "SCALE", "tiny")


def _run(capsys, workload: str, trace: int) -> tuple[int, dict, str]:
    code = run.main(
        ["--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", str(trace)]
    )
    out = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(out[-1]), "\n".join(out[:-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", common.WORKLOADS)
def test_smoke_run_prints_every_metric(tiny, capsys, workload, trace):
    code, result, text = _run(capsys, workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = common.PER_LAYER if trace else common.END_TO_END
    assert set(result["metrics"]) == set(wanted)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == wanted[name]
        assert f"metric {name} " in text
        if not trace:
            assert metric["value"] > 0, name


def test_self_time_subtracts_children():
    # root [0, 10] with children [1, 4] and [3, 6] (overlapping) and
    # [8, 12] (clipped at the root's end); grandchild [2, 3] under the first
    tree = [
        (1, 0, "root", 0.0, 10.0, 7),
        (2, 1, "a", 1.0, 4.0, None),
        (3, 1, "b", 3.0, 6.0, None),
        (4, 1, "c", 8.0, 12.0, None),
        (5, 2, "d", 2.0, 3.0, None),
    ]
    selfs = spans.self_times(tree)
    assert selfs["root"] == pytest.approx(10.0 - 5.0 - 2.0)
    assert selfs["a"] == pytest.approx(2.0)
    assert selfs["b"] == pytest.approx(3.0)
    assert selfs["c"] == pytest.approx(4.0)
    assert selfs["d"] == pytest.approx(1.0)
    assert [s[5] for s in spans.resolve_request_ids(tree)] == [7, 7, 7, 7, 7]


def test_host_speed_scales_by_the_nearest_samples():
    host = common.HostSpeed()
    # ten samples on a host at reference speed, then ten at half of it
    host._times = [float(t) for t in range(20)]
    host._seconds = [host.REFERENCE_S] * 10 + [2 * host.REFERENCE_S] * 10
    assert host.scale(1.0, 2.0) == pytest.approx(1.0)
    assert host.scale(17.0, 18.0) == pytest.approx(0.5)
    host.sample()
    assert len(host._seconds) == 21 and host._seconds[-1] > 0


def test_tracer_nests_and_undoes_patches():
    import repro.core.pipeline as pipeline

    original = pipeline.transform_graph
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        assert pipeline.transform_graph is not original
        pipeline.build_plan(paper_suite("tiny", seed=1)["rmat"], "coalescing")
    finally:
        undo()
    assert pipeline.transform_graph is original
    recorded, counters = tracer.take()
    names = [s[2] for s in recorded]
    assert names.count("core.coalesce") == 1
    assert counters["core.edges_added"] >= 0


def test_wrong_offline_answer_fails_the_run(tiny, capsys, monkeypatch):
    import repro.algorithms as alg

    real = alg.sssp

    def off_by_one(plan, source, **kwargs):
        result = real(plan, source, **kwargs)
        result.values = result.values + 1.0
        return result

    monkeypatch.setattr(alg, "sssp", off_by_one)
    code, result, _ = _run(capsys, "offline-solve", 0)
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] >= 1


def test_wrong_serve_answer_counts_as_failed():
    ref = serving.Reference(paper_suite("tiny", seed=3))
    req = {"op": "sssp", "graph": "rmat", "source": 0, "target": 5, "id": 1}
    right = ref.answer(req, "exact")
    queries = []
    for distance in (right["distance"], (right["distance"] or 0.0) + 1.0):
        result = dict(right, distance=distance, technique="exact")
        queries.append(
            serving.Query(dict(req), resp={"status": "ok", "result": result})
        )
    queries.append(serving.Query(dict(req), resp={"status": "overloaded"}))
    outcome = common.Outcome()
    serving.check_answers(queries, ref, outcome)
    assert outcome.attempted == 3
    assert outcome.failed == 2
    assert len(outcome.wrong) == 1
    assert [q.ok for q in queries] == [True, False, False]


def test_exact_check_compares_against_scipy():
    suite = paper_suite("tiny", seed=2)
    graph = suite["usa-road"]
    inp = offline.SolveInputs(source=0, sources=np.array([0, 1]))
    refs = offline._scipy_references(graph, inp)
    plan = offline.pipeline.build_plan(graph, "exact")
    for cell in ("sssp", "bfs", "wcc", "sssp_batched"):
        result = offline.run_cell(cell, plan, inp)
        assert offline.check_exact(cell, result, refs)
        result.values = np.asarray(result.values, dtype=np.float64) * 2 + 1
        assert not offline.check_exact(cell, result, refs)
