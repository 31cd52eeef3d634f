"""Unit tests for the ``repro.perf`` kernel engine primitives."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.graphs.csr import CSRGraph
from repro.obs import metrics as obs_metrics
from repro.perf.bench import check_regressions, main as perf_main, run_bench
from repro.perf.edgeshare import edge_view_cache, shared_edge_view
from repro.perf.gather import frontier_edges
from repro.perf.workspace import (
    WorkspacePool,
    pool,
    reset_pool,
    scatter_min_changed,
)


@pytest.fixture()
def chain_graph():
    # 0->1,0->2, 1->3, 2 has no out-edges, 3->0
    return CSRGraph.from_edges(4, [0, 0, 1, 3], [1, 2, 3, 0], [1.0, 2.0, 3.0, 4.0])


class TestFrontierEdges:
    def test_matches_full_edge_mask(self, rmat_small):
        g = rmat_small
        src_all = g.edge_sources()
        frontier = np.arange(0, g.num_nodes, 3, dtype=np.int64)
        e_src, e_dst, epos = frontier_edges(g.offsets, g.indices, frontier)
        mask = np.isin(src_all, frontier)
        assert np.array_equal(e_src, src_all[mask])
        assert np.array_equal(e_dst, g.indices[mask])
        # epos is the global edge position: indexes any parallel attribute
        assert np.array_equal(epos, np.nonzero(mask)[0])
        assert np.array_equal(g.effective_weights()[epos],
                              g.effective_weights()[mask])

    def test_sorted_frontier_yields_global_edge_order(self, rmat_small):
        g = rmat_small
        frontier = np.unique(
            np.random.default_rng(0).integers(0, g.num_nodes, 20)
        )
        _, _, epos = frontier_edges(g.offsets, g.indices, frontier)
        assert np.all(np.diff(epos) > 0)

    def test_empty_and_degree_zero(self, chain_graph):
        e_src, e_dst, epos = frontier_edges(
            chain_graph.offsets, chain_graph.indices, np.empty(0, np.int64)
        )
        assert e_src.size == e_dst.size == epos.size == 0
        # node 2 has no out-edges
        e_src, e_dst, _ = frontier_edges(
            chain_graph.offsets, chain_graph.indices, np.array([2], np.int64)
        )
        assert e_src.size == 0

    def test_counters(self, chain_graph):
        calls = obs_metrics.counter("perf.gather.calls").value
        edges = obs_metrics.counter("perf.gather.edges").value
        frontier_edges(
            chain_graph.offsets, chain_graph.indices, np.array([0, 1], np.int64)
        )
        assert obs_metrics.counter("perf.gather.calls").value == calls + 1
        assert obs_metrics.counter("perf.gather.edges").value == edges + 3


class TestWorkspacePool:
    def test_reuse_and_growth(self):
        p = WorkspacePool()
        a = p.borrow("t.x", 8)
        a[:] = 1.0
        b = p.borrow("t.x", 4)
        assert b.base is a.base or b.base is a  # same backing buffer
        big = p.borrow("t.x", 16)
        assert big.size == 16  # grew
        assert p.borrow("t.x", 16).base is big.base or True

    def test_dtype_change_reallocates(self):
        p = WorkspacePool()
        f = p.borrow("t.y", 4, np.float64)
        i = p.borrow("t.y", 4, np.int64)
        assert i.dtype == np.int64
        assert f.dtype == np.float64

    def test_counters_and_reset(self):
        reset_pool()
        alloc0 = obs_metrics.counter("perf.workspace.alloc").value
        reuse0 = obs_metrics.counter("perf.workspace.reuse").value
        pool().borrow("t.z", 4)
        pool().borrow("t.z", 4)
        assert obs_metrics.counter("perf.workspace.alloc").value == alloc0 + 1
        assert obs_metrics.counter("perf.workspace.reuse").value == reuse0 + 1
        reset_pool()
        pool().borrow("t.z", 4)
        assert obs_metrics.counter("perf.workspace.alloc").value == alloc0 + 2


class TestScatterMinChanged:
    def test_matches_snapshot_semantics(self):
        rng = np.random.default_rng(2)
        values = rng.uniform(0, 10, 50)
        idx = rng.integers(0, 50, 200)
        cand = rng.uniform(0, 10, 200)
        snapshot = values.copy()
        changed = scatter_min_changed(values, idx, cand, key="t.smc")
        ref = snapshot.copy()
        np.minimum.at(ref, idx, cand)
        assert np.array_equal(values, ref)
        # mask == "this record's destination strictly improved", exactly
        # what the full-snapshot idiom derived at O(V) per sweep
        assert np.array_equal(changed, values[idx] < snapshot[idx])

    def test_mask_marks_all_records_of_improved_dst(self):
        values = np.array([5.0, 5.0])
        idx = np.array([0, 0, 1])
        cand = np.array([7.0, 3.0, 9.0])
        changed = scatter_min_changed(values, idx, cand, key="t.smc2")
        # dst 0 improved (3 < 5): both records touching 0 are marked
        assert changed[0] and changed[1]
        assert not changed[2]
        assert np.array_equal(values, [3.0, 5.0])

    def test_empty(self):
        values = np.array([1.0])
        changed = scatter_min_changed(
            values, np.empty(0, np.int64), np.empty(0), key="t.smc3"
        )
        assert changed.size == 0


class TestSharedEdgeView:
    def test_content_keyed_sharing(self, rmat_small):
        v1 = shared_edge_view(rmat_small)
        v2 = shared_edge_view(rmat_small.copy())
        assert v1 is v2

    def test_distinct_content_distinct_views(self, rmat_small, er_small):
        assert shared_edge_view(rmat_small) is not shared_edge_view(er_small)

    def test_hit_counter(self, rmat_small):
        shared_edge_view(rmat_small)  # ensure resident
        hits = obs_metrics.counter("perf.edgeview.hit").value
        shared_edge_view(rmat_small)
        assert obs_metrics.counter("perf.edgeview.hit").value == hits + 1

    def test_view_consistency(self, rmat_small):
        view = shared_edge_view(rmat_small)
        assert np.array_equal(view.src, rmat_small.edge_sources())
        assert np.array_equal(view.dst, rmat_small.indices)
        assert np.array_equal(view.weights, rmat_small.effective_weights())
        assert view.src.size == rmat_small.num_edges
        assert rmat_small.fingerprint() in edge_view_cache()


class TestBenchHarness:
    def test_run_bench_tiny(self):
        report = run_bench("tiny", repeats=1, graphs=["rmat"])
        assert report["schema"] == 1
        kernels = {r["kernel"] for r in report["kernels"]}
        assert {"bc", "sssp", "wcc", "bfs", "pagerank", "gunrock_sssp"} <= kernels
        bc = next(r for r in report["kernels"] if r["kernel"] == "bc")
        assert bc["seconds"] > 0
        assert "speedup_vs_reference" not in bc  # one BC engine, no reference
        assert set(report["aggregate_speedup_vs_reference"]) == {"sssp", "wcc"}
        # the batched row's looped side: the same sources, one per call
        stacked = next(r for r in report["kernels"] if r["kernel"] == "bc@batched")
        assert stacked["looped_seconds"] > 0
        assert stacked["speedup_vs_looped"] > 0

    def test_check_regressions(self):
        row = {"kernel": "bc", "graph": "rmat", "seconds": 1.0}
        base = {"kernels": [dict(row, seconds=0.4)]}
        cur = {"kernels": [row]}
        assert check_regressions(cur, base, max_regression=2.0)
        assert not check_regressions(cur, base, max_regression=3.0)
        # kernels absent from the baseline never fail the gate
        cur2 = {"kernels": [dict(row, graph="new-graph")]}
        assert not check_regressions(cur2, base, max_regression=2.0)

    def test_cli_writes_report_and_gates(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        status = perf_main(
            ["--scale", "tiny", "--repeats", "1", "--graphs", "rmat",
             "--out", str(out)]
        )
        assert status == 0
        report = json.loads(out.read_text())
        assert report["kernels"]
        # self-check against the report just written: nothing regressed
        status = perf_main(
            ["--scale", "tiny", "--repeats", "1", "--graphs", "rmat",
             "--out", str(out), "--check", str(out), "--max-regression", "1000"]
        )
        assert status == 0
        assert "no kernel regressed" in capsys.readouterr().out

    def test_cli_min_bc_speedup_gate_fails_when_unreachable(self, tmp_path):
        out = tmp_path / "bench.json"
        status = perf_main(
            ["--scale", "tiny", "--repeats", "1", "--graphs", "rmat",
             "--out", str(out), "--min-bc-speedup", "1e9"]
        )
        assert status == 1
