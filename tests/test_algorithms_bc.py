"""Unit tests for betweenness centrality (Brandes, sampled sources)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.bc import betweenness_centrality, pick_sources
from repro.algorithms.exact import exact_bc
from repro.core.pipeline import build_plan
from repro.errors import AlgorithmError
from repro.graphs.csr import CSRGraph


class TestPickSources:
    def test_deterministic(self):
        a = pick_sources(100, 5, seed=3)
        b = pick_sources(100, 5, seed=3)
        assert np.array_equal(a, b)

    def test_capped_at_n(self):
        assert pick_sources(3, 10).size == 3

    def test_distinct(self):
        s = pick_sources(50, 20, seed=1)
        assert np.unique(s).size == s.size

    def test_invalid_count(self):
        with pytest.raises(AlgorithmError):
            pick_sources(10, 0)


class TestExactness:
    def test_matches_brandes_reference(self, all_structures):
        for name, g in all_structures.items():
            srcs = pick_sources(g.num_nodes, 3, seed=2)
            res = betweenness_centrality(g, sources=srcs)
            ref = exact_bc(g, srcs)
            assert np.allclose(res.values, ref, atol=1e-9), name

    def test_path_graph_center_highest(self):
        g = CSRGraph.from_edges(5, [0, 1, 2, 3], [1, 2, 3, 4])
        res = betweenness_centrality(g, sources=np.arange(5))
        # middle node lies on the most shortest paths
        assert np.argmax(res.values) == 2

    def test_star_center_zero_leaves(self):
        g = CSRGraph.from_edges(4, [0, 0, 0], [1, 2, 3])
        res = betweenness_centrality(g, sources=np.arange(4))
        assert res.values[1] == 0 and res.values[3] == 0

    def test_source_validation(self, tiny_graph):
        with pytest.raises(AlgorithmError):
            betweenness_centrality(tiny_graph, sources=np.array([99]))
        with pytest.raises(AlgorithmError):
            betweenness_centrality(tiny_graph, sources=np.array([], dtype=np.int64))

    def test_sources_recorded_in_aux(self, tiny_graph):
        srcs = np.array([0, 3], dtype=np.int64)
        res = betweenness_centrality(tiny_graph, sources=srcs)
        assert np.array_equal(res.aux["sources"], srcs)

    def test_more_sources_more_coverage(self, rmat_small):
        few = betweenness_centrality(rmat_small, num_sources=2, seed=0)
        many = betweenness_centrality(rmat_small, num_sources=8, seed=0)
        assert many.values.sum() >= few.values.sum()


class TestKernelStyles:
    def test_topology_driven_costs_more(self, rmat_small):
        srcs = pick_sources(rmat_small.num_nodes, 2, seed=1)
        frontier = betweenness_centrality(rmat_small, sources=srcs)
        topo = betweenness_centrality(
            rmat_small, sources=srcs, topology_driven=True
        )
        assert np.allclose(frontier.values, topo.values)  # same result
        assert topo.cycles > frontier.cycles  # different cost

    def test_iterations_counts_levels(self, road_small):
        srcs = pick_sources(road_small.num_nodes, 2, seed=1)
        res = betweenness_centrality(road_small, sources=srcs)
        assert res.iterations >= 2  # deep graph: many levels


class TestApproximate:
    @pytest.mark.parametrize("technique", ["coalescing", "shmem", "divergence"])
    def test_technique_result_sane(self, social_small, technique):
        srcs = pick_sources(social_small.num_nodes, 3, seed=4)
        plan = build_plan(social_small, technique)
        exact = betweenness_centrality(social_small, sources=srcs)
        approx = betweenness_centrality(plan, sources=srcs)
        assert approx.values.size == social_small.num_nodes
        assert (approx.values >= -1e-9).all()
        # ranking of top-central nodes largely survives
        k = 10
        top_e = set(np.argsort(-exact.values)[:k].tolist())
        top_a = set(np.argsort(-approx.values)[:k].tolist())
        assert len(top_e & top_a) >= k // 3

    def test_replica_level_sync(self, social_small):
        """With coalescing, every replica group must be explored as one
        node (a moved-out edge still fires) — reachability in the forward
        pass matches the exact BFS."""
        from repro.core.knobs import CoalescingKnobs

        plan = build_plan(
            social_small,
            "coalescing",
            coalescing=CoalescingKnobs(connectedness_threshold=0.3),
        )
        src = int(np.argmax(social_small.out_degrees()))
        exact = betweenness_centrality(
            social_small, sources=np.array([src])
        )
        approx = betweenness_centrality(plan, sources=np.array([src]))
        # nodes with positive exact BC were on shortest paths and must be
        # reached in the approximate run as well (nonzero or touched)
        reached_exact = exact.values > 0
        assert approx.values.size == exact.values.size
        assert (approx.values[reached_exact] >= 0).all()


class TestStrategies:
    def test_outer_same_values_fewer_cycles(self, rmat_small):
        """The §2 parallelization choice: outer batching yields identical
        scores at lower simulated cost (fuller warps) — the paper picked
        inner for memory reasons our simulator does not model."""
        from repro.algorithms.bc import betweenness_centrality as bc_fn

        srcs = pick_sources(rmat_small.num_nodes, 4, seed=3)
        inner = bc_fn(rmat_small, sources=srcs, strategy="inner")
        outer = bc_fn(rmat_small, sources=srcs, strategy="outer")
        assert np.allclose(inner.values, outer.values)
        assert outer.cycles < inner.cycles

    def test_unknown_strategy(self, rmat_small):
        with pytest.raises(AlgorithmError):
            betweenness_centrality(rmat_small, strategy="diagonal")

    def test_outer_works_on_plans(self, rmat_small):
        plan = build_plan(rmat_small, "coalescing")
        srcs = pick_sources(rmat_small.num_nodes, 2, seed=1)
        res = betweenness_centrality(plan, sources=srcs, strategy="outer")
        assert res.values.size == rmat_small.num_nodes


class TestBackwardReusesForwardCosts:
    """Unscheduled BC prices each forward level once; the backward pass
    ledgers those costs again instead of re-pricing the same sweeps."""

    @pytest.fixture
    def priced_sweeps(self, monkeypatch):
        import repro.gpusim.kernel as kernel
        import repro.perf.batched as batched

        count = {"n": 0}

        def counted(fn, per_call):
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                count["n"] += per_call(out)
                return out

            return wrapper

        monkeypatch.setattr(
            kernel, "charge_sweep", counted(kernel.charge_sweep, lambda _: 1)
        )
        monkeypatch.setattr(
            kernel,
            "charge_sweeps_batched",
            counted(kernel.charge_sweeps_batched, len),
        )
        monkeypatch.setattr(
            batched, "charge_sweep", counted(batched.charge_sweep, lambda _: 1)
        )
        monkeypatch.setattr(
            batched,
            "charge_lane_sweeps",
            counted(batched.charge_lane_sweeps, len),
        )
        return count

    @pytest.mark.parametrize("engine", ["gather", "batched"])
    def test_each_level_priced_once(self, rmat_small, priced_sweeps, engine):
        res = betweenness_centrality(rmat_small, num_sources=4, engine=engine)
        ref = betweenness_centrality(rmat_small, num_sources=4, engine="reference")
        assert priced_sweeps["n"] == res.iterations + ref.metrics.num_sweeps
        assert res.metrics.num_sweeps == 2 * res.iterations
        assert res.metrics.total == ref.metrics.total
