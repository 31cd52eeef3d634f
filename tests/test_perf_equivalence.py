"""Engine-vs-reference equivalence: the frontier-gather engine's contract.

The ``repro.perf`` engine is a pure host-side optimisation: for every
solver it must produce **byte-identical values, identical iteration
counts, and identical SimMetrics charges** to the pre-refactor reference
paths preserved in :mod:`repro.perf.reference`.  BC has one engine,
which stacks its sources as lanes: its reference is the same sources
run one per call, lane by lane.  These tests pin that contract across
every plan technique (exact, coalescing, shmem, divergence) and both BC
parallelization strategies.

Byte-identical means ``tobytes()`` equality — stricter than
``np.array_equal`` (distinguishes ``-0.0`` from ``0.0`` and NaN
payloads), because the engine claims the *same floating-point
operations in the same order*, not merely the same mathematical result.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.bc import betweenness_centrality, pick_sources
from repro.algorithms.sssp import sssp
from repro.algorithms.wcc import wcc
from repro.core.pipeline import build_plan
from repro.perf.reference import sssp_reference, wcc_reference
from repro.verify.differential import bc_lane_violations

TECHNIQUES = ("exact", "coalescing", "shmem", "divergence")


def _plan_for(graph, technique):
    if technique == "exact":
        return graph
    return build_plan(graph, technique)


def assert_identical(engine_res, reference_res):
    """Byte-identical values + identical iterations and charges."""
    assert engine_res.values.dtype == reference_res.values.dtype
    assert engine_res.values.tobytes() == reference_res.values.tobytes()
    assert engine_res.iterations == reference_res.iterations
    assert engine_res.metrics.num_sweeps == reference_res.metrics.num_sweeps
    # SweepCost is a frozen dataclass: == compares every charge field,
    # including the final cycle count
    assert engine_res.metrics.total == reference_res.metrics.total


@pytest.mark.parametrize("technique", TECHNIQUES)
class TestSSSPEquivalence:
    def test_rmat(self, rmat_small, technique):
        plan = _plan_for(rmat_small, technique)
        source = int(np.argmax(rmat_small.out_degrees()))
        assert_identical(sssp(plan, source), sssp_reference(plan, source))

    def test_road(self, road_small, technique):
        plan = _plan_for(road_small, technique)
        assert_identical(sssp(plan, 0), sssp_reference(plan, 0))


@pytest.mark.parametrize("technique", TECHNIQUES)
class TestWCCEquivalence:
    def test_rmat(self, rmat_small, technique):
        plan = _plan_for(rmat_small, technique)
        eng, ref = wcc(plan), wcc_reference(plan)
        assert_identical(eng, ref)
        assert eng.aux["num_components"] == ref.aux["num_components"]


def assert_lanes_match_solo(plan, stacked, sources, **kwargs):
    """Stacked BC lanes == the same sources run one per call: per-lane
    charges and level counts bit for bit, scores summed in source order."""
    assert bc_lane_violations(
        stacked,
        sources,
        "bc",
        lambda s: betweenness_centrality(plan, sources=[s], **kwargs),
    ) == []


@pytest.mark.parametrize("technique", TECHNIQUES)
@pytest.mark.parametrize("strategy", ["inner", "outer"])
class TestBCEquivalence:
    def test_rmat(self, rmat_small, technique, strategy):
        plan = _plan_for(rmat_small, technique)
        sources = pick_sources(rmat_small.num_nodes, 4, seed=1)
        inner = betweenness_centrality(plan, sources=sources)
        assert_lanes_match_solo(plan, inner, sources)
        if strategy == "outer":
            # outer merges each level's lanes into one sweep: the same
            # traversal, so the same scores and levels, fewer sweeps
            outer = betweenness_centrality(plan, sources=sources, strategy="outer")
            assert outer.values.tobytes() == inner.values.tobytes()
            assert outer.iterations == inner.iterations
            assert (
                outer.aux["per_source_iterations"]
                == inner.aux["per_source_iterations"]
            )
            assert "per_source_metrics" not in outer.aux
            assert outer.metrics.num_sweeps < inner.metrics.num_sweeps


@pytest.mark.parametrize("technique", TECHNIQUES)
@pytest.mark.parametrize("schedule", ["push", "pull", "direction-optimizing"])
class TestScheduleEquivalence:
    """Schedules are cost-model-only: under ANY schedule the engine must
    still match the reference paths byte-for-byte in values and
    iteration counts — including Graffix plans with replica groups —
    and a pull sweep's *charges* must be bit-faithful to its own
    schedule (reproducible), while push-pinned charges coincide with
    the reference exactly."""

    def test_sssp_values_match_reference(self, rmat_small, technique, schedule):
        plan = _plan_for(rmat_small, technique)
        source = int(np.argmax(rmat_small.out_degrees()))
        eng = sssp(plan, source, schedule=schedule)
        ref = sssp_reference(plan, source)
        assert eng.values.dtype == ref.values.dtype
        assert eng.values.tobytes() == ref.values.tobytes()
        assert eng.iterations == ref.iterations
        if schedule == "push":
            assert_identical(eng, ref)
        else:
            # non-push charges differ from the reference by design but
            # must be deterministic per schedule
            again = sssp(plan, source, schedule=schedule)
            assert eng.metrics.total == again.metrics.total

    def test_sssp_road(self, road_small, technique, schedule):
        plan = _plan_for(road_small, technique)
        eng = sssp(plan, 0, schedule=schedule)
        ref = sssp_reference(plan, 0)
        assert eng.values.tobytes() == ref.values.tobytes()
        assert eng.iterations == ref.iterations

    def test_bc_values_match_reference(self, rmat_small, technique, schedule):
        # reference: the same sources, unscheduled, one per call
        plan = _plan_for(rmat_small, technique)
        sources = pick_sources(rmat_small.num_nodes, 4, seed=1)
        eng = betweenness_centrality(plan, sources=sources, schedule=schedule)
        if schedule == "push":
            assert_lanes_match_solo(plan, eng, sources)
        else:
            ref = betweenness_centrality(plan, sources=sources)
            assert eng.values.dtype == ref.values.dtype
            assert eng.values.tobytes() == ref.values.tobytes()
            assert eng.iterations == ref.iterations
            assert_lanes_match_solo(plan, eng, sources, schedule=schedule)


class TestBCEngineValidation:
    def test_unknown_engine_rejected(self, tiny_graph):
        # there is one engine: the old switch is not an argument any more
        with pytest.raises(TypeError, match="engine"):
            betweenness_centrality(tiny_graph, num_sources=1, engine="gather")

    def test_topology_driven_equivalence(self, rmat_small):
        sources = pick_sources(rmat_small.num_nodes, 2, seed=0)
        eng = betweenness_centrality(
            rmat_small, sources=sources, topology_driven=True
        )
        assert_lanes_match_solo(rmat_small, eng, sources, topology_driven=True)
