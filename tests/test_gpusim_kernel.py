"""Unit tests for ExecutionContext and SimMetrics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.gpusim.costmodel import SweepCost
from repro.gpusim.device import K40C, DeviceConfig
from repro.gpusim.kernel import ExecutionContext
from repro.gpusim.metrics import SimMetrics
from repro.perf.gather import expand_frontier


class TestExecutionContext:
    def test_default_order_identity(self, tiny_graph):
        ctx = ExecutionContext(tiny_graph)
        assert np.array_equal(ctx.order, np.arange(tiny_graph.num_nodes))

    def test_custom_order_respected(self, tiny_graph):
        order = np.arange(tiny_graph.num_nodes)[::-1].copy()
        ctx = ExecutionContext(tiny_graph, order=order)
        assert np.array_equal(ctx.order, order)
        # ordered() must sort actives by their rank in the order
        active = np.array([0, 19], dtype=np.int64)
        assert list(ctx.ordered(active)) == [19, 0]

    def test_order_must_be_permutation(self, tiny_graph):
        with pytest.raises(SimulationError):
            ExecutionContext(tiny_graph, order=np.zeros(tiny_graph.num_nodes, dtype=int))
        with pytest.raises(SimulationError):
            ExecutionContext(tiny_graph, order=np.arange(3))

    def test_ordered_with_bool_mask(self, tiny_graph):
        ctx = ExecutionContext(tiny_graph)
        mask = np.zeros(tiny_graph.num_nodes, dtype=bool)
        mask[[3, 7]] = True
        assert list(ctx.ordered(mask)) == [3, 7]

    def test_ordered_mask_wrong_length(self, tiny_graph):
        ctx = ExecutionContext(tiny_graph)
        with pytest.raises(SimulationError):
            ctx.ordered(np.ones(3, dtype=bool))

    def test_charge_accumulates(self, tiny_graph):
        ctx = ExecutionContext(tiny_graph)
        c1 = ctx.charge()
        c2 = ctx.charge(np.array([0, 1]))
        assert ctx.metrics.num_sweeps == 2
        assert ctx.metrics.cycles == c1.cycles + c2.cycles

    def test_charge_subgraph(self, tiny_graph, rmat_small):
        ctx = ExecutionContext(rmat_small)
        sub_cost = ctx.charge(
            np.arange(tiny_graph.num_nodes), subgraph=tiny_graph
        )
        assert sub_cost.atomic_ops == tiny_graph.num_edges

    def test_resident_mask_checked(self, tiny_graph):
        with pytest.raises(SimulationError):
            ExecutionContext(tiny_graph, resident_mask=np.ones(2, dtype=bool))

    def test_processing_order_changes_cost(self, rmat_small):
        """Warp composition follows the order — a degree-grouped order
        must yield fewer serialized steps than a random one."""
        from repro.core.divergence import bucket_order

        rng = np.random.default_rng(1)
        random_order = rng.permutation(rmat_small.num_nodes)
        c_random = ExecutionContext(rmat_small, order=random_order)
        c_random.charge()
        grouped = ExecutionContext(rmat_small, order=bucket_order(rmat_small, 16))
        grouped.charge()
        assert (
            grouped.metrics.total.serial_steps
            < c_random.metrics.total.serial_steps
        )


class TestSimMetrics:
    def test_add_and_merge(self):
        m1 = SimMetrics(device=K40C)
        m1.add(SweepCost(cycles=10.0, atomic_ops=1))
        m2 = SimMetrics(device=K40C)
        m2.add(SweepCost(cycles=5.0, atomic_ops=2))
        m1.merge(m2)
        assert m1.cycles == 15.0
        assert m1.num_sweeps == 2
        assert m1.total.atomic_ops == 3

    def test_seconds_scaling(self):
        d = DeviceConfig(num_sms=1, warps_per_sm=1, clock_ghz=1.0)
        m = SimMetrics(device=d)
        m.add(SweepCost(cycles=2e9))
        assert m.seconds == pytest.approx(2.0)

    def test_shared_fraction(self):
        m = SimMetrics(device=K40C)
        m.add(SweepCost(attr_global_transactions=3, attr_shared_transactions=1))
        assert m.shared_fraction == 0.25
        empty = SimMetrics(device=K40C)
        assert empty.shared_fraction == 0.0

    def test_summary_keys(self):
        m = SimMetrics(device=K40C)
        m.add(SweepCost(cycles=1.0))
        s = m.summary()
        for key in ("cycles", "seconds", "sweeps", "divergence_ratio"):
            assert key in s


class TestChargeCost:
    def test_external_cost_accumulates(self, tiny_graph):
        from repro.gpusim.costmodel import SweepCost

        ctx = ExecutionContext(tiny_graph)
        ctx.charge_cost(SweepCost(cycles=123.0, atomic_ops=4))
        assert ctx.metrics.cycles == 123.0
        assert ctx.metrics.total.atomic_ops == 4
        assert ctx.metrics.num_sweeps == 1


class TestChargeBatch:
    """charge_batch must leave the ledger exactly as per-sweep charge()
    calls would, for every routing path (batched, eager-large, and the
    non-identity-order fallback)."""

    def _sweeps(self, graph, rng, k):
        idx = graph.indices.astype(np.int64)
        out = []
        for _ in range(k):
            size = int(rng.integers(1, graph.num_nodes))
            frontier = np.sort(
                rng.choice(graph.num_nodes, size=size, replace=False)
            ).astype(np.int64)
            out.append(expand_frontier(graph.offsets, idx, frontier))
        return out

    def _assert_same_ledger(self, graph, sweeps, **ctx_kwargs):
        batch_ctx = ExecutionContext(graph, K40C, **ctx_kwargs)
        batch_ctx.charge_batch(sweeps)
        loop_ctx = ExecutionContext(graph, K40C, **ctx_kwargs)
        for exp in sweeps:
            loop_ctx.charge(exp.frontier, expansion=exp)
        assert batch_ctx.metrics.num_sweeps == loop_ctx.metrics.num_sweeps
        assert batch_ctx.metrics.total == loop_ctx.metrics.total

    def test_matches_per_sweep_charges(self, rmat_small):
        rng = np.random.default_rng(21)
        self._assert_same_ledger(rmat_small, self._sweeps(rmat_small, rng, 7))

    def test_large_sweeps_routed_eagerly(self, rmat_small, monkeypatch):
        # force every sweep over the eager threshold: the segmented path
        # must still produce the identical ledger
        monkeypatch.setattr(ExecutionContext, "BATCH_EAGER_EDGES", 1)
        rng = np.random.default_rng(22)
        self._assert_same_ledger(rmat_small, self._sweeps(rmat_small, rng, 5))

    def test_resident_mask_respected(self, rmat_small):
        rng = np.random.default_rng(23)
        mask = rng.random(rmat_small.num_nodes) < 0.5
        self._assert_same_ledger(
            rmat_small, self._sweeps(rmat_small, rng, 5), resident_mask=mask
        )

    def test_non_identity_order_falls_back(self, rmat_small):
        rng = np.random.default_rng(24)
        order = rng.permutation(rmat_small.num_nodes).astype(np.int64)
        sweeps = self._sweeps(rmat_small, rng, 4)
        batch_ctx = ExecutionContext(rmat_small, K40C, order=order)
        batch_ctx.charge_batch(sweeps)
        loop_ctx = ExecutionContext(rmat_small, K40C, order=order)
        for exp in sweeps:
            loop_ctx.charge(exp.frontier)
        assert batch_ctx.metrics.total == loop_ctx.metrics.total

    def test_empty_batch_is_noop(self, tiny_graph):
        ctx = ExecutionContext(tiny_graph, K40C)
        ctx.charge_batch([])
        assert ctx.metrics.num_sweeps == 0

    def test_mismatched_expansion_raises(self, tiny_graph):
        exp = expand_frontier(
            tiny_graph.offsets,
            tiny_graph.indices.astype(np.int64),
            np.array([0, 1], dtype=np.int64),
        )
        ctx = ExecutionContext(tiny_graph, K40C)
        with pytest.raises(SimulationError):
            ctx.charge(np.array([2], dtype=np.int64), expansion=exp)


class TestFullSweepExpansionCache:
    """``charge(None)`` reuses one cached full-graph expansion; the
    charges must equal an uncached ``charge_sweep`` over all nodes."""

    def test_identical_to_uncached_full_sweep(self, rmat_small):
        from repro.gpusim.costmodel import charge_sweep

        ctx = ExecutionContext(rmat_small, K40C)
        first = ctx.charge(None)
        second = ctx.charge(None)
        plain = charge_sweep(
            rmat_small, K40C, np.arange(rmat_small.num_nodes, dtype=np.int64)
        )
        assert first == plain
        assert second == plain
        assert ctx._full_exp is not None  # built once, reused

    def test_resident_mask_and_all_shared(self, rmat_small):
        from repro.gpusim.costmodel import charge_sweep

        rng = np.random.default_rng(31)
        mask = rng.random(rmat_small.num_nodes) < 0.4
        ctx = ExecutionContext(rmat_small, K40C, resident_mask=mask)
        everyone = np.arange(rmat_small.num_nodes, dtype=np.int64)
        assert ctx.charge(None) == charge_sweep(
            rmat_small, K40C, everyone, resident_mask=mask
        )
        assert ctx.charge(None, all_shared=True) == charge_sweep(
            rmat_small, K40C, everyone, all_shared=True
        )

    def test_non_identity_order_skips_cache(self, rmat_small):
        rng = np.random.default_rng(32)
        order = rng.permutation(rmat_small.num_nodes).astype(np.int64)
        ctx = ExecutionContext(rmat_small, K40C, order=order)
        ctx.charge(None)
        assert ctx._full_exp is None

    def test_subgraph_skips_cache(self, tiny_graph, rmat_small):
        ctx = ExecutionContext(rmat_small, K40C)
        sub = tiny_graph
        if sub.num_nodes == rmat_small.num_nodes:  # pragma: no cover
            pytest.skip("fixtures must differ for this test")
        # subgraph sweeps must never be charged from the main graph's
        # cached expansion (different CSR entirely)
        from repro.gpusim.costmodel import charge_sweep

        got = ctx.charge(
            np.arange(sub.num_nodes, dtype=np.int64), subgraph=sub
        )
        assert got == charge_sweep(
            sub, K40C, np.arange(sub.num_nodes, dtype=np.int64)
        )


class TestPriceOnce:
    """A distinct sweep is priced once per context; every charge of it
    still lands in the ledger and the ``solve.*`` counters."""

    @staticmethod
    def _count_pricing(monkeypatch):
        import repro.gpusim.kernel as kernel

        calls = []
        real = kernel.charge_sweep

        def counting(graph, *args, **kwargs):
            calls.append(graph)
            return real(graph, *args, **kwargs)

        monkeypatch.setattr(kernel, "charge_sweep", counting)
        return calls

    def test_fixed_shape_sweep_priced_once(self, rmat_small, monkeypatch):
        from repro.obs import metrics as obs_metrics

        calls = self._count_pricing(monkeypatch)
        ctx = ExecutionContext(rmat_small, K40C)
        sweeps = obs_metrics.counter("solve.sweeps").value
        costs = [ctx.charge(None) for _ in range(3)]
        assert len(calls) == 1
        assert costs[0] == costs[1] == costs[2]
        assert ctx.metrics.num_sweeps == 3
        assert ctx.metrics.total == costs[0] + costs[0] + costs[0]
        assert obs_metrics.counter("solve.sweeps").value == sweeps + 3

    def test_memo_keyed_on_structure_and_mode(self, rmat_small, monkeypatch):
        calls = self._count_pricing(monkeypatch)
        rev = rmat_small.reverse()
        ctx = ExecutionContext(rmat_small, K40C)
        for _ in range(2):
            ctx.charge(None)
            ctx.charge(None, all_shared=True)
            ctx.charge(None, partition="edge")
            ctx.charge(None, subgraph=rev)
        assert len(calls) == 4
        assert ctx.metrics.num_sweeps == 8
        # keyed on the structure object, not on its contents
        ctx.charge(None, subgraph=rmat_small.reverse())
        assert len(calls) == 5

    def test_frontier_sweeps_are_not_memoized(self, rmat_small, monkeypatch):
        calls = self._count_pricing(monkeypatch)
        ctx = ExecutionContext(rmat_small, K40C)
        frontier = np.array([0, 1, 2], dtype=np.int64)
        ctx.charge(frontier)
        ctx.charge(frontier)
        assert len(calls) == 2

    def test_repeat_ledgers_like_charge(self, rmat_small):
        from repro.obs import metrics as obs_metrics

        frontier = np.array([1, 4, 9], dtype=np.int64)
        fresh = ExecutionContext(rmat_small, K40C)
        fresh.charge(frontier)
        fresh.charge(frontier)
        reused = ExecutionContext(rmat_small, K40C)
        cycles = obs_metrics.counter("solve.sim_cycles")
        before = cycles.value
        cost = reused.charge(frontier)
        reused.repeat(cost)
        assert reused.metrics.total == fresh.metrics.total
        assert reused.metrics.num_sweeps == 2
        assert cycles.value == before + cost.cycles + cost.cycles

    def test_price_batch_is_pure(self, rmat_small, monkeypatch):
        # one pricing split, no ledgering: the eager-large and batched
        # routes both return exactly what price() returns per sweep
        monkeypatch.setattr(ExecutionContext, "BATCH_EAGER_EDGES", 16)
        idx = rmat_small.indices.astype(np.int64)
        sweeps = [
            expand_frontier(rmat_small.offsets, idx, np.array(f, dtype=np.int64))
            for f in ([0], [1, 2], list(range(3, 40)), [41, 50])
        ]
        ctx = ExecutionContext(rmat_small, K40C)
        costs = ctx.price_batch(sweeps)
        assert ctx.metrics.num_sweeps == 0
        assert costs == [ctx.price(e.frontier, expansion=e) for e in sweeps]

    def test_ledger_matches_repeats(self, rmat_small):
        from repro.obs import metrics as obs_metrics

        ctx = ExecutionContext(rmat_small, K40C)
        costs = [ctx.price(np.array(f, dtype=np.int64)) for f in ([0], [1, 4], [9])]
        cycles = obs_metrics.counter("solve.sim_cycles")
        sweeps = obs_metrics.counter("solve.sweeps")
        before = cycles.value, sweeps.value
        ctx.ledger(costs)
        looped = ExecutionContext(rmat_small, K40C)
        for cost in costs:
            looped.repeat(cost)
        assert ctx.metrics.total == looped.metrics.total
        assert ctx.metrics.num_sweeps == looped.metrics.num_sweeps == 3
        assert sweeps.value == before[1] + 6
        assert cycles.value == (
            before[0] + costs[0].cycles + costs[1].cycles + costs[2].cycles
            + costs[0].cycles + costs[1].cycles + costs[2].cycles
        )

    def test_charge_batch_returns_costs_in_order(self, rmat_small):
        idx = rmat_small.indices.astype(np.int64)
        sweeps = [
            expand_frontier(rmat_small.offsets, idx, np.array(f, dtype=np.int64))
            for f in ([0], [1, 2], [3, 5, 8])
        ]
        ctx = ExecutionContext(rmat_small, K40C)
        costs = ctx.charge_batch(sweeps)
        loop = ExecutionContext(rmat_small, K40C)
        assert costs == [loop.charge(e.frontier, expansion=e) for e in sweeps]
