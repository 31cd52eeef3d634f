"""Execution context: one simulated kernel stream over a graph.

Algorithms compute their values with honest vectorized numpy updates and
call :meth:`ExecutionContext.charge` once per kernel sweep so the cost
model accounts what that sweep *would* cost on the modeled GPU.  The
context owns:

* the **processing order** — how node ids map to threads (Graffix's §4
  bucket sort changes this; everything else uses id order);
* the **residency mask** — which nodes' attributes live in simulated
  shared memory (§3's pinned clusters);
* the accumulating :class:`~repro.gpusim.metrics.SimMetrics` ledger.

Pricing (:meth:`ExecutionContext.price`) is pure, so a sweep that
repeats within a solve is priced once and ledgered again.
"""

from __future__ import annotations

import numpy as np

from ..errors import SimulationError
from ..graphs.csr import CSRGraph
from ..graphs.properties import ragged_arange
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..perf.gather import SweepExpansion
from .costmodel import SweepCost, charge_sweep, charge_sweeps_batched, fold_costs
from .device import DeviceConfig, K40C
from .metrics import SimMetrics

__all__ = ["ExecutionContext"]


class ExecutionContext:
    """A simulated kernel stream bound to one graph and one device."""

    #: edge count above which :meth:`price_batch` prices a sweep on its
    #: own instead of folding it into a concatenated batch
    BATCH_EAGER_EDGES = 4096

    def __init__(
        self,
        graph: CSRGraph,
        device: DeviceConfig = K40C,
        *,
        order: np.ndarray | None = None,
        resident_mask: np.ndarray | None = None,
    ) -> None:
        self.graph = graph
        self.device = device
        n = graph.num_nodes
        self._identity_order = order is None
        if order is None:
            self._order = np.arange(n, dtype=np.int64)
        else:
            order = np.asarray(order, dtype=np.int64)
            if order.size != n:
                raise SimulationError("processing order must list every node once")
            seen = np.zeros(n, dtype=bool)
            seen[order] = True
            if not seen.all():
                raise SimulationError("processing order must be a permutation")
            self._order = order
        # rank[v] = position of node v in the processing order
        self._rank = np.empty(n, dtype=np.int64)
        self._rank[self._order] = np.arange(n, dtype=np.int64)
        if resident_mask is not None:
            resident_mask = np.asarray(resident_mask, dtype=bool)
            if resident_mask.size != n:
                raise SimulationError("resident_mask length must equal num_nodes")
        self.resident_mask = resident_mask
        self.metrics = SimMetrics(device=device)
        # lazily built full-graph expansion: topology-driven sweeps
        # (``charge(None)``) all expand the same graph-constant adjacency
        self._full_exp: SweepExpansion | None = None
        # fixed-shape sweep costs, see price()
        self._fixed: dict[tuple, tuple[CSRGraph, SweepCost]] = {}
        # cached instruments: charge() runs once per sweep, so skip the
        # registry lookup on the hot path
        self._sweep_counter = obs_metrics.counter("solve.sweeps")
        self._cycle_counter = obs_metrics.counter("solve.sim_cycles")

    @property
    def order(self) -> np.ndarray:
        """The full processing order (a permutation of node ids)."""
        return self._order

    def ordered(self, active: np.ndarray | None) -> np.ndarray:
        """Active node ids sorted into processing order.

        ``active`` may be a boolean mask or an id array; ``None`` selects
        every node.  On a real GPU the frontier compaction preserves the
        numbering order, which is what this reproduces.
        """
        if active is None:
            return self._order
        active = np.asarray(active)
        if active.dtype == bool:
            if active.size != self.graph.num_nodes:
                raise SimulationError("active mask length must equal num_nodes")
            ids = np.nonzero(active)[0].astype(np.int64)
        else:
            ids = active.astype(np.int64)
        if self._identity_order:
            # rank == id, so the stable argsort below reduces to a plain
            # value sort; frontiers from np.nonzero are already sorted,
            # making this near-free on the per-sweep hot path
            return np.sort(ids)
        return ids[np.argsort(self._rank[ids], kind="stable")]

    def price(
        self,
        active: np.ndarray | None = None,
        *,
        all_shared: bool = False,
        subgraph: CSRGraph | None = None,
        expansion=None,
        partition: str = "vertex",
    ) -> SweepCost:
        """The cost :meth:`charge` would ledger for one sweep, unledgered.

        Pricing is a pure function of the arguments and the context's
        fixed processing order, residency mask and device.  A
        *fixed-shape* sweep (``active=None``: every node of the charged
        structure) therefore costs the same every time, so it is priced
        once per context and memoized on the charged structure *object*
        (``self.graph`` or the ``subgraph``), ``all_shared`` and
        ``partition``.  Topology-driven solvers, PageRank and the
        fixed-point solvers charge one such sweep per iteration.
        """
        if active is not None:
            return self._price_sweep(
                active,
                all_shared=all_shared,
                subgraph=subgraph,
                expansion=expansion,
                partition=partition,
            )
        graph = subgraph if subgraph is not None else self.graph
        key = (id(graph), all_shared, partition)
        hit = self._fixed.get(key)
        if hit is None:
            # the structure is held with its cost, so its id stays unique
            hit = self._fixed[key] = (
                graph,
                self._price_sweep(
                    None,
                    all_shared=all_shared,
                    subgraph=subgraph,
                    expansion=expansion,
                    partition=partition,
                ),
            )
        return hit[1]

    def _price_sweep(
        self, active, *, all_shared, subgraph, expansion, partition
    ) -> SweepCost:
        graph = subgraph if subgraph is not None else self.graph
        active_ids = self.ordered(active)
        if expansion is not None:
            if not self._identity_order:
                expansion = None
            elif not np.array_equal(active_ids, expansion.frontier):
                raise SimulationError("expansion does not match the active list")
        elif active is None and subgraph is None and self._identity_order:
            # a full sweep's expansion is graph-constant: build it once
            expansion = self._full_expansion()
        return charge_sweep(
            graph,
            self.device,
            active_ids,
            resident_mask=None if all_shared else self.resident_mask,
            all_shared=all_shared,
            expansion=expansion,
            partition=partition,
        )

    def charge(
        self,
        active: np.ndarray | None = None,
        *,
        all_shared: bool = False,
        subgraph: CSRGraph | None = None,
        expansion=None,
        partition: str = "vertex",
    ) -> SweepCost:
        """Account one sweep and add it to the ledger.

        ``subgraph`` substitutes a different CSR structure (same node-id
        space) for this sweep — the §3 runner uses it to charge
        cluster-only iterations over the cluster edge set, and pull
        schedules use it to charge gathers over the reverse view
        (:class:`~repro.perf.edgeshare.PullEdgeView.rev`).

        ``expansion`` is an optional precomputed
        :class:`~repro.perf.gather.SweepExpansion` of ``active`` over
        the charged structure (``subgraph`` when given, else
        ``self.graph``); it spares the cost model re-expanding the same
        adjacency (identical charges, less host work).  It is used only
        when the processing order is the identity — under a permuted
        order the expansion the cost model needs differs from the
        solver's and it is silently ignored.  A non-matching expansion
        raises.

        ``partition`` selects vertex- or edge-balanced warp assignment
        for the cost model (see
        :func:`~repro.gpusim.costmodel.charge_sweep`).

        The cost comes from :meth:`price`, so a fixed-shape sweep is
        priced on its first charge and re-ledgered afterwards.
        """
        with obs_trace.span("solve.sweep") as sp:
            cost = self.price(
                active,
                all_shared=all_shared,
                subgraph=subgraph,
                expansion=expansion,
                partition=partition,
            )
            if sp is not None:
                _describe(
                    sp,
                    cost,
                    active=int(self.ordered(active).size),
                    shared=bool(all_shared),
                )
        self._ledger(cost)
        return cost

    def repeat(self, cost: SweepCost) -> None:
        """Ledger one more run of a sweep priced earlier.

        For a sweep over the same active list and structure as one
        already priced (a §3 local round, a BC backward level): the
        ledger, ``SimMetrics`` and ``solve.*`` counters advance exactly
        as a fresh :meth:`charge` would.
        """
        with obs_trace.span("solve.sweep") as sp:
            if sp is not None:
                _describe(sp, cost)
        self._ledger(cost)

    def _full_expansion(self) -> SweepExpansion:
        """The (cached) CSR expansion of every node in id order."""
        if self._full_exp is None:
            g = self.graph
            degs = (g.offsets[1:] - g.offsets[:-1]).astype(np.int64)
            self._full_exp = SweepExpansion(
                self._order,
                degs,
                ragged_arange(degs),
                np.arange(g.num_edges, dtype=np.int64),
                None,
                g.indices.astype(np.int64),
            )
        return self._full_exp

    def price_batch(self, sweeps) -> list[SweepCost]:
        """Price many vertex-partitioned sweeps at once, unledgered.

        ``sweeps`` is a sequence of
        :class:`~repro.perf.gather.SweepExpansion`, one per sweep, each
        over ``self.graph`` and already in processing order.  Returns
        the costs :meth:`price` would return one sweep at a time — same
        integers, bit-identical cycles — with the cost model's work
        vectorized across runs of small sweeps
        (:func:`~repro.gpusim.costmodel.charge_sweeps_batched`), which
        is what keeps accounting cheap for level-synchronous solvers.

        Sweeps at or above ``BATCH_EAGER_EDGES`` edges are priced on
        their own: concatenating a huge expansion costs more than the
        per-call overhead a batch saves.  Runs of small sweeps are
        priced in chunks of about eight times that many records: the
        batched coster's dominant step is a key sort over every record
        in the call, and bounded chunks keep it in cache.  With a
        non-identity processing order the expansions don't match the
        warp assignment, so every sweep is priced on its own.
        """
        sweeps = list(sweeps)
        if not self._identity_order:
            return [self.price(exp.frontier) for exp in sweeps]
        costs: list[SweepCost | None] = [None] * len(sweeps)
        chunk_records = self.BATCH_EAGER_EDGES * 8
        run: list[int] = []
        run_records = 0

        def _price_run() -> None:
            nonlocal run_records
            if run:
                with obs_trace.span("solve.sweep_batch", sweeps=len(run)):
                    priced = charge_sweeps_batched(
                        self.graph,
                        self.device,
                        [sweeps[k] for k in run],
                        resident_mask=self.resident_mask,
                    )
                for k, cost in zip(run, priced):
                    costs[k] = cost
                run.clear()
            run_records = 0

        for k, exp in enumerate(sweeps):
            if exp.epos.size >= self.BATCH_EAGER_EDGES:
                costs[k] = charge_sweep(
                    self.graph,
                    self.device,
                    exp.frontier,
                    resident_mask=self.resident_mask,
                    expansion=exp,
                )
            else:
                run.append(k)
                run_records += exp.epos.size
                if run_records >= chunk_records:
                    _price_run()
        _price_run()
        return costs

    def charge_batch(self, sweeps) -> list[SweepCost]:
        """:meth:`price_batch`, then ledger each cost in order.

        No solver calls this.  ``perfbench/spans.py`` times the pricing
        layer by wrapping this method by name, so it stays until that
        span list names :meth:`price_batch` instead.
        """
        costs = self.price_batch(sweeps)
        self.ledger(costs)
        return costs

    def ledger(self, costs) -> None:
        """Ledger sweeps priced earlier, in order.

        The ledger, ``SimMetrics`` and ``solve.*`` counters end up
        exactly as one :meth:`repeat` per cost would leave them (the
        cycle totals add in the same left-to-right order), without the
        per-sweep object churn or spans.
        """
        costs = list(costs)
        self.metrics.total = fold_costs(costs, self.metrics.total)
        self.metrics.num_sweeps += len(costs)
        self._count(costs)

    def _ledger(self, cost: SweepCost) -> None:
        self.metrics.add(cost)
        self._count((cost,))

    def _count(self, costs) -> None:
        """Advance the ``solve.*`` counters for ledgered sweeps."""
        # cost by cost, so the float bits follow the per-sweep order
        for cost in costs:
            self._cycle_counter.inc(cost.cycles)
        self._sweep_counter.inc(len(costs))

    def charge_cost(self, cost: SweepCost) -> None:
        """Add an externally computed cost (e.g. a host-side reduction)."""
        self.metrics.add(cost)


def _describe(sp, cost: SweepCost, **attrs) -> None:
    """Attach a sweep's cost breakdown to its ``solve.sweep`` span."""
    sp.set(
        cycles=cost.cycles,
        serial_steps=cost.serial_steps,
        edge_transactions=cost.edge_transactions,
        attr_global_transactions=cost.attr_global_transactions,
        attr_shared_transactions=cost.attr_shared_transactions,
        atomic_ops=cost.atomic_ops,
        **attrs,
    )
