"""Batched multi-source sweeps: one stacked expansion per level, S lanes.

Level-synchronous solvers spend most of their host time on per-level
fixed costs — frontier setup, CSR gather dispatch, cost-model charging —
and a per-source loop pays them S times.  This module stacks S sources
into *lanes*: state lives in ``(S, n)`` C-contiguous arrays whose flat
view puts lane ``l``'s node ``v`` at ``l * n + v``, frontiers stay
per-lane sparse id arrays, and each level runs **one** concatenated CSR
gather plus **one** flat scatter across every active lane
(:func:`expand_lanes`).  Every BC call
(:func:`repro.algorithms.bc.betweenness_centrality`, one source being
one lane) and the :func:`bfs_levels_batched` / :func:`sssp_batched`
entry points here are built on it; the serve layer's batching window
(:mod:`repro.serve.batching`) cashes it in for same-graph query bursts.

The engine is an optimization, not an approximation — every lane must be
indistinguishable from its source run alone.  Three facts make that
exact:

* **disjoint rows** — lane ``l``'s scatter targets live in
  ``[l*n, (l+1)*n)``; ``np.add.at`` / ``np.minimum.at`` accumulation
  order only matters per element, and within a lane the concatenated
  records keep the looped run's global CSR edge order, so every float
  accumulates in the looped bit pattern;
* **per-lane decisions** — schedule decisions are pure functions of
  lane-local frontier stats plus the lane's previous decision
  (:meth:`repro.perf.schedule.Schedule.decide`), so a lane's
  push/pull/partition sequence is identical whether it runs alone or
  stacked;
* **exact charge decomposition** —
  :meth:`~repro.gpusim.kernel.ExecutionContext.price_batch` returns
  each lane's :class:`~repro.gpusim.costmodel.SweepCost` bit-identical
  to pricing it alone; :class:`LaneLedger` keeps the per-lane cost
  lists in sweep order and replays them source-by-source into the
  execution context, so totals *and* observability counters match the
  sources run back to back, byte for byte.

``differential:batched`` (:mod:`repro.verify.differential`) enforces all
three against one-source runs across the technique corpus.

Memory model: dense lane state is ``S × n`` words per attribute, while
frontiers stay per-lane sparse — the expansion cost is the sum of lane
frontier-edge counts, same as looped.  See ``docs/performance.md`` for
the crossover discussion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import AlgorithmError, SimulationError
from ..graphs.properties import ragged_arange
from ..gpusim.costmodel import SweepCost, fold_costs
# ``perfbench/spans.py`` times pricing by wrapping these two names here
from ..gpusim.costmodel import charge_sweep  # noqa: F401
from ..gpusim.costmodel import charge_sweeps_batched as charge_lane_sweeps  # noqa: F401
from ..gpusim.device import DeviceConfig, K40C
from ..gpusim.metrics import SimMetrics
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from .gather import SweepExpansion, expand_frontier
from .schedule import schedule_for
from .workspace import pool

__all__ = [
    "BatchedResult",
    "LaneExpansion",
    "LaneLedger",
    "bfs_levels_batched",
    "charge_lane_level",
    "expand_lanes",
    "lane_sources",
    "sssp_batched",
]


class LaneExpansion:
    """One stacked CSR gather over many lanes' frontiers.

    ``e_src``/``e_dst``/``epos`` concatenate the lanes' records;
    ``rec_bounds`` (length ``L+1``) delimits each lane's slice, and
    ``sweeps[l]`` is a zero-copy :class:`~repro.perf.gather.SweepExpansion`
    view of lane ``l`` — bitwise what ``expand_frontier`` would return
    for that frontier alone (``ragged_arange`` restarts per node, so the
    per-node step ordinals slice cleanly).
    """

    __slots__ = ("frontiers", "e_src", "e_dst", "epos", "rec_bounds", "sweeps")

    def __init__(self, frontiers, e_src, e_dst, epos, rec_bounds, sweeps):
        self.frontiers = frontiers
        self.e_src = e_src
        self.e_dst = e_dst
        self.epos = epos
        self.rec_bounds = rec_bounds
        self.sweeps = sweeps


def expand_lanes(
    offsets: np.ndarray, indices: np.ndarray, frontiers
) -> LaneExpansion:
    """Expand many frontiers over one CSR in a single concatenated gather."""
    frontiers = [np.asarray(f, dtype=np.int64) for f in frontiers]
    if len(frontiers) == 1:
        cat = frontiers[0]
        node_bounds = [0, cat.size]
    else:
        cat = np.concatenate(frontiers)
        node_bounds = [0]
        for f in frontiers:
            node_bounds.append(node_bounds[-1] + f.size)
    starts = offsets[cat].astype(np.int64)
    degs = offsets[cat + 1].astype(np.int64) - starts
    edge_cum = np.cumsum(degs)
    total = int(edge_cum[-1]) if edge_cum.size else 0
    if total:
        step = ragged_arange(degs)
        epos = np.repeat(starts, degs) + step
        e_dst = indices[epos]
        e_src = np.repeat(cat, degs)
    else:
        step = epos = np.empty(0, dtype=np.int64)
        e_src = e_dst = np.empty(0, dtype=np.int64)
    rb = [0] + [int(edge_cum[k - 1]) if k else 0 for k in node_bounds[1:]]
    sweeps = []
    for i, frontier in enumerate(frontiers):
        nb0, nb1 = node_bounds[i], node_bounds[i + 1]
        rb0, rb1 = rb[i], rb[i + 1]
        sweeps.append(
            SweepExpansion(
                frontier,
                degs[nb0:nb1],
                step[rb0:rb1],
                epos[rb0:rb1],
                e_src[rb0:rb1],
                e_dst[rb0:rb1],
            )
        )
    obs_metrics.counter("perf.batched.expansions").inc()
    obs_metrics.counter("perf.batched.expansion_lanes").inc(len(frontiers))
    obs_metrics.counter("perf.batched.expansion_edges").inc(total)
    return LaneExpansion(
        frontiers, e_src, e_dst, epos, np.asarray(rb, dtype=np.int64), sweeps
    )


class LaneLedger:
    """Per-lane :class:`SweepCost` lists in looped sweep order.

    Lane ``l``'s list is exactly the cost sequence its own S=1 run would
    ledger; :meth:`replay` feeds them to the context lane by lane in
    source order, reproducing the accumulated metrics (and ``solve.*``
    counters) of the sources run back to back, bit for bit.

    Charges may be *deferred*: :meth:`defer` reserves the cost's slot in
    the lane's sequence and queues the expansion; :meth:`flush` prices
    the queue with one
    :meth:`~repro.gpusim.kernel.ExecutionContext.price_batch` call, and
    runs by itself once the queue holds a pricing chunk's worth of
    records, so queued expansions stay bounded.  Slot reservation keeps
    each lane's list in level order even when eager charges (pull or
    edge-partitioned sweeps) interleave with deferred ones.  Pricing and
    ledgering go through the context's own methods, so a context that
    prices differently (Tigr's virtual split) does so for every lane.
    """

    def __init__(self, ctx, num_lanes: int) -> None:
        self.ctx = ctx
        self.costs: list[list[SweepCost]] = [[] for _ in range(num_lanes)]
        self._pending: list[tuple[int, int, SweepExpansion]] = []
        self._pending_records = 0

    def add(self, lane: int, cost: SweepCost) -> None:
        self.costs[lane].append(cost)

    def defer(self, lane: int, expansion: SweepExpansion) -> None:
        self.costs[lane].append(None)
        self._pending.append((lane, len(self.costs[lane]) - 1, expansion))
        self._pending_records += expansion.epos.size
        if self._pending_records >= self.ctx.BATCH_EAGER_EDGES * 8:
            self.flush()

    def flush(self) -> None:
        """Price all deferred sweeps (vertex partition)."""
        if not self._pending:
            return
        priced = self.ctx.price_batch([exp for _, _, exp in self._pending])
        for (lane, slot, _), cost in zip(self._pending, priced):
            self.costs[lane][slot] = cost
        self._pending.clear()
        self._pending_records = 0

    def repeat(self, lanes, index: int) -> None:
        """Append, per lane, its already priced ``index``-th cost again
        (the lane sweeps the same frontier over the same structure)."""
        self._check_priced()
        for lane in lanes:
            self.costs[lane].append(self.costs[lane][index])
        _count_level(len(lanes))

    def _check_priced(self) -> None:
        if self._pending:
            raise SimulationError("lane ledger has unpriced deferred sweeps")

    def lane_metrics(self, device: DeviceConfig) -> list[SimMetrics]:
        self._check_priced()
        out = []
        for costs in self.costs:
            m = SimMetrics(device=device)
            m.total = fold_costs(costs, m.total)
            m.num_sweeps = len(costs)
            out.append(m)
        return out

    def replay(self) -> None:
        """Ledger every lane's costs into the context, lane by lane."""
        self._check_priced()
        self.ctx.ledger(c for costs in self.costs for c in costs)


def charge_lane_level(ledger: LaneLedger, lanes, sweeps, decisions) -> None:
    """Charge one stacked level: per-lane costs, appended in lane order.

    Vertex-partitioned lanes defer to the ledger's batched pricing pass
    (:meth:`LaneLedger.flush`); edge-balanced lanes are priced eagerly.
    ``decisions`` is ``None`` when no schedule runs (every lane is
    vertex-partitioned).
    """
    if decisions is None:
        for lane, exp in zip(lanes, sweeps):
            ledger.defer(lane, exp)
    else:
        for lane, exp, d in zip(lanes, sweeps, decisions):
            if d is None or d.partition == "vertex":
                ledger.defer(lane, exp)
            else:
                ledger.add(
                    lane,
                    ledger.ctx.price(
                        exp.frontier, expansion=exp, partition=d.partition
                    ),
                )
    _count_level(len(lanes))


def _count_level(num_lanes: int) -> None:
    obs_metrics.counter("perf.batched.levels").inc()
    obs_metrics.counter("perf.batched.lane_sweeps").inc(num_lanes)


@dataclass
class BatchedResult:
    """Per-lane values + per-lane cost attribution of one stacked run.

    ``values`` is ``(num_sources, num_original)``; ``iterations`` and
    ``lane_metrics`` are per lane (index-aligned with ``sources``);
    ``metrics`` is the total ledger, bit-identical to running the lanes
    through one looped runner back to back.
    """

    values: np.ndarray
    iterations: list[int]
    lane_metrics: list[SimMetrics]
    metrics: SimMetrics
    aux: dict[str, object] | None = None

    @property
    def num_lanes(self) -> int:
        return len(self.iterations)


def lane_sources(sources, num_original: int) -> np.ndarray:
    """Validate a batched source set (duplicates allowed — lanes are
    independent, so a repeated source just repeats its lane)."""
    sources = np.asarray(sources, dtype=np.int64).reshape(-1)
    if sources.size == 0:
        raise AlgorithmError("sources must be non-empty")
    if sources.min() < 0 or sources.max() >= num_original:
        raise AlgorithmError("batched source out of range")
    return sources


def replica_info(plan):
    """``(primary slot of each original node, replica-group member
    slots, their group ids, number of groups)`` of a plan."""
    if plan.graffix is not None:
        primary = plan.graffix.primary_slot
        g_slots, g_gids, g_sizes = plan.graffix.replica_groups()
    else:
        primary = np.arange(plan.num_original, dtype=np.int64)
        g_slots = g_gids = g_sizes = np.empty(0, dtype=np.int64)
    return primary, g_slots, g_gids, int(g_sizes.size)


def sync_levels(level, g_slots, g_gids, num_groups) -> None:
    """Replica copies are one logical node: when any copy is reached,
    every copy is (a replica has no in-edges of its own, so without
    this its out-edges — moved off the original — would never fire)."""
    if num_groups == 0:
        return
    lv = level[g_slots].astype(np.float64)
    lv[lv < 0] = np.inf
    gmin = np.full(num_groups, np.inf)
    np.minimum.at(gmin, g_gids, lv)
    reached = np.isfinite(gmin)
    members = reached[g_gids] & (level[g_slots] < 0)
    level[g_slots[members]] = gmin[g_gids[members]].astype(np.int64)


def bfs_levels_batched(
    graph_or_plan,
    sources,
    *,
    device: DeviceConfig = K40C,
    runner_factory=None,
    schedule=None,
    deadline=None,
) -> BatchedResult:
    """BFS levels from every source in one stacked sweep.

    Lane ``l`` of the result is byte-identical — values, iteration
    count, charged metrics — to ``bfs(plan, sources[l], ...)`` with the
    same schedule.  ``deadline`` (a :class:`repro.serve.deadline.Deadline`)
    is checked once per stacked level; per-lane granularity would be
    identical since all active lanes advance together.
    """
    from ..algorithms.common import Runner, plan_for

    sched = schedule_for(schedule)
    plan = plan_for(graph_or_plan)
    sources = lane_sources(sources, plan.num_original)
    num_lanes = int(sources.size)
    runner = (runner_factory or Runner)(plan, device)
    ctx = runner.ctx
    graph = plan.graph
    n = graph.num_nodes
    m = graph.num_edges
    offsets = graph.offsets
    indices = graph.indices.astype(np.int64)
    primary, g_slots, g_gids, num_groups = replica_info(plan)
    pull_view = None
    rev_indices = None

    def _pull_arrays():
        nonlocal pull_view, rev_indices
        if pull_view is None:
            pull_view = runner._pull_edges()
            rev_indices = pull_view.rev.indices.astype(np.int64)
        return pull_view, rev_indices

    level2 = np.full((num_lanes, n), -1, dtype=np.int64)
    level_flat = level2.reshape(-1)
    frontiers: list[np.ndarray] = [None] * num_lanes
    unexplored = np.empty(num_lanes, dtype=np.int64)
    for i, s in enumerate(sources):
        lv = level2[i]
        lv[int(primary[s])] = 0
        sync_levels(lv, g_slots, g_gids, num_groups)
        f = np.nonzero(lv == 0)[0].astype(np.int64)
        frontiers[i] = f
        unexplored[i] = m - int((offsets[f + 1] - offsets[f]).sum())
    lane_depth = np.zeros(num_lanes, dtype=np.int64)
    prev = [None] * num_lanes
    ledger = LaneLedger(ctx, num_lanes)
    active = [i for i in range(num_lanes) if frontiers[i].size]
    depth = 0
    obs_metrics.counter("perf.batched.runs").inc()
    obs_metrics.counter("perf.batched.lanes").inc(num_lanes)

    with obs_trace.span(
        "perf.batched.bfs", lanes=num_lanes, technique=plan.technique
    ):
        while active:
            if deadline is not None:
                deadline.check("sweep")
            decisions = {}
            for i in active:
                decision = None
                if sched is not None:
                    f = frontiers[i]
                    decision = sched.decide(
                        frontier_size=int(f.size),
                        frontier_edges=int(
                            (offsets[f + 1] - offsets[f]).sum()
                        ),
                        num_nodes=n,
                        num_edges=m,
                        unexplored_edges=int(unexplored[i]),
                        prev=prev[i],
                    )
                    prev[i] = decision
                decisions[i] = decision
            pull_lanes = [
                i
                for i in active
                if decisions[i] is not None and decisions[i].direction == "pull"
            ]
            push_lanes = [i for i in active if i not in pull_lanes]
            newly: dict[int, np.ndarray | None] = {}
            for i in pull_lanes:
                pv, rind = _pull_arrays()
                lv = level2[i]
                candidates = np.nonzero(lv < 0)[0].astype(np.int64)
                rexp = expand_frontier(pv.rev.offsets, rind, candidates)
                ledger.add(
                    i,
                    ctx.price(
                        candidates,
                        subgraph=pv.rev,
                        expansion=rexp,
                        partition=decisions[i].partition,
                    ),
                )
                hits = np.unique(rexp.e_src[lv[rexp.e_dst] == depth])
                if hits.size:
                    lv[hits] = depth + 1
                newly[i] = hits
            if push_lanes:
                lx = expand_lanes(
                    offsets, indices, [frontiers[i] for i in push_lanes]
                )
                row_off = np.repeat(
                    np.asarray(push_lanes, dtype=np.int64) * n,
                    np.diff(lx.rec_bounds),
                )
                flat_dst = lx.e_dst + row_off
                fresh_mask = level_flat[flat_dst] < 0
                fresh_flat = flat_dst[fresh_mask]
                if fresh_flat.size:
                    level_flat[fresh_flat] = depth + 1
                for pos, i in enumerate(push_lanes):
                    rb0 = int(lx.rec_bounds[pos])
                    rb1 = int(lx.rec_bounds[pos + 1])
                    fm = fresh_mask[rb0:rb1]
                    fresh = lx.e_dst[rb0:rb1][fm]
                    newly[i] = fresh if fresh.size else None
                charge_lane_level(
                    ledger,
                    push_lanes,
                    lx.sweeps,
                    [decisions[i] for i in push_lanes],
                )
            still = []
            for i in active:
                lv = level2[i]
                sync_levels(lv, g_slots, g_gids, num_groups)
                decision = decisions[i]
                if (
                    decision is not None
                    and decision.frontier == "sparse"
                    and num_groups == 0
                ):
                    hit = newly[i]
                    f = (
                        np.unique(hit)
                        if hit is not None
                        else np.empty(0, np.int64)
                    )
                else:
                    f = np.nonzero(lv == depth + 1)[0].astype(np.int64)
                frontiers[i] = f
                lane_depth[i] = depth + 1
                unexplored[i] -= int((offsets[f + 1] - offsets[f]).sum())
                if f.size:
                    still.append(i)
            active = still
            depth += 1

    ledger.flush()
    values = np.empty((num_lanes, plan.num_original))
    for i in range(num_lanes):
        lv = level2[i]
        row = (lv[primary] if plan.graffix is not None else lv).astype(
            np.float64
        )
        row[row < 0] = np.inf
        values[i] = row
    lane_metrics = ledger.lane_metrics(device)
    ledger.replay()
    return BatchedResult(
        values=values,
        iterations=[int(d) for d in lane_depth],
        lane_metrics=lane_metrics,
        metrics=runner.metrics,
        aux={"sources": sources},
    )


def _relax_lanes(edges, dist2, dist_flat, act, n):
    """One stacked Bellman-Ford sweep; per-lane changed flags.

    Candidate distances are the same float64 operands each looped
    :func:`~repro.algorithms.sssp.sssp_relax` computes, and scatter-min
    is order-insensitive and exact, so the post-sweep rows are
    bit-identical per lane; the changed flag reduces to "any element
    improved", which both looped branches (pooled dense snapshot and
    sparse touched-destination compare) also compute.

    The S x n snapshot and the S x E candidate temporaries are leased
    from the :class:`~repro.perf.workspace.WorkspacePool` (keys
    ``batched.relax.*``), so steady-state levels allocate only the
    compacted finite-candidate scatter operands.  ``np.take`` runs with
    ``mode="clip"`` because ``mode="raise"`` buffers ``out`` through a
    fresh temporary; every index is in range, so the values are equal.
    """
    src = np.asarray(edges.src)
    dst = np.asarray(edges.dst, dtype=np.int64)
    w = np.asarray(edges.weights)
    s, e = act.size, src.size
    p = pool()
    with (
        p.lease("batched.relax.before", s * n) as before,
        p.lease("batched.relax.after", s * n) as after,
        p.lease("batched.relax.improved", s * n, bool) as improved,
        p.lease("batched.relax.cand", s * e) as cand,
        p.lease("batched.relax.finite", s * e, bool) as finite,
        p.lease("batched.relax.idx", s * e, np.int64) as flat_idx,
    ):
        before = before.reshape(s, n)
        cand = cand.reshape(s, e)
        finite = finite.reshape(s, e)
        np.take(dist2, act, axis=0, out=before, mode="clip")
        np.take(before, src, axis=1, out=cand, mode="clip")
        np.isfinite(cand, out=finite)
        if not finite.any():
            return np.zeros(s, dtype=bool)
        np.add(cand, w, out=cand)
        np.add((act * n)[:, None], dst[None, :], out=flat_idx.reshape(s, e))
        finite = finite.reshape(-1)
        np.minimum.at(dist_flat, flat_idx[finite], cand.reshape(-1)[finite])
        after = after.reshape(s, n)
        np.take(dist2, act, axis=0, out=after, mode="clip")
        improved = improved.reshape(s, n)
        np.less(after, before, out=improved)
        return improved.any(axis=1)


def sssp_batched(
    graph_or_plan,
    sources,
    *,
    device: DeviceConfig = K40C,
    runner_factory=None,
    schedule=None,
    deadline=None,
    improvement_atol: float = 0.5,
    improvement_rtol: float = 0.1,
) -> BatchedResult:
    """Bellman-Ford distances from every source in one stacked sweep.

    Lane ``l`` is byte-identical — distances, iteration count, charged
    metrics — to ``sssp(plan, sources[l], ...)`` with the same schedule.
    Full sweeps are graph-constant, so the schedule's decision sequence
    is shared across lanes (every active lane is always at the same
    iteration index) and each decision's cost is computed once and
    attributed to every lane still running.  Convergence — the exact
    changed flag or the replica-plan envelope/margin rule of
    :meth:`Runner.fixed_point <repro.algorithms.common.Runner.fixed_point>`
    — and the §3 cluster rounds run per lane.
    """
    from ..algorithms.common import MAX_ITERATIONS, Runner, plan_for
    from ..algorithms.sssp import sssp_relax

    plan = plan_for(graph_or_plan)
    sources = lane_sources(sources, plan.num_original)
    num_lanes = int(sources.size)
    runner = (runner_factory or Runner)(plan, device).use_schedule(schedule)
    ctx = runner.ctx
    n = plan.graph.num_nodes
    dist2 = np.empty((num_lanes, n), dtype=np.float64)
    for i, s in enumerate(sources):
        init = np.full(plan.num_original, np.inf)
        init[int(s)] = 0.0
        dist2[i] = plan.lift(init, fill=np.inf)
    dist_flat = dist2.reshape(-1)
    max_iterations = min(MAX_ITERATIONS, 4 * n + 50)
    approximate = plan.has_replicas
    envelope = dist2.copy() if approximate else None
    iterations = np.zeros(num_lanes, dtype=np.int64)
    ledger = LaneLedger(ctx, num_lanes)
    active = list(range(num_lanes))
    obs_metrics.counter("perf.batched.runs").inc()
    obs_metrics.counter("perf.batched.lanes").inc(num_lanes)

    with obs_trace.span(
        "perf.batched.sssp", lanes=num_lanes, technique=plan.technique
    ):
        while active:
            if deadline is not None:
                deadline.check("sweep")
            # full sweeps are graph-constant: one decision for all lanes,
            # identical to each lane's looped sequence by purity of decide()
            decision = runner._decide(None)
            if decision is None or decision.direction == "push":
                edges = runner.edges
                cost = ctx.price(
                    None,
                    partition="vertex" if decision is None else decision.partition,
                )
            else:
                edges = pv = runner._pull_edges()
                cost = ctx.price(
                    None,
                    subgraph=pv.rev,
                    expansion=pv.full_expansion(),
                    partition=decision.partition,
                )
            act = np.asarray(active, dtype=np.int64)
            changed = _relax_lanes(edges, dist2, dist_flat, act, n)
            for i in active:
                iterations[i] += 1
                ledger.add(i, cost)
            obs_metrics.counter("perf.batched.levels").inc()
            obs_metrics.counter("perf.batched.lane_sweeps").inc(len(active))
            cont = []
            if approximate:
                for i in active:
                    row = dist2[i]
                    env = envelope[i]
                    margin = improvement_atol + improvement_rtol * np.where(
                        np.isfinite(env), np.abs(env), 0.0
                    )
                    improved = row < env - margin
                    np.minimum(env, row, out=env)
                    runner.confluence(row)
                    np.minimum(env, row, out=env)
                    if improved.any():
                        cont.append(i)
            else:
                cont = [i for pos, i in enumerate(active) if changed[pos]]
            if (
                cont
                and plan.has_clusters
                and runner.cluster_edges is not None
            ):
                for i in cont:
                    _cluster_rounds_lane(runner, ledger, i, dist2[i], sssp_relax)
            active = [i for i in cont if iterations[i] < max_iterations]

    values = np.stack([plan.lower(dist2[i]) for i in range(num_lanes)])
    lane_metrics = ledger.lane_metrics(device)
    ledger.replay()
    return BatchedResult(
        values=values,
        iterations=[int(k) for k in iterations],
        lane_metrics=lane_metrics,
        metrics=runner.metrics,
        aux={"sources": sources},
    )


def _cluster_rounds_lane(runner, ledger, lane, values, relax) -> None:
    """The §3 local iterations for one lane (cost is round-constant)."""
    cost = runner.cluster_round_cost()
    with obs_trace.span(
        "solve.cluster_rounds", local_iterations=runner.plan.local_iterations
    ):
        for _ in range(runner.plan.local_iterations):
            ledger.add(lane, cost)
            changed = relax(runner.cluster_edges, values)
            runner.confluence(values)
            if not changed:
                break
