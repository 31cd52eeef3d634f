"""Betweenness centrality — parallel Brandes' algorithm (paper §2, Alg. 1).

Two-pass and level-synchronous:

* **forward** — BFS from the source builds the shortest-path DAG and the
  path counts ``sigma``; each BFS level is one charged sweep over the
  frontier;
* **backward** — dependencies ``delta`` accumulate level by level via
  Eq. (1); each level is one charged sweep.

Exact BC is ``O(nm)`` per run, which is why the paper calls it out as the
canonical approximation target; like all GPU evaluations we sample a fixed
set of sources (the harness uses the *same* sources for exact and
approximate runs so the inaccuracy metric is apples-to-apples).

One engine runs every call: the S sampled sources are S *lanes* of one
stacked traversal (:mod:`repro.perf.batched`), and a single source is
S=1.  Lane state lives in ``(S, n)`` arrays whose flat view puts lane
``l``'s node ``v`` at ``l * n + v``; each level runs one concatenated
CSR gather and one flat scatter for every lane.  Lanes never interact,
so each lane's values, level count and priced sweeps are exactly those
of its source run alone.  The paper's §2 strategies differ only in how a
level is priced:

* **frontier** (``strategy="inner"``, the paper's choice) — each lane
  ledgers its own frontier sweep per level;
* **topology-driven** (``topology_driven=True``, the LonestarGPU /
  Baseline-I kernel) — each lane ledgers a full node sweep per level;
* **outer** (``strategy="outer"``) — each level's lane frontiers are
  concatenated into one sweep and charged after the traversal.

On a transformed plan, replica values (``sigma``/``delta``) are merged by
confluence after every level, and resident clusters get the shared-memory
latency discount automatically through the cost model.  The §3 local
iteration rounds do not apply to level-synchronous passes and are skipped.
"""

from __future__ import annotations

import numpy as np

from ..core.pipeline import ExecutionPlan
from ..errors import AlgorithmError
from ..graphs.csr import CSRGraph
from ..gpusim.device import DeviceConfig, K40C
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..perf.batched import (
    LaneLedger,
    charge_lane_level,
    expand_lanes,
    replica_info,
    sync_levels,
)
from ..perf.edgeshare import shared_pull_view
from ..perf.gather import expand_frontier
from ..perf.schedule import schedule_for
from .common import AlgorithmResult, Runner, plan_for

__all__ = ["betweenness_centrality", "pick_sources"]

#: stacked edge records one lane group expands at once: a level whose
#: lanes would gather more is split into groups, so the temporaries of a
#: dense level stay bounded like a single source's
LANE_RECORDS = 1 << 16


def pick_sources(num_nodes: int, num_sources: int, seed: int = 0) -> np.ndarray:
    """Deterministic source sample shared by exact and approximate runs."""
    if num_sources < 1:
        raise AlgorithmError("num_sources must be >= 1")
    rng = np.random.default_rng(seed)
    k = min(num_sources, num_nodes)
    return np.sort(rng.choice(num_nodes, size=k, replace=False)).astype(np.int64)


def betweenness_centrality(
    graph_or_plan: CSRGraph | ExecutionPlan,
    *,
    sources: np.ndarray | None = None,
    num_sources: int = 8,
    seed: int = 0,
    topology_driven: bool = False,
    strategy: str = "inner",
    device: DeviceConfig = K40C,
    runner_factory=None,
    schedule=None,
) -> AlgorithmResult:
    """Approximate-by-sampling BC scores per original node.

    ``sources`` overrides the sample (original node ids; a repeated
    source runs as one more lane).  Scores are the plain dependency
    sums over the sampled sources (unnormalized, as the paper's
    attribute comparison wants raw values), added in source order.

    ``topology_driven=True`` charges a *full* node sweep per level instead
    of the frontier — the LonestarGPU/Baseline-I kernel style, where every
    thread re-checks its node each iteration (this is why Baseline-I BC is
    by far the slowest in the paper's Table 2).

    ``strategy`` selects the parallelization the paper discusses in §2:
    ``"inner"`` (the paper's choice) runs each source's passes parallel
    over its own frontier; ``"outer"`` batches the level-``d``
    frontiers of *all* sources into one charged sweep — fuller warps,
    fewer kernel launches, identical values.  Only the cost accounting
    differs.

    ``schedule`` (a :class:`~repro.perf.schedule.Schedule` or spec
    string) picks per-level traversal direction/partition for both
    passes, per lane.  Pull levels gather over the shared reverse view
    and re-sort the surviving records by forward edge id, recovering
    the push path's exact scatter order — so ``sigma``/``delta`` (and
    with them the scores) stay byte-identical under any schedule.  Only
    frontier-driven pricing with the ``inner`` strategy is schedulable:
    outer and topology-driven charging deliberately model fixed-shape
    kernels.

    A runner carrying a ``deadline`` (the serve layer's
    :class:`~repro.serve.deadline.DeadlineRunner`) has it checked once
    per stacked level of either pass.

    ``aux`` holds ``per_source_iterations`` and, except under the outer
    strategy (whose sweeps mix sources), ``per_source_metrics``: lane
    ``l``'s charges, bit-identical to ``sources[l]`` run alone.
    """
    if strategy not in ("inner", "outer"):
        raise AlgorithmError(f"unknown BC strategy {strategy!r}")
    sched = schedule_for(schedule)
    if sched is not None and (topology_driven or strategy == "outer"):
        raise AlgorithmError(
            "schedules require frontier-driven charging with the inner strategy"
        )
    plan = plan_for(graph_or_plan)
    n_orig = plan.num_original
    if sources is None:
        sources = pick_sources(n_orig, num_sources, seed)
    else:
        sources = np.asarray(sources, dtype=np.int64)
        if sources.size == 0:
            raise AlgorithmError("sources must be non-empty")
        if sources.min() < 0 or sources.max() >= n_orig:
            raise AlgorithmError("BC source out of range")
    runner = (runner_factory or Runner)(plan, device)
    pricing = (
        "outer"
        if strategy == "outer"
        else "topology" if topology_driven else "frontier"
    )
    with obs_trace.span(
        "perf.batched.bc", lanes=int(sources.size), technique=plan.technique
    ):
        return _lanes(plan, runner, sched, sources, pricing)


def _lanes(plan, runner, sched, sources, pricing) -> AlgorithmResult:
    """Both passes over S stacked lanes, priced per ``pricing``."""
    graph = plan.graph
    n = graph.num_nodes
    m = graph.num_edges
    offsets = graph.offsets
    indices = graph.indices.astype(np.int64)
    ctx = runner.ctx
    deadline = getattr(runner, "deadline", None)
    num_lanes = int(sources.size)
    primary, g_slots, g_gids, num_groups = replica_info(plan)
    pull_view = None
    rev_indices = None

    def _pull_arrays():
        nonlocal pull_view, rev_indices
        if pull_view is None:
            pull_view = shared_pull_view(graph)
            rev_indices = pull_view.rev.indices.astype(np.int64)
        return pull_view, rev_indices

    def merge_positive_mean(values: np.ndarray, level: np.ndarray) -> None:
        """The paper's arithmetic-mean confluence, restricted to copies
        that hold a value (> 0) — averaging a reached hub with a copy
        that merely hasn't fired yet would halve real path counts."""
        if num_groups == 0:
            return
        vals = values[g_slots]
        pos = vals > 0
        if not pos.any():
            return
        sums = np.bincount(g_gids[pos], weights=vals[pos], minlength=num_groups)
        counts = np.bincount(g_gids[pos], minlength=num_groups)
        has = counts > 0
        means = np.where(has, sums / np.maximum(counts, 1), 0.0)
        apply = has[g_gids] & (level[g_slots] >= 0)
        values[g_slots[apply]] = means[g_gids[apply]]

    def merge_delta(delta: np.ndarray, level: np.ndarray) -> None:
        """Arithmetic-mean confluence over visited copies of each group."""
        if num_groups == 0:
            return
        visited_m = level[g_slots] >= 0
        if not visited_m.any():
            return
        sums = np.bincount(
            g_gids[visited_m], weights=delta[g_slots[visited_m]],
            minlength=num_groups,
        )
        counts = np.bincount(g_gids[visited_m], minlength=num_groups)
        has = counts > 0
        means = np.where(has, sums / np.maximum(counts, 1), 0.0)
        apply = has[g_gids] & visited_m
        delta[g_slots[apply]] = means[g_gids[apply]]

    def expand(lanes, frontiers):
        """One stacked expansion of ``frontiers`` and its lane-flat
        (src, dst) record indices."""
        lx = expand_lanes(offsets, indices, frontiers)
        if len(lanes) == 1:
            off = lanes[0] * n
            if not off:
                return lx, lx.e_src, lx.e_dst
            return lx, lx.e_src + off, lx.e_dst + off
        row_off = np.repeat(
            np.asarray(lanes, dtype=np.int64) * n, np.diff(lx.rec_bounds)
        )
        return lx, lx.e_src + row_off, lx.e_dst + row_off

    def lane_groups(frontiers):
        """``[lo, hi)`` position ranges splitting stacked lanes into
        groups of at most ``LANE_RECORDS`` records (a bigger lane is a
        group of its own); lanes are independent, so grouping changes no
        value and no charge, only how much one expansion holds."""
        if len(frontiers) == 1 or (
            sum(f.size for f in frontiers) * max_degree <= LANE_RECORDS
        ):
            return [(0, len(frontiers))]
        bounds, size = [0], 0
        for pos, f in enumerate(frontiers):
            k = int(degree[f].sum())
            if size and size + k > LANE_RECORDS:
                bounds.append(pos)
                size = 0
            size += k
        bounds.append(len(frontiers))
        return list(zip(bounds[:-1], bounds[1:]))

    def decide(lanes, frontiers, forward: bool):
        """Per-lane schedule decisions: ``(decisions of the push lanes,
        [(pull lane, decision)], push lanes)``; every lane pushes when
        no schedule runs."""
        if sched is None:
            return None, (), lanes
        push_dec, pull, push = [], [], []
        for i, f in zip(lanes, frontiers):
            extra = {"unexplored_edges": int(unexplored[i])} if forward else {}
            dec = prev[i] = sched.decide(
                frontier_size=int(f.size),
                frontier_edges=int(degree[f].sum()),
                num_nodes=n,
                num_edges=m,
                prev=prev[i],
                **extra,
            )
            if dec.direction == "pull":
                pull.append((i, dec))
            else:
                push.append(i)
                push_dec.append(dec)
        return push_dec, pull, push

    def price_level(lanes, lx, decisions) -> None:
        # outer pricing charges merged levels after the traversal
        if pricing == "frontier":
            charge_lane_level(ledger, lanes, lx.sweeps, decisions)
        elif pricing == "topology":
            cost = ctx.price(None)
            for i in lanes:
                ledger.add(i, cost)

    degree = np.diff(offsets)
    max_degree = int(degree.max()) if n else 0
    level2 = np.full((num_lanes, n), -1, dtype=np.int64)
    sigma2 = np.zeros((num_lanes, n))
    level_flat = level2.reshape(-1)
    sigma_flat = sigma2.reshape(-1)
    fronts: list[list[np.ndarray]] = [[] for _ in range(num_lanes)]
    prev = [None] * num_lanes
    unexplored = np.empty(num_lanes, dtype=np.int64)
    ledger = LaneLedger(ctx, num_lanes)
    for i, s in enumerate(sources):
        s_slot = int(primary[s])
        lv = level2[i]
        sg = sigma2[i]
        lv[s_slot] = 0
        sg[s_slot] = 1.0
        sync_levels(lv, g_slots, g_gids, num_groups)
        merge_positive_mean(sg, lv)
        f = np.nonzero(lv == 0)[0].astype(np.int64)
        fronts[i].append(f)
        if sched is not None:  # only decide() reads unexplored_edges
            unexplored[i] = m - int(degree[f].sum())
    lane_depth = np.zeros(num_lanes, dtype=np.int64)
    active = list(range(num_lanes))
    depth = 0
    # unscheduled forward records, reused verbatim by the backward pass
    # (same frontiers, same lanes): depth -> [(lanes, src, dst) per group]
    level_recs: dict[int, list] = {}
    obs_metrics.counter("perf.batched.runs").inc()
    obs_metrics.counter("perf.batched.lanes").inc(num_lanes)

    # ---- forward pass: all lanes' BFS DAGs + path counts ---------------
    while active:
        if deadline is not None:
            deadline.check("sweep")
        decisions, pull_lanes, push_lanes = decide(
            active, (fronts[i][-1] for i in active), True
        )
        # without replica sync the next frontier is exactly the freshly
        # levelled dsts — sorting those few beats the O(V) scan of
        # `level` (but not when the level touched a node-count's worth
        # of edges, hence the size gate); lane -> its sorted frontier
        fresh_front: dict[int, np.ndarray] = {}
        for i, dec in pull_lanes:
            # bottom-up level: unvisited candidates gather over the
            # reverse view; surviving records (in-neighbor on the
            # current level) are re-sorted by forward edge id, so the
            # sigma scatter runs in the push path's global CSR edge
            # order — bit-identical accumulation
            pv, rind = _pull_arrays()
            lv = level2[i]
            sg = sigma2[i]
            candidates = np.nonzero(lv < 0)[0].astype(np.int64)
            rexp = expand_frontier(pv.rev.offsets, rind, candidates)
            ledger.add(
                i,
                ctx.price(
                    candidates,
                    subgraph=pv.rev,
                    expansion=rexp,
                    partition=dec.partition,
                ),
            )
            sel = lv[rexp.e_dst] == depth
            order = np.argsort(pv.fwd_eid[rexp.epos[sel]])
            e_src = rexp.e_dst[sel][order]
            e_dst = rexp.e_src[sel][order]
            fresh = lv[e_dst] < 0
            fresh_dst = e_dst[fresh]
            if fresh_dst.size:
                lv[fresh_dst] = depth + 1
            onward = lv[e_dst] == depth + 1
            if onward.any():
                np.add.at(sg, e_dst[onward], sg[e_src[onward]])
            if num_groups == 0 and fresh_dst.size * 4 < n:
                fresh_front[i] = np.unique(fresh_dst)
        # a sorted frontier gathers its edges in global CSR edge order,
        # so each lane's scatter-adds accumulate exactly as a full-edge
        # scan would
        frontiers = [fronts[i][-1] for i in push_lanes]
        recs = []
        for lo, hi in lane_groups(frontiers) if push_lanes else ():
            lanes = push_lanes[lo:hi]
            lx, flat_src, flat_dst = expand(lanes, frontiers[lo:hi])
            recs.append((lanes, flat_src, flat_dst))
            fresh = level_flat[flat_dst] < 0
            fdst = flat_dst[fresh]
            if fdst.size:
                level_flat[fdst] = depth + 1
            onward = level_flat[flat_dst] == depth + 1
            if onward.any():
                np.add.at(
                    sigma_flat, flat_dst[onward], sigma_flat[flat_src[onward]]
                )
            price_level(lanes, lx, None if decisions is None else decisions[lo:hi])
            if num_groups == 0:
                fresh_front.update(
                    _fresh_frontiers(lanes, fresh, fdst, lx.rec_bounds, n)
                )
        if sched is None:
            level_recs[depth] = recs
        still = []
        for i in active:
            lv = level2[i]
            sync_levels(lv, g_slots, g_gids, num_groups)
            merge_positive_mean(sigma2[i], lv)
            f = fresh_front.get(i)
            if f is None:
                f = np.nonzero(lv == depth + 1)[0].astype(np.int64)
            fronts[i].append(f)
            if sched is not None:
                unexplored[i] -= int(degree[f].sum())
            lane_depth[i] = depth + 1
            if f.size:
                still.append(i)
        active = still
        depth += 1
    ledger.flush()

    # ---- backward pass: dependency accumulation ------------------------
    # one global descending level counter; a lane of depth k joins at
    # d = k - 1, so its per-level decide/charge/scatter sequence is
    # exactly its own run's
    delta2 = np.zeros((num_lanes, n))
    delta_flat = delta2.reshape(-1)
    depths = lane_depth.tolist()
    max_depth = max(depths)
    for d in range(max_depth - 1, -1, -1):
        if deadline is not None:
            deadline.check("sweep")
        lanes_here = [i for i in range(num_lanes) if d < depths[i]]
        decisions, pull_lanes, push_lanes = decide(
            lanes_here, (fronts[i][d] for i in lanes_here), False
        )
        for i, dec in pull_lanes:
            # pull this level from the next one: the level-(d+1)
            # frontier gathers its in-edges over the reverse view, keeps
            # those from level-d parents with counted paths, and
            # re-sorts by forward edge id — the exact kept set and
            # scatter order of the push path
            lv = level2[i]
            sg = sigma2[i]
            dl = delta2[i]
            nexts = fronts[i][d + 1]
            if nexts.size:
                pv, rind = _pull_arrays()
                rexp = expand_frontier(pv.rev.offsets, rind, nexts)
                ledger.add(
                    i,
                    ctx.price(
                        nexts,
                        subgraph=pv.rev,
                        expansion=rexp,
                        partition=dec.partition,
                    ),
                )
                keep = (lv[rexp.e_dst] == d) & (sg[rexp.e_src] > 0)
                order = np.argsort(pv.fwd_eid[rexp.epos[keep]])
                e_src = rexp.e_dst[keep][order]
                e_dst = rexp.e_src[keep][order]
                if e_src.size:
                    contrib = sg[e_src] / sg[e_dst] * (1.0 + dl[e_dst])
                    np.add.at(dl, e_src, contrib)
            merge_delta(dl, lv)
        # every out-edge of a level-d node is a level-d edge, already in
        # ascending edge order: the stacked expansion of each lane's
        # level-d frontier is its level's edge list
        recs = level_recs.pop(d, None)
        if recs is not None:
            # unscheduled: the forward level's own lanes and records
            if pricing == "frontier":
                # the same sweeps the forward pass priced
                ledger.repeat(push_lanes, d)
            else:
                price_level(push_lanes, None, None)
        elif push_lanes:
            frontiers = [fronts[i][d] for i in push_lanes]
            recs = []
            for lo, hi in lane_groups(frontiers):
                lanes = push_lanes[lo:hi]
                bx, flat_src, flat_dst = expand(lanes, frontiers[lo:hi])
                price_level(lanes, bx, decisions[lo:hi])
                recs.append((lanes, flat_src, flat_dst))
        for lanes, flat_src, flat_dst in recs or ():
            keep = (level_flat[flat_dst] == d + 1) & (sigma_flat[flat_dst] > 0)
            ks = flat_src[keep]
            kd = flat_dst[keep]
            if ks.size:
                contrib = sigma_flat[ks] / sigma_flat[kd] * (1.0 + delta_flat[kd])
                np.add.at(delta_flat, ks, contrib)
            for i in lanes:
                merge_delta(delta2[i], level2[i])
    ledger.flush()

    bc = np.zeros(n)
    for i, s in enumerate(sources):
        delta2[i][int(primary[s])] = 0.0
        visited = level2[i] >= 0
        bc[visited] += delta2[i][visited]
    aux = {
        "sources": sources,
        "per_source_iterations": depths,
    }
    if pricing == "outer":
        # one sweep per level, all lanes' work items batched; a node
        # active for several sources occupies one lane per (source,
        # node) work item, exactly as an outer-parallel kernel would
        # launch it.  Forward levels go in depth order, backward levels
        # in the order the sources first reach them walking back.
        def merged(d):
            return np.concatenate(
                [fronts[i][d] for i in range(num_lanes) if d < depths[i]]
            )

        for d in range(max_depth):
            ctx.charge(merged(d))
        backward = dict.fromkeys(
            d for k in depths for d in range(k - 1, -1, -1)
        )
        for d in backward:
            ctx.charge(merged(d))
    else:
        # per-lane attribution, then the lanes ledgered source by
        # source — the totals and solve.* counters of the sources run
        # back to back
        aux["per_source_metrics"] = ledger.lane_metrics(runner.device)
        ledger.replay()
    return AlgorithmResult(
        values=plan.lower(bc),
        metrics=runner.metrics,
        iterations=sum(depths),
        aux=aux,
    )


def _fresh_frontiers(lanes, fresh, fdst, rec_bounds, n) -> dict:
    """``{lane: sorted fresh nodes}`` for the stacked lanes whose fresh
    records pass the size gate (fewer than ``n / 4``).

    ``fresh`` flags the level's records that levelled a node and
    ``fdst`` holds their lane-flat destinations in lane order, so each
    lane's fresh records are one contiguous slice of ``fdst``, shifted
    by ``lane * n``.
    """
    out = {}
    hi = 0
    for pos, i in enumerate(lanes):
        lo = hi
        if len(lanes) == 1:
            hi = fdst.size
        else:
            hi += int(np.count_nonzero(fresh[rec_bounds[pos] : rec_bounds[pos + 1]]))
        if (hi - lo) * 4 < n:
            out[i] = np.unique(fdst[lo:hi] - i * n if i else fdst[lo:hi])
    return out
