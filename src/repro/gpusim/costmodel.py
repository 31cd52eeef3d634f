"""The cycle-accounting heart of the GPU simulator.

:func:`charge_sweep` analyses one vertex-centric kernel sweep over a CSR
graph and returns a :class:`SweepCost` with the three cost components the
paper optimizes:

1. **compute / divergence** — each warp serializes ``max`` lane degree
   neighbor-loop steps (idle lanes don't help);
2. **memory transactions** — per warp step, distinct ``line_words``
   segments touched in (a) the edges array (reading neighbor ids), and
   (b) the node-attribute array (reading/atomically-updating the
   destination's attribute), plus one coalesced-ish pass over the source
   attributes;
3. **latency class** — attribute transactions whose destination is marked
   *resident* (simulated shared memory) are charged ``shared_latency``
   instead of ``global_latency``.

The function never computes algorithm values — value updates are done by
the (vectorized, honest) algorithm implementations; this separation keeps
the simulator deterministic and testable against brute force.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import SimulationError
from ..graphs.csr import CSRGraph
from ..graphs.properties import ragged_arange
from .device import DeviceConfig

__all__ = [
    "SweepCost",
    "charge_sweep",
    "charge_sweeps_batched",
    "expand_accesses",
    "fold_costs",
]

_INT64_MAX = np.iinfo(np.int64).max


@dataclass(frozen=True)
class SweepCost:
    """Cost breakdown of one kernel sweep (all counts summed over warps)."""

    serial_steps: int = 0
    busy_lane_steps: int = 0
    idle_lane_steps: int = 0
    edge_transactions: int = 0
    attr_global_transactions: int = 0
    attr_shared_transactions: int = 0
    src_transactions: int = 0
    atomic_ops: int = 0
    cycles: float = 0.0

    def __add__(self, other: "SweepCost") -> "SweepCost":
        if not isinstance(other, SweepCost):
            return NotImplemented
        # spelled out positionally: this runs once per simulated sweep,
        # and dataclasses.fields() + kwargs construction showed up in
        # solver profiles
        return SweepCost(
            self.serial_steps + other.serial_steps,
            self.busy_lane_steps + other.busy_lane_steps,
            self.idle_lane_steps + other.idle_lane_steps,
            self.edge_transactions + other.edge_transactions,
            self.attr_global_transactions + other.attr_global_transactions,
            self.attr_shared_transactions + other.attr_shared_transactions,
            self.src_transactions + other.src_transactions,
            self.atomic_ops + other.atomic_ops,
            self.cycles + other.cycles,
        )

    @property
    def total_transactions(self) -> int:
        return (
            self.edge_transactions
            + self.attr_global_transactions
            + self.attr_shared_transactions
            + self.src_transactions
        )

    @property
    def divergence_ratio(self) -> float:
        total = self.busy_lane_steps + self.idle_lane_steps
        return self.idle_lane_steps / total if total else 0.0


def fold_costs(costs, start: SweepCost = SweepCost()) -> SweepCost:
    """``start`` plus every cost in ``costs``, in order.

    Bit-identical to a chain of :meth:`SweepCost.__add__` (the integer
    fields are exact either way, and the cycles add in the same
    left-to-right order), but one pass with local accumulators instead
    of one new object per cost.
    """
    ss = start.serial_steps
    bl = start.busy_lane_steps
    il = start.idle_lane_steps
    et = start.edge_transactions
    ag = start.attr_global_transactions
    ash = start.attr_shared_transactions
    st = start.src_transactions
    ao = start.atomic_ops
    cy = start.cycles
    for c in costs:
        ss += c.serial_steps
        bl += c.busy_lane_steps
        il += c.idle_lane_steps
        et += c.edge_transactions
        ag += c.attr_global_transactions
        ash += c.attr_shared_transactions
        st += c.src_transactions
        ao += c.atomic_ops
        cy += c.cycles
    return SweepCost(ss, bl, il, et, ag, ash, st, ao, cy)


def expand_accesses(
    graph: CSRGraph, active: np.ndarray, warp_size: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Flatten the neighbor loops of ``active`` nodes into access records.

    Returns parallel arrays ``(warp, step, edge_pos, dst)``: for the
    ``j``-th neighbor of the node at position ``p`` of the active list,
    ``warp = p // warp_size``, ``step = j``, ``edge_pos`` is the index into
    the edges array being read, ``dst`` the neighbor id whose attribute is
    touched.
    """
    active = np.asarray(active, dtype=np.int64)
    degs = (graph.offsets[active + 1] - graph.offsets[active]).astype(np.int64)
    total = int(degs.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty, empty
    positions = np.arange(active.size, dtype=np.int64)
    warp = np.repeat(positions // warp_size, degs)
    # step j within each adjacency: global arange minus each segment start
    seg_starts = np.concatenate(([0], np.cumsum(degs)[:-1]))
    step = np.arange(total, dtype=np.int64) - np.repeat(seg_starts, degs)
    edge_pos = np.repeat(graph.offsets[active].astype(np.int64), degs) + step
    dst = graph.indices[edge_pos].astype(np.int64)
    return warp, step, edge_pos, dst


def _distinct_groups(
    group: np.ndarray, segment: np.ndarray, s_span: int
) -> int:
    """Distinct ``(group, segment)`` pairs, assuming ``segment < s_span``.

    ``group`` is the pre-packed warp-step id.  The count is exactly what
    :func:`repro.gpusim.memory.count_transactions` derives via its
    data-scanned key spans — any injective packing yields the same number
    of distinct keys — but with no extra reductions and an in-place sort
    of a throwaway key array instead of a hash table.
    """
    if group.size == 0:
        return 0
    keys = group * s_span + segment
    keys.sort()
    return 1 + int(np.count_nonzero(keys[1:] != keys[:-1]))


def _region_distinct(keys: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Per-region distinct-value counts of region-monotone ``keys``.

    ``bounds`` (length K+1) delimits K concatenated key regions; every
    key of region k must be strictly below every key of region k+1, so
    one global in-place sort keeps regions contiguous and a prefix sum
    of adjacent-change flags yields each region's distinct count.
    """
    if keys.size == 0:
        return np.zeros(bounds.size - 1, dtype=np.int64)
    keys.sort()
    # run starts except position 0; each region's first element is one
    # (keys change across region boundaries), so counting run starts in
    # [lo, hi) needs only a +1 for the run at position 0
    rs = np.nonzero(keys[1:] != keys[:-1])[0] + 1
    lo = bounds[:-1]
    hi = bounds[1:]
    cnt = np.searchsorted(rs, hi) - np.searchsorted(rs, lo)
    return np.where(hi > lo, cnt + (lo == 0), 0)


def charge_sweeps_batched(
    graph: CSRGraph,
    device: DeviceConfig,
    sweeps,
    *,
    resident_mask: np.ndarray | None = None,
) -> list[SweepCost]:
    """Vectorized equivalent of one :func:`charge_sweep` per expansion.

    ``sweeps`` is a sequence of precomputed expansions (duck-typed like
    :class:`~repro.perf.gather.SweepExpansion`), each describing one
    sweep's active list *in processing order* over ``graph``.  Returns
    exactly the :class:`SweepCost` objects the per-sweep calls would —
    same integers, bit-identical cycles — but with the warp schedule,
    divergence stats, and transaction counts of every sweep computed in
    one pass over the concatenated arrays.  This is what makes per-sweep
    cost accounting cheap for level-synchronous solvers, whose hundreds
    of small frontiers otherwise pay fixed numpy overhead per sweep.

    ``all_shared`` sweeps are not supported (the §3 cluster iterations
    charge eagerly); ``resident_mask`` works as in :func:`charge_sweep`.
    """
    if device.warp_size <= 0:
        raise SimulationError("warp_size must be positive")
    line = device.line_words
    if line <= 0:
        raise SimulationError("line_words must be positive")
    if resident_mask is not None:
        resident_mask = np.asarray(resident_mask, dtype=bool)
        if resident_mask.size != graph.num_nodes:
            raise SimulationError("resident_mask length must equal num_nodes")
    sweeps = list(sweeps)
    live = [s for s in sweeps if s.frontier.size]
    if not live:
        return [SweepCost() for _ in sweeps]

    ws = device.warp_size
    active = np.concatenate([s.frontier for s in live])
    if active.min() < 0 or active.max() >= graph.num_nodes:
        raise SimulationError("active node id out of range")
    counts = np.array([s.frontier.size for s in live], dtype=np.int64)
    pos_bounds = np.concatenate(([0], np.cumsum(counts)))
    degs = np.concatenate([s.degs for s in live])
    edge_bounds = np.concatenate(
        ([0], np.cumsum([s.epos.size for s in live]))
    ).astype(np.int64)
    busy_k = np.diff(edge_bounds)

    # warp schedule: warps restart at every sweep boundary, numbered
    # globally so keys below stay sweep-monotone
    num_warps_k = -(-counts // ws)
    warp_offsets = np.concatenate(([0], np.cumsum(num_warps_k)))[:-1]
    pos_in_sweep = ragged_arange(counts)
    gwarp_of_pos = pos_in_sweep // ws + np.repeat(warp_offsets, counts)
    warp_start_pos = np.nonzero(pos_in_sweep % ws == 0)[0]
    warp_max = np.maximum.reduceat(degs, warp_start_pos)
    lanes = np.diff(np.append(warp_start_pos, active.size))
    serial_k = np.add.reduceat(warp_max, warp_offsets)
    idle_k = np.add.reduceat(warp_max * lanes, warp_offsets) - busy_k

    step_span = max(int(warp_max.max()), 1)
    edge_seg_span = graph.num_edges // line + 1
    node_seg_span = graph.num_nodes // line + 1
    total_warps = int(num_warps_k.sum())
    if total_warps * step_span * max(edge_seg_span, node_seg_span) >= _INT64_MAX:
        raise SimulationError("access space too large to encode in int64 keys")

    K = len(live)
    if int(busy_k.sum()):
        step = np.concatenate([s.step for s in live])
        epos = np.concatenate([s.epos for s in live])
        dst = np.concatenate([s.e_dst for s in live])
        gid = np.repeat(gwarp_of_pos * step_span, degs) + step
        edge_t_k = _region_distinct(gid * edge_seg_span + epos // line, edge_bounds)
        dst_seg = dst // line
        if resident_mask is not None:
            shared = resident_mask[dst]
            sh_pre = np.concatenate(
                ([0], np.cumsum(shared, dtype=np.int64))
            )
            sh_bounds = sh_pre[edge_bounds]
            gl_bounds = edge_bounds - sh_bounds
            attr_keys = gid * node_seg_span + dst_seg
            attr_global_k = _region_distinct(attr_keys[~shared], gl_bounds)
            attr_shared_k = _region_distinct(attr_keys[shared], sh_bounds)
        else:
            attr_global_k = _region_distinct(
                gid * node_seg_span + dst_seg, edge_bounds
            )
            attr_shared_k = np.zeros(K, dtype=np.int64)
    else:
        edge_t_k = attr_global_k = np.zeros(K, dtype=np.int64)
        attr_shared_k = np.zeros(K, dtype=np.int64)

    src_t_k = _region_distinct(
        gwarp_of_pos * node_seg_span + active // line, pos_bounds
    )

    costs = iter(
        SweepCost(
            serial_steps=int(serial_k[i]),
            busy_lane_steps=int(busy_k[i]),
            idle_lane_steps=int(idle_k[i]),
            edge_transactions=int(edge_t_k[i]),
            attr_global_transactions=int(attr_global_k[i]),
            attr_shared_transactions=int(attr_shared_k[i]),
            src_transactions=int(src_t_k[i]),
            atomic_ops=int(busy_k[i]),
            cycles=float(
                serial_k[i] * device.issue_cycles
                + edge_t_k[i] * device.edge_latency
                + attr_global_k[i] * device.global_latency
                + attr_shared_k[i] * device.shared_latency
                + src_t_k[i] * device.global_latency
                + busy_k[i] * device.atomic_cycles
            ),
        )
        for i in range(K)
    )
    return [next(costs) if s.frontier.size else SweepCost() for s in sweeps]


def charge_sweep(
    graph: CSRGraph,
    device: DeviceConfig,
    active: np.ndarray | None = None,
    *,
    resident_mask: np.ndarray | None = None,
    all_shared: bool = False,
    expansion=None,
    partition: str = "vertex",
) -> SweepCost:
    """Account the cycles of one vertex-centric sweep.

    Parameters
    ----------
    graph:
        the CSR graph the kernel runs over (possibly Graffix-transformed).
    active:
        node ids in processing order; ``None`` means all nodes in id order
        (topology-driven kernel).
    resident_mask:
        optional boolean per node: attribute accesses to resident nodes are
        charged at shared-memory latency (§3's pinned clusters).
    all_shared:
        charge *every* access (edges array included) at shared latency —
        used for the intra-cluster iterations of the §3 runner, where the
        whole subgraph lives in shared memory.
    expansion:
        optional :class:`~repro.perf.gather.SweepExpansion` of exactly
        ``active`` (same nodes, same order) over ``graph`` — lets a
        gather-engine solver hand over the adjacency arrays it already
        built instead of having them recomputed here.  The caller is
        trusted on the match (``ExecutionContext.charge`` verifies it);
        the resulting cost is identical either way.
    partition:
        ``"vertex"`` (default) assigns one warp lane per active node —
        the classic vertex-balanced kernel whose divergence the model
        was built to expose.  ``"edge"`` assigns one lane per gathered
        edge record instead: warps of consecutive edge records, one
        neighbor-loop step each, so divergence vanishes
        (``idle_lane_steps`` only from the ragged last warp) at the
        price of a per-record *source*-attribute read replacing the
        per-node source pass.  Schedules pick this via
        ``SweepDecision.partition``.
    """
    if partition not in ("vertex", "edge"):
        raise SimulationError(
            f"unknown partition {partition!r}; choose 'vertex' or 'edge'"
        )
    if active is None:
        active = np.arange(graph.num_nodes, dtype=np.int64)
    else:
        active = np.asarray(active, dtype=np.int64)
        if active.size and (active.min() < 0 or active.max() >= graph.num_nodes):
            raise SimulationError("active node id out of range")
    if resident_mask is not None:
        resident_mask = np.asarray(resident_mask, dtype=bool)
        if resident_mask.size != graph.num_nodes:
            raise SimulationError("resident_mask length must equal num_nodes")

    if active.size == 0:
        return SweepCost()
    if device.warp_size <= 0:
        raise SimulationError("warp_size must be positive")
    line = device.line_words
    if line <= 0:
        raise SimulationError("line_words must be positive")
    if partition == "edge":
        return _charge_sweep_edge(
            graph,
            device,
            active,
            resident_mask=resident_mask,
            all_shared=all_shared,
            expansion=expansion,
        )

    # This is the per-sweep hot path of the whole simulator: it runs once
    # per frontier per solver iteration, usually on small actives where
    # fixed numpy overhead dominates.  It therefore computes the warp
    # schedule, divergence stats, and access expansion inline (sharing
    # the degree array) and counts transactions with structural key
    # spans instead of data-scanned ones — the packing changes, but any
    # injective packing yields the identical distinct-segment count the
    # composable pieces (`form_warps` + `expand_accesses` +
    # `count_transactions`, kept for tests and external callers) produce.
    ws = device.warp_size
    count = active.size
    num_warps = -(-count // ws)
    if expansion is None:
        starts = graph.offsets[active].astype(np.int64)
        degs = graph.offsets[active + 1].astype(np.int64) - starts
    else:
        starts = None
        degs = expansion.degs
    warp_of_pos = np.arange(count, dtype=np.int64) // ws
    warp_starts = np.arange(0, count, ws, dtype=np.int64)
    warp_max = np.maximum.reduceat(degs, warp_starts)
    lanes = np.full(num_warps, ws, dtype=np.int64)
    lanes[-1] = count - warp_starts[-1]
    busy = int(degs.sum())
    serial = int(warp_max.sum())
    idle = int((warp_max * lanes).sum()) - busy

    # structural span bounds (no data scans); the guard mirrors
    # memory._encode_keys' int64 overflow refusal
    step_span = max(int(warp_max.max()), 1) if count else 1
    edge_seg_span = graph.num_edges // line + 1
    node_seg_span = graph.num_nodes // line + 1
    if num_warps * step_span * max(edge_seg_span, node_seg_span) >= _INT64_MAX:
        raise SimulationError("access space too large to encode in int64 keys")

    if busy:
        if expansion is None:
            step = ragged_arange(degs)
            edge_pos = np.repeat(starts, degs) + step
            dst = graph.indices[edge_pos].astype(np.int64)
        else:
            step = expansion.step
            edge_pos = expansion.epos
            dst = expansion.e_dst
        gid = np.repeat(warp_of_pos, degs) * step_span + step
        # (1) reading the edges array itself
        edge_t = _distinct_groups(gid, edge_pos // line, edge_seg_span)
        # (2) destination-attribute accesses, split by residency
        dst_seg = dst // line
        if all_shared:
            attr_global_t = 0
            attr_shared_t = _distinct_groups(gid, dst_seg, node_seg_span)
        elif resident_mask is not None:
            shared = resident_mask[dst]
            glob = ~shared
            attr_global_t = _distinct_groups(
                gid[glob], dst_seg[glob], node_seg_span
            )
            attr_shared_t = _distinct_groups(
                gid[shared], dst_seg[shared], node_seg_span
            )
        else:
            attr_global_t = _distinct_groups(gid, dst_seg, node_seg_span)
            attr_shared_t = 0
    else:
        edge_t = attr_global_t = attr_shared_t = 0
    edge_latency = device.shared_latency if all_shared else device.edge_latency

    # (3) one source-attribute pass: lane p reads/writes attribute of its own
    # node; coalesced iff active ids are clustered.
    src_t = _distinct_groups(warp_of_pos, active // line, node_seg_span)
    src_latency = device.shared_latency if all_shared else device.global_latency

    atomic_ops = busy
    cycles = (
        serial * device.issue_cycles
        + edge_t * edge_latency
        + attr_global_t * device.global_latency
        + attr_shared_t * device.shared_latency
        + src_t * src_latency
        + atomic_ops * device.atomic_cycles
    )
    return SweepCost(
        serial_steps=serial,
        busy_lane_steps=busy,
        idle_lane_steps=idle,
        edge_transactions=edge_t,
        attr_global_transactions=attr_global_t,
        attr_shared_transactions=attr_shared_t,
        src_transactions=src_t,
        atomic_ops=atomic_ops,
        cycles=float(cycles),
    )


def _charge_sweep_edge(
    graph: CSRGraph,
    device: DeviceConfig,
    active: np.ndarray,
    *,
    resident_mask: np.ndarray | None,
    all_shared: bool,
    expansion,
) -> SweepCost:
    """Edge-balanced variant of :func:`charge_sweep`.

    The work items are the gathered edge *records* themselves: warps of
    ``warp_size`` consecutive records, each lane handling exactly one
    record in one neighbor-loop step.  Degree skew therefore costs
    nothing — ``serial_steps = ceil(E / warp_size)`` and the only idle
    lanes sit in the ragged final warp — which is the whole point of
    edge-balanced load partitioning (Gunrock's LB advance).  The price
    the model charges: every lane must read its *own record's source
    attribute* (lanes no longer share one node per lane), so the
    source-attribute pass becomes per-record transactions grouped by
    the edge-warp, typically more traffic than the vertex-balanced
    per-node pass on clustered frontiers.
    """
    line = device.line_words
    if expansion is None:
        starts = graph.offsets[active].astype(np.int64)
        degs = graph.offsets[active + 1].astype(np.int64) - starts
        total = int(degs.sum())
        if total:
            step = ragged_arange(degs)
            edge_pos = np.repeat(starts, degs) + step
            dst = graph.indices[edge_pos].astype(np.int64)
            e_src = np.repeat(active, degs)
    else:
        degs = expansion.degs
        total = int(expansion.epos.size)
        if total:
            edge_pos = expansion.epos
            dst = expansion.e_dst
            e_src = expansion.e_src
            if e_src is None:
                e_src = np.repeat(expansion.frontier, degs)
    if total == 0:
        return SweepCost()

    ws = device.warp_size
    num_warps = -(-total // ws)
    edge_seg_span = graph.num_edges // line + 1
    node_seg_span = graph.num_nodes // line + 1
    if num_warps * max(edge_seg_span, node_seg_span) >= _INT64_MAX:
        raise SimulationError("access space too large to encode in int64 keys")

    # one record per lane, one step per warp: no degree divergence
    serial = num_warps
    busy = total
    idle = num_warps * ws - total
    gid = np.arange(total, dtype=np.int64) // ws

    edge_t = _distinct_groups(gid, edge_pos // line, edge_seg_span)
    dst_seg = dst // line
    if all_shared:
        attr_global_t = 0
        attr_shared_t = _distinct_groups(gid, dst_seg, node_seg_span)
    elif resident_mask is not None:
        shared = resident_mask[dst]
        glob = ~shared
        attr_global_t = _distinct_groups(gid[glob], dst_seg[glob], node_seg_span)
        attr_shared_t = _distinct_groups(
            gid[shared], dst_seg[shared], node_seg_span
        )
    else:
        attr_global_t = _distinct_groups(gid, dst_seg, node_seg_span)
        attr_shared_t = 0
    edge_latency = device.shared_latency if all_shared else device.edge_latency

    # per-record source-attribute read, coalesced within each edge-warp
    src_t = _distinct_groups(gid, e_src // line, node_seg_span)
    src_latency = device.shared_latency if all_shared else device.global_latency

    atomic_ops = busy
    cycles = (
        serial * device.issue_cycles
        + edge_t * edge_latency
        + attr_global_t * device.global_latency
        + attr_shared_t * device.shared_latency
        + src_t * src_latency
        + atomic_ops * device.atomic_cycles
    )
    return SweepCost(
        serial_steps=serial,
        busy_lane_steps=busy,
        idle_lane_steps=idle,
        edge_transactions=edge_t,
        attr_global_transactions=attr_global_t,
        attr_shared_transactions=attr_shared_t,
        src_transactions=src_t,
        atomic_ops=atomic_ops,
        cycles=float(cycles),
    )
