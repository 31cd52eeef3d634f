"""§3: reducing memory latency via clustering-coefficient-guided shared memory.

Nodes with high clustering coefficient sit in well-connected clusters that
iterative algorithms revisit constantly; Graffix pins such nodes *and
their 1-hop neighbours* into shared memory and iterates each pinned
subgraph locally for ``t ~ 2 x subgraph diameter`` rounds before pushing
attributes back to global memory.

Approximation enters through edge addition, in two regimes:

1. nodes whose CC is *just below* the threshold get edges between 2-hop
   neighbour pairs that already share a common neighbour, lifting the CC
   over the bar so the cluster qualifies;
2. nodes already above the threshold get edges between their least
   inter-connected sibling pairs, thickening the cluster.

A global edge budget caps the total approximation (§3: "we maintain a
global limit for the number of edges added").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import TransformError
from ..graphs.csr import CSRGraph
from ..graphs.properties import cc_from_counts, clustering_coefficients
from ..gpusim.device import DeviceConfig, K40C
from .knobs import SharedMemoryKnobs

__all__ = ["SharedMemoryPlan", "plan_shared_memory"]

# hubs with enormous degree never have high CC and would make the pairwise
# sibling analysis quadratic; skip them outright.
_MAX_ANALYZED_DEGREE = 64


@dataclass
class SharedMemoryPlan:
    """Outcome of the §3 transform.

    Attributes
    ----------
    graph:
        the graph with approximation edges added.
    resident_mask:
        boolean per node: True if the node is inside some pinned cluster
        (accesses to it are charged shared-memory latency).
    clusters:
        list of node-id arrays; each is one pinned subgraph (a high-CC
        center plus its 1-hop neighbours), sized to fit
        ``device.shared_mem_words``.
    cluster_graph:
        CSR over the same node-id space containing only intra-cluster
        edges — the edge set the local iterations run over.
    local_iterations:
        the ``t`` each cluster iterates inside shared memory.
    edges_added:
        directed arcs actually added to the CSR (each logical sibling
        connection contributes two, minus dedup collisions).
    cc:
        post-transform clustering coefficients (for inspection/tests).
    """

    graph: CSRGraph
    resident_mask: np.ndarray
    clusters: list[np.ndarray]
    cluster_graph: CSRGraph
    local_iterations: int
    edges_added: int
    cc: np.ndarray


def _undirected_adjacency(graph: CSRGraph) -> list[set[int]]:
    """Neighbor sets of the undirected view, for pairwise CC reasoning."""
    und = graph.to_undirected()
    off = und.offsets.tolist()
    ind = und.indices.tolist()
    return [set(ind[off[v] : off[v + 1]]) for v in range(und.num_nodes)]


def plan_shared_memory(
    graph: CSRGraph,
    knobs: SharedMemoryKnobs | None = None,
    device: DeviceConfig = K40C,
) -> SharedMemoryPlan:
    """Apply the §3 transform and build the shared-memory residency plan."""
    knobs = knobs or SharedMemoryKnobs()
    n = graph.num_nodes
    if n == 0:
        raise TransformError("cannot plan shared memory for an empty graph")

    # a copy: case 1 updates cc in place, and with repro.cache enabled the
    # returned array is the memoized one
    cc = clustering_coefficients(graph).copy()
    budget = int(knobs.edge_budget_fraction * graph.num_edges)
    adj = _undirected_adjacency(graph)
    degrees = np.array([len(s) for s in adj], dtype=np.int64)
    # exact triangle counts, maintained as edges are added: cc is a
    # correctly rounded quotient of tri / C(deg, 2), so rint recovers the
    # integer exactly for any count far below 2**50
    tri = np.rint(cc * (degrees * (degrees - 1) / 2.0)).astype(np.int64).tolist()

    new_src: list[int] = []
    new_dst: list[int] = []
    new_w: list[float] = []
    weighted = graph.is_weighted
    offsets, indices, weights = graph.offsets, graph.indices, graph.weights

    def hop_weight(x: int, y: int) -> float:
        # lightest x->y arc, else lightest y->x arc, else 1.0; looked up
        # per added edge rather than tabulating every arc up front
        for s, d in ((x, y), (y, x)):
            lo, hi = offsets[s], offsets[s + 1]
            hits = np.flatnonzero(indices[lo:hi] == d)
            if hits.size:
                return min(weights[lo + hits].tolist())
        return 1.0

    def path_weight(a: int, mid: int, b: int) -> float:
        # §3 gives no weight rule for its added edges (§4's sum rule is
        # specific to the divergence transform, and the paper itself calls
        # the choice "often fuzzy").  We use the mean of the two hop
        # weights: the new sibling edge then genuinely perturbs weighted
        # algorithms (it can undercut the 2-hop path), which is the source
        # of this technique's higher measured inaccuracy.
        if not weighted:
            return 1.0
        return (hop_weight(a, mid) + hop_weight(mid, b)) / 2.0

    def emit(a: int, b: int, weight: float) -> None:
        # one logical (undirected) addition = two directed arcs
        new_src.extend((a, b))
        new_dst.extend((b, a))
        if weighted:
            new_w.extend((weight, weight))
        # the new edge closes one triangle through each common neighbour
        common = adj[a] & adj[b]
        tri[a] += len(common)
        tri[b] += len(common)
        for w in common:
            tri[w] += 1
        adj[a].add(b)
        adj[b].add(a)

    added = 0
    lo = max(0.0, knobs.cc_threshold - knobs.boost_band)

    # ---- case 1: boost near-threshold nodes over the bar -------------------
    boost_order = np.argsort(-cc)
    for v in boost_order:
        if added >= budget:
            break
        v = int(v)
        if not (lo <= cc[v] < knobs.cc_threshold):
            continue
        if degrees[v] < 2 or degrees[v] > _MAX_ANALYZED_DEGREE:
            continue
        nbrs = sorted(adj[v])
        # candidate pairs: neighbours of v sharing a common neighbour, not
        # yet adjacent ("preferentially between those neighbors ... that
        # have common neighbors")
        done = False
        for i, a in enumerate(nbrs):
            if done:
                break
            for b in nbrs[i + 1 :]:
                if b in adj[a]:
                    continue
                common = adj[a] & adj[b]
                if not common:
                    continue
                mid = min(common)
                emit(a, b, path_weight(a, mid, b))
                added += 2
                d = len(adj[v])
                cur = 2.0 * tri[v] / (d * (d - 1))
                cc[v] = cur
                if cur >= knobs.cc_threshold or added >= budget:
                    done = True
                    break

    # ---- case 2: thicken already-high clusters ------------------------------
    high = np.nonzero(cc >= knobs.cc_threshold)[0]
    for v in high[np.argsort(-cc[high])]:
        if added >= budget:
            break
        v = int(v)
        if degrees[v] < 2 or degrees[v] > _MAX_ANALYZED_DEGREE:
            continue
        nbrs = sorted(adj[v])
        # sibling with fewest edges to the other siblings
        sib_links = {
            a: sum(1 for b in nbrs if b != a and b in adj[a]) for a in nbrs
        }
        order = sorted(nbrs, key=lambda a: (sib_links[a], a))
        # connect the two least-connected siblings if they are a 2-hop pair
        for i, a in enumerate(order):
            if added >= budget:
                break
            for b in order[i + 1 :]:
                if b in adj[a]:
                    continue
                common = adj[a] & adj[b]
                if not common:
                    continue
                mid = min(common)
                emit(a, b, path_weight(a, mid, b))
                added += 2
                break
            else:
                continue
            break  # one new edge per high-CC node keeps the budget spread

    # ---- rebuild graph with the new (bidirectional) edges -------------------
    if new_src:
        src = np.concatenate(
            [graph.edge_sources().astype(np.int64), np.asarray(new_src, dtype=np.int64)]
        )
        dst = np.concatenate(
            [graph.indices.astype(np.int64), np.asarray(new_dst, dtype=np.int64)]
        )
        w = (
            np.concatenate([graph.weights, np.asarray(new_w)])
            if weighted
            else None
        )
        out_graph = CSRGraph.from_edges(n, src, dst, w, dedup=True)
        # report the *directed* arc delta actually landed in the CSR
        # (dedup may collapse a few collisions with pre-existing arcs)
        added = out_graph.num_edges - graph.num_edges
    else:
        out_graph = graph
        added = 0

    # ---- pick clusters under the shared-memory capacity ---------------------
    # adj now holds exactly out_graph's undirected view: every emitted pair
    # was a non-adjacent, distinct 2-hop pair
    final_cc = cc_from_counts(tri, [len(s) for s in adj])
    capacity = device.shared_mem_words
    resident = np.zeros(n, dtype=bool)
    clusters: list[np.ndarray] = []
    for v in np.argsort(-final_cc):
        v = int(v)
        if final_cc[v] < knobs.cc_threshold:
            break
        if resident[v]:
            continue
        members = np.array(sorted(adj[v] | {v}), dtype=np.int64)
        if members.size > capacity:
            continue
        clusters.append(members)
        resident[members] = True

    # intra-cluster edge set (what the local iterations relax over)
    mask = out_graph.subgraph_edge_mask(resident)
    cluster_graph = CSRGraph.from_edges(
        n,
        out_graph.edge_sources()[mask].astype(np.int64),
        out_graph.indices[mask].astype(np.int64),
        out_graph.weights[mask] if weighted else None,
    )

    # each cluster is a center plus 1-hop neighbours: diameter <= 2 on its
    # own, so t ~ iterations_factor * 2 (§3's recommendation)
    t = max(1, int(round(knobs.iterations_factor * 2)))

    return SharedMemoryPlan(
        graph=out_graph,
        resident_mask=resident,
        clusters=clusters,
        cluster_graph=cluster_graph,
        local_iterations=t,
        edges_added=added,
        cc=final_cc,
    )
