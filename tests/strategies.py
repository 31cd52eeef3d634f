"""Shared hypothesis strategies for the property-based tests.

``random_graphs`` draws *simple* graphs (the contract most library entry
points provide).  The adversarial strategies below deliberately break
that mold — multigraphs, self loops, disconnected pieces, zero-weight
edges, stars and chains — because those are exactly the shapes that hid
the PR 3 divergence-dedup and BFS-roots bugs.  ``adversarial_graphs``
is the one-of union for tests that should survive anything.
"""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from repro.graphs.csr import CSRGraph

__all__ = [
    "random_graphs",
    "multigraphs",
    "self_loop_graphs",
    "disconnected_graphs",
    "zero_weight_graphs",
    "star_graphs",
    "chain_graphs",
    "clique_graphs",
    "adversarial_graphs",
    "budget_ladders",
]


@st.composite
def random_graphs(draw, max_nodes=40, max_edges=200, weighted=None):
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    m = draw(st.integers(min_value=0, max_value=max_edges))
    src = draw(
        st.lists(st.integers(0, n - 1), min_size=m, max_size=m).map(np.array)
    )
    dst = draw(
        st.lists(st.integers(0, n - 1), min_size=m, max_size=m).map(np.array)
    )
    if weighted is None:
        weighted = draw(st.booleans())
    w = None
    if weighted:
        w = draw(
            st.lists(
                st.floats(0.5, 100.0, allow_nan=False),
                min_size=m,
                max_size=m,
            ).map(np.array)
        )
    if m == 0:
        src = np.empty(0, dtype=np.int64)
        dst = np.empty(0, dtype=np.int64)
        w = np.empty(0, dtype=np.float64) if weighted else None
    # simple graphs only: every library entry point (the generators, the
    # SNAP loader) dedups, and the transforms document that contract
    return CSRGraph.from_edges(n, src, dst, w, dedup=True)


def _weights_for(draw, m, weighted):
    if weighted is None:
        weighted = draw(st.booleans())
    if not weighted:
        return None
    if m == 0:
        return np.empty(0, dtype=np.float64)
    return draw(
        st.lists(
            st.floats(0.5, 100.0, allow_nan=False), min_size=m, max_size=m
        ).map(np.array)
    )


@st.composite
def multigraphs(draw, max_nodes=24, max_edges=120, weighted=None):
    """Graphs with guaranteed parallel edges (``dedup=False``)."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    m = draw(st.integers(min_value=1, max_value=max_edges))
    src = np.array(draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m)))
    dst = np.array(draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m)))
    # duplicate a prefix verbatim so parallel edges are certain
    dup = draw(st.integers(min_value=1, max_value=m))
    src = np.concatenate([src, src[:dup]])
    dst = np.concatenate([dst, dst[:dup]])
    w = _weights_for(draw, src.size, weighted)
    return CSRGraph.from_edges(n, src, dst, w, dedup=False)


@st.composite
def self_loop_graphs(draw, max_nodes=24, max_edges=100):
    """Simple-ish graphs where a drawn subset of nodes carries self loops."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    m = draw(st.integers(min_value=0, max_value=max_edges))
    src = np.array(
        draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m)),
        dtype=np.int64,
    )
    dst = np.array(
        draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m)),
        dtype=np.int64,
    )
    loops = np.array(
        draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=max(1, n // 2))),
        dtype=np.int64,
    )
    src = np.concatenate([src, loops])
    dst = np.concatenate([dst, loops])
    return CSRGraph.from_edges(n, src, dst, dedup=True)


@st.composite
def disconnected_graphs(draw, max_block=12, max_edges_per_block=40):
    """Two independent components plus a tail of fully isolated nodes."""
    a = draw(st.integers(min_value=1, max_value=max_block))
    b = draw(st.integers(min_value=1, max_value=max_block))
    isolated = draw(st.integers(min_value=1, max_value=6))
    n = a + b + isolated

    def block(lo, size):
        m = draw(st.integers(min_value=0, max_value=max_edges_per_block))
        s = draw(st.lists(st.integers(lo, lo + size - 1), min_size=m, max_size=m))
        d = draw(st.lists(st.integers(lo, lo + size - 1), min_size=m, max_size=m))
        return np.array(s, dtype=np.int64), np.array(d, dtype=np.int64)

    sa, da = block(0, a)
    sb, db = block(a, b)
    return CSRGraph.from_edges(
        n, np.concatenate([sa, sb]), np.concatenate([da, db]), dedup=True
    )


@st.composite
def zero_weight_graphs(draw, max_nodes=24, max_edges=100):
    """Weighted graphs where a drawn fraction of edges weighs exactly 0."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    m = draw(st.integers(min_value=1, max_value=max_edges))
    src = np.array(draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m)))
    dst = np.array(draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m)))
    w = np.array(
        draw(
            st.lists(
                st.floats(0.5, 50.0, allow_nan=False), min_size=m, max_size=m
            )
        )
    )
    stride = draw(st.integers(min_value=1, max_value=m))
    w[::stride] = 0.0
    return CSRGraph.from_edges(n, src, dst, w, dedup=True)


@st.composite
def star_graphs(draw, max_leaves=32):
    """A hub plus leaves — maximal degree variance; some leaves point back."""
    leaves = draw(st.integers(min_value=1, max_value=max_leaves))
    n = leaves + 1
    back = draw(st.integers(min_value=0, max_value=leaves))
    leaf_ids = np.arange(1, n, dtype=np.int64)
    src = np.concatenate([np.zeros(leaves, dtype=np.int64), leaf_ids[:back]])
    dst = np.concatenate([leaf_ids, np.zeros(back, dtype=np.int64)])
    return CSRGraph.from_edges(n, src, dst)


@st.composite
def chain_graphs(draw, max_nodes=40, weighted=None):
    """A directed path — maximal diameter at uniform degree 1."""
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    src = np.arange(n - 1, dtype=np.int64)
    w = _weights_for(draw, n - 1, weighted)
    return CSRGraph.from_edges(n, src, src + 1, w)


@st.composite
def clique_graphs(draw, max_size=12, max_pendants=6):
    """A clique (every triangle closed), optionally minus a few edges and
    plus pendant nodes hanging off it — CC exactly 1, just below 1 and 0."""
    k = draw(st.integers(min_value=1, max_value=max_size))
    pendants = draw(st.integers(min_value=0, max_value=max_pendants))
    n = k + pendants
    iu, ju = np.triu_indices(k, 1)
    drop = draw(st.integers(min_value=0, max_value=min(3, iu.size)))
    iu, ju = iu[drop:], ju[drop:]
    anchors = np.array(
        draw(st.lists(st.integers(0, k - 1), min_size=pendants, max_size=pendants)),
        dtype=np.int64,
    )
    src = np.concatenate([iu, np.arange(k, n)])
    dst = np.concatenate([ju, anchors])
    return CSRGraph.from_edges(n, src, dst)


def adversarial_graphs():
    """Union of every adversarial shape, for survive-anything tests."""
    return st.one_of(
        multigraphs(),
        self_loop_graphs(),
        disconnected_graphs(),
        zero_weight_graphs(),
        star_graphs(),
        chain_graphs(),
    )


@st.composite
def budget_ladders(draw, min_percent=1.0, max_percent=80.0):
    """A ``(tight, loose)`` error-budget pair with ``tight <= loose``.

    Drives the ``repro.tune`` monotonicity property: tightening the
    inaccuracy budget must never increase the delivered error.
    """
    tight = draw(
        st.floats(min_percent, max_percent, allow_nan=False, allow_infinity=False)
    )
    factor = draw(
        st.floats(1.0, 8.0, allow_nan=False, allow_infinity=False)
    )
    return tight, tight * factor
