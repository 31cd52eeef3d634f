"""Differential tests for the degree-ordered triangle count.

:func:`~repro.graphs.properties.clustering_coefficients` counts
triangles in degree order (:func:`~repro.graphs.properties.triangle_counts`).
The reference here is the textbook ``diag(A^3) / 2`` on the binarized
symmetric adjacency; counts must match exactly and the coefficients bit
for bit, not to a tolerance.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.builder import to_scipy
from repro.graphs.csr import CSRGraph
from repro.graphs.generators import paper_suite
from repro.graphs.properties import (
    cc_from_counts,
    clustering_coefficients,
    triangle_counts,
)
from repro.verify.corpus import default_corpus

from strategies import adversarial_graphs, clique_graphs, random_graphs


def reference_triangles(graph: CSRGraph) -> np.ndarray:
    a = to_scipy(graph.to_undirected())
    a.data[:] = 1.0
    return np.rint((a @ a @ a).diagonal() / 2.0).astype(np.int64)


def reference_cc(graph: CSRGraph) -> np.ndarray:
    """``tri / C(deg, 2)`` with ``tri`` from ``diag(A^3) / 2``."""
    a = to_scipy(graph.to_undirected())
    a.data[:] = 1.0
    deg = np.asarray(a.sum(axis=1)).ravel()
    tri = (a @ a @ a).diagonal() / 2.0
    denom = deg * (deg - 1) / 2.0
    cc = np.zeros(graph.num_nodes, dtype=np.float64)
    ok = denom > 0
    cc[ok] = tri[ok] / denom[ok]
    return np.clip(cc, 0.0, 1.0)


def assert_matches_reference(graph: CSRGraph) -> None:
    und = graph.to_undirected()
    assert np.array_equal(triangle_counts(und), reference_triangles(graph))
    ours = clustering_coefficients(graph)
    assert ours.dtype == np.float64
    assert ours.tobytes() == reference_cc(graph).tobytes()


def _any_graph():
    return st.one_of(
        adversarial_graphs(),
        clique_graphs(),
        random_graphs(),
        random_graphs(max_nodes=1, max_edges=3),
    )


@settings(max_examples=120, deadline=None)
@given(graph=_any_graph())
def test_fuzz_bit_equal_to_diag_a_cubed(graph):
    assert_matches_reference(graph)


@pytest.mark.parametrize(
    "graph",
    [
        CSRGraph.empty(1),
        CSRGraph.from_edges(1, [0], [0]),
        CSRGraph.empty(5),
        CSRGraph.from_edges(3, [0, 1, 2, 0, 1], [1, 2, 0, 1, 0]),
    ],
    ids=["n1", "n1-self-loop", "isolated", "triangle-duplicate-arcs"],
)
def test_degenerate_shapes(graph):
    assert_matches_reference(graph)


def test_clique_counts_are_binomial():
    k = 9
    iu, ju = np.triu_indices(k, 1)
    graph = CSRGraph.from_edges(k, iu, ju)
    tri = triangle_counts(graph.to_undirected())
    assert (tri == (k - 1) * (k - 2) // 2).all()
    assert (clustering_coefficients(graph) == 1.0).all()


@pytest.mark.parametrize("seed", [0, 1])
def test_verify_corpus(seed):
    for graph in default_corpus(seed).values():
        assert_matches_reference(graph)


def test_paper_suite_tiny():
    for graph in paper_suite("tiny", seed=1).values():
        assert_matches_reference(graph)


def test_cc_from_counts_is_the_fresh_expression():
    graph = paper_suite("tiny", seed=7)["twitter"]
    und = graph.to_undirected()
    cc = cc_from_counts(triangle_counts(und), np.diff(und.offsets))
    assert cc.tobytes() == clustering_coefficients(graph).tobytes()
