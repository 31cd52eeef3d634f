"""Differential harness tests: agreement passes, divergence is caught."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.pipeline import build_plan
from repro.verify.corpus import default_corpus
from repro.verify.differential import (
    check_batched,
    check_cache_differential,
    check_serial_parallel,
    plans_identical,
)


@pytest.fixture(scope="module")
def corpus():
    return default_corpus(0)


@pytest.mark.parametrize("technique", ["exact", "coalescing", "divergence"])
def test_batched_bc_lanes_agree(corpus, technique, small_device):
    """Stacked BFS/SSSP/BC lanes decompose into their one-per-call runs."""
    assert (
        check_batched(
            corpus["social"], technique=technique, seed=1, device=small_device
        )
        == []
    )


def test_cache_differential_byte_identity(corpus, tmp_path, small_device):
    assert (
        check_cache_differential(
            corpus["er"], "coalescing", str(tmp_path), device=small_device
        )
        == []
    )


def test_plans_identical_flags_every_field(corpus, small_device):
    plan = build_plan(corpus["er"], "divergence", device=small_device)
    assert plans_identical(plan, plan) == []

    other = dataclasses.replace(plan, edges_added=plan.edges_added + 1)
    assert "edges_added" in plans_identical(plan, other)

    reordered = dataclasses.replace(plan, order=plan.order[::-1].copy())
    assert "order" in plans_identical(plan, reordered)

    # wall-clock preprocess time must NOT count as a difference
    slower = dataclasses.replace(
        plan, preprocess_seconds=plan.preprocess_seconds + 99.0
    )
    assert plans_identical(plan, slower) == []


def test_plans_identical_checks_graph_bytes(corpus, small_device):
    plan = build_plan(corpus["chain"], "exact", device=small_device)
    tweaked_graph = plan.graph.with_weights(
        plan.graph.effective_weights() * 2.0
    )
    other = dataclasses.replace(plan, graph=tweaked_graph)
    assert "graph" in plans_identical(plan, other)


def test_serial_parallel_rows_identical():
    assert check_serial_parallel(
        technique="divergence", scale="tiny", algorithms=("sssp",)
    ) == []
