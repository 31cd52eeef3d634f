"""Field-by-field digests of ``plan_shared_memory`` outputs.

The committed fixture ``tests/fixtures/shmem_plan_digests.json`` pins
every field of every §3 plan built over the ``verify`` corpus (seeds 0
and 1) under three knob settings: the ``verify`` knobs, a high-budget
setting and a wide-band setting.  ``test_core_shmem_fixture.py`` checks
the current code against it byte for byte.

Regenerate (only when a plan change is intended)::

    PYTHONPATH=src python tests/shmem_digests.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.core.knobs import SharedMemoryKnobs
from repro.core.shmem import SharedMemoryPlan, plan_shared_memory
from repro.graphs.csr import CSRGraph
from repro.verify.cli import VERIFY_DEVICE, VERIFY_KNOBS
from repro.verify.corpus import default_corpus

FIXTURE = Path(__file__).parent / "fixtures" / "shmem_plan_digests.json"

SEEDS = (0, 1)

KNOB_GRID = {
    "verify": VERIFY_KNOBS["shmem"],
    "high-budget": SharedMemoryKnobs(
        cc_threshold=0.5, boost_band=0.3, edge_budget_fraction=1.0
    ),
    "wide-band": SharedMemoryKnobs(
        cc_threshold=0.8, boost_band=0.7, edge_budget_fraction=0.5
    ),
}


def _hash_arrays(*arrays: np.ndarray | None) -> str:
    h = hashlib.sha256()
    for a in arrays:
        if a is None:
            h.update(b"none")
            continue
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _graph_digest(g: CSRGraph) -> str:
    return _hash_arrays(g.offsets, g.indices, g.weights)


def plan_digest(plan: SharedMemoryPlan) -> dict:
    """One digest (or exact value) per plan field."""
    return {
        "graph": _graph_digest(plan.graph),
        "resident_mask": _hash_arrays(plan.resident_mask),
        "clusters": _hash_arrays(*plan.clusters),
        "num_clusters": len(plan.clusters),
        "cluster_graph": _graph_digest(plan.cluster_graph),
        "local_iterations": plan.local_iterations,
        "edges_added": plan.edges_added,
        "cc": _hash_arrays(plan.cc),
    }


def cases():
    """``(case id, graph, knobs)`` over the corpus seeds x knob grid."""
    for seed in SEEDS:
        for gname, graph in default_corpus(seed).items():
            for kname, knobs in KNOB_GRID.items():
                yield f"{gname}/seed{seed}/{kname}", graph, knobs


def build_digests() -> dict:
    return {
        cid: plan_digest(plan_shared_memory(graph, knobs, VERIFY_DEVICE))
        for cid, graph, knobs in cases()
    }


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(build_digests(), indent=1, sort_keys=True) + "\n")
