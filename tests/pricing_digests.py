"""Charged-cost digests of every solver over the ``verify`` corpus.

The committed fixture ``tests/fixtures/pricing_digests.json`` pins, for
each (graph, plan, solver) case, what the cost model ledgers: the full
``SimMetrics.summary()`` (every float as ``float.hex``, in the order
the fixture's ``fields`` entry lists), the sweep
count, the ``solve.sweeps`` / ``solve.sim_cycles`` counter deltas, the
iteration count and a digest of the values.  Lane-engine cases also pin
each lane's summary.  ``test_pricing_fixture.py`` checks the current
code against it bit for bit.

Tigr BC cases are generated with ``engine="reference"`` (one charge per
level through the virtual split) and checked against the default
engine, which must price the same sweeps.

Regenerate (only when a pricing change is intended)::

    PYTHONPATH=src python tests/pricing_digests.py
"""

from __future__ import annotations

import functools
import hashlib
import json
import re
from pathlib import Path

import numpy as np

from repro.algorithms import bfs, mst, pagerank, scc, sssp, wcc
from repro.algorithms.bc import betweenness_centrality
from repro.baselines import gunrock, lonestar, tigr
from repro.core.pipeline import build_plan
from repro.gpusim.metrics import SimMetrics
from repro.obs import metrics as obs_metrics
from repro.perf.batched import sssp_batched
from repro.tune.controller import ErrorBudget, adaptive_runner_factory
from repro.verify.cli import QUICK_TECHNIQUES, VERIFY_DEVICE, VERIFY_KNOBS
from repro.verify.corpus import default_corpus

FIXTURE = Path(__file__).parent / "fixtures" / "pricing_digests.json"

SEED = 0
BC_SOURCES = 4
BC_SEED = 7
LANES = 4
SCHEDULES = ("pull", "diropt", "diropt:edge")


#: ``SimMetrics.summary()`` keys, in the order each case lists them
FIELDS = tuple(SimMetrics(device=VERIFY_DEVICE).summary())


def _hex(x: float) -> str:
    """``float.hex`` without trailing mantissa zeros (exact, NaN-safe)."""
    return re.sub(r"\.?0+p", "p", float(x).hex())


def _summary(m: SimMetrics) -> list[str]:
    s = m.summary()
    return [_hex(s[k]) for k in FIELDS]


def _values_digest(values: np.ndarray) -> str:
    a = np.ascontiguousarray(values)
    h = hashlib.sha256(f"{a.dtype.str}{a.shape}".encode())
    h.update(a.tobytes())
    return h.hexdigest()


def _hub(graph) -> int:
    return int(np.argmax(graph.out_degrees()))


def solver_cases(graph, plan, *, tigr_bc_engine="gather"):
    """``(solver id, thunk)`` pairs; each thunk returns a result with
    ``values``, ``metrics`` and ``iterations``."""
    d = VERIFY_DEVICE
    src = _hub(graph)
    lanes = np.unique(
        np.linspace(0, graph.num_nodes - 1, LANES).astype(np.int64)
    )
    bc = dict(num_sources=BC_SOURCES, seed=BC_SEED, device=d)
    tuned = adaptive_runner_factory(
        ErrorBudget(target_percent=10.0, sample_every=2), exact_graph=graph
    )
    yield "sssp", lambda: sssp(plan, src, device=d)
    yield "bfs", lambda: bfs(plan, src, device=d)
    yield "bfs/topology", lambda: bfs(plan, src, topology_driven=True, device=d)
    yield "pagerank", lambda: pagerank(plan, device=d)
    yield "wcc", lambda: wcc(plan, device=d)
    yield "mst", lambda: mst(plan, device=d)
    yield "scc", lambda: scc(plan, device=d)
    yield "sssp_batched", lambda: sssp_batched(plan, lanes, device=d)
    yield "tuned/sssp", lambda: sssp(plan, src, device=d, runner_factory=tuned)
    yield "tuned/pagerank", lambda: pagerank(plan, device=d, runner_factory=tuned)
    for engine in ("gather", "batched", "reference"):
        yield f"bc/{engine}", lambda e=engine: betweenness_centrality(
            plan, engine=e, **bc
        )
    yield "bc/outer", lambda: betweenness_centrality(plan, strategy="outer", **bc)
    yield "bc/topology", lambda: betweenness_centrality(
        plan, topology_driven=True, **bc
    )
    for s in SCHEDULES:
        yield f"sssp@{s}", lambda s=s: sssp(plan, src, device=d, schedule=s)
        yield f"bfs@{s}", lambda s=s: bfs(plan, src, device=d, schedule=s)
        yield f"pagerank@{s}", lambda s=s: pagerank(plan, device=d, schedule=s)
        yield f"sssp_batched@{s}", lambda s=s: sssp_batched(
            plan, lanes, device=d, schedule=s
        )
        for engine in ("gather", "batched"):
            yield f"bc/{engine}@{s}", lambda e=engine, s=s: (
                betweenness_centrality(plan, engine=e, schedule=s, **bc)
            )
    for algo in ("sssp", "pr", "bc"):
        yield f"lonestar/{algo}", lambda a=algo: lonestar.run(
            a, plan, source=src, num_bc_sources=BC_SOURCES, seed=BC_SEED, device=d
        )
        yield f"gunrock/{algo}", lambda a=algo: gunrock.run(
            a, plan, source=src, num_bc_sources=BC_SOURCES, seed=BC_SEED, device=d
        )
        if algo != "bc":
            yield f"tigr/{algo}", lambda a=algo: tigr.run(
                a, plan, source=src, device=d
            )
    yield "tigr/bc", lambda: tigr_bc(plan, tigr_bc_engine)


def tigr_bc(plan, engine: str = "gather"):
    """Tigr-style BC (virtual-split charging) with the given engine."""

    def factory(p, dev):
        return tigr.TigrRunner(p, dev)

    return betweenness_centrality(
        plan,
        num_sources=BC_SOURCES,
        seed=BC_SEED,
        engine=engine,
        device=VERIFY_DEVICE,
        runner_factory=factory,
    )


def digest(run) -> dict:
    """Run one case from zeroed ``solve.*`` counters and digest it."""
    sweeps = obs_metrics.counter("solve.sweeps")
    cycles = obs_metrics.counter("solve.sim_cycles")
    sweeps.value = 0.0
    cycles.value = 0.0
    res = run()
    out = {
        "values": _values_digest(np.asarray(res.values)),
        "iterations": res.iterations,
        "num_sweeps": res.metrics.num_sweeps,
        "summary": _summary(res.metrics),
        "counter_sweeps": _hex(sweeps.value),
        "counter_cycles": _hex(cycles.value),
    }
    lanes = getattr(res, "lane_metrics", None)
    if lanes is None and res.aux:
        lanes = res.aux.get("per_source_metrics")
    if lanes is not None:
        out["lanes"] = hashlib.sha256(
            json.dumps([_summary(m) for m in lanes]).encode()
        ).hexdigest()
    return out


@functools.lru_cache(maxsize=1)
def plans() -> dict:
    """``{case prefix: (graph, plan)}`` over the corpus x quick techniques."""
    out = {}
    for gname, graph in default_corpus(SEED).items():
        for technique in QUICK_TECHNIQUES:
            out[f"{gname}/{technique}"] = graph, build_plan(
                graph,
                technique,
                device=VERIFY_DEVICE,
                coalescing=VERIFY_KNOBS["coalescing"],
                shmem=VERIFY_KNOBS["shmem"],
                divergence=VERIFY_KNOBS["divergence"],
            )
    return out


def cases(*, tigr_bc_engine="gather"):
    """``(case id, thunk)`` for every pinned case."""
    for prefix, (graph, plan) in plans().items():
        for sid, run in solver_cases(graph, plan, tigr_bc_engine=tigr_bc_engine):
            yield f"{prefix}/{sid}", run


def build_digests() -> dict:
    # Tigr BC is pinned against the reference engine's per-level charges
    out = {"fields": list(FIELDS)}
    for cid, run in cases(tigr_bc_engine="reference"):
        out[cid] = digest(run)
    return out


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    # one line per case keeps the fixture's diffs readable
    rows = [
        f"{json.dumps(k)}: {json.dumps(v, sort_keys=True, separators=(',', ':'))}"
        for k, v in sorted(build_digests().items())
    ]
    FIXTURE.write_text("{\n" + ",\n".join(rows) + "\n}\n")
