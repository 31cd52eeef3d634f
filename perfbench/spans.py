"""In-memory span recording around the public functions of each layer.

The benchmark measures layers from outside: :func:`install` replaces a
public name with a timing wrapper *where its caller looks it up* (for
example ``repro.core.shmem.clustering_coefficients``, which is the name
``plan_shared_memory`` calls), and the returned undo function puts every
original back.  Nothing in ``repro`` is edited.

A span is ``(id, parent, name, start, end, request_id)``.  Spans nest
per thread, stay in memory while the benchmark runs and are written out
at exit.  A layer's self time is its span's duration minus the part of
that interval its child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

__all__ = [
    "Tracer",
    "install",
    "self_times",
    "span_counts",
    "resolve_request_ids",
    "inherit",
    "SOLVERS",
]

#: public solver name (as the benchmark and the server call it) -> layer
SOLVERS = {
    "sssp": "algorithms.sssp",
    "bfs": "algorithms.bfs",
    "pagerank": "algorithms.pagerank",
    "wcc": "algorithms.wcc",
    "betweenness_centrality": "algorithms.bc",
    "sssp_batched": "perf.sssp_batched",
}

#: (module, attribute, span name): plain function wrappers
FUNCTIONS = [
    ("repro.graphs.generators", "rmat", "graphs.generate"),
    ("repro.graphs.generators", "erdos_renyi", "graphs.generate"),
    ("repro.graphs.generators", "road_network", "graphs.generate"),
    ("repro.graphs.generators", "preferential_attachment", "graphs.generate"),
    ("repro.graphs.generators", "heavy_tail_social", "graphs.generate"),
    ("repro.core.shmem", "clustering_coefficients", "graphs.clustering"),
    ("repro.core.pipeline", "transform_graph", "core.coalesce"),
    ("repro.core.pipeline", "plan_shared_memory", "core.shmem"),
    ("repro.core.pipeline", "normalize_degrees", "core.divergence"),
    ("repro.algorithms.common", "merge_replicas", "core.confluence"),
    ("repro.perf.batched", "charge_sweep", "gpusim.price"),
    ("repro.perf.batched", "charge_lane_sweeps", "gpusim.price"),
    ("repro.serve.server", "decode_line", "serve.decode"),
    ("repro.serve.server", "parse_request", "serve.decode"),
]

#: (module, class, method, span name): method wrappers
METHODS = [
    ("repro.gpusim.kernel", "ExecutionContext", "charge", "gpusim.price"),
    ("repro.gpusim.kernel", "ExecutionContext", "charge_batch", "gpusim.price"),
    ("repro.gpusim.kernel", "ExecutionContext", "charge_cost", "gpusim.price"),
    ("repro.serve.service", "GraphService", "plan", "serve.plan"),
    ("repro.serve.service", "GraphService", "execute", "serve.execute"),
]

#: modules whose ``build_plan`` / solver names get counting wrappers
PLAN_CALLERS = ("repro.core.pipeline", "repro.serve.service")
SOLVER_CALLERS = ("repro.algorithms", "repro.perf.batched", "repro.serve.service")


class Tracer:
    """Collects spans and counters; one instance per process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self) -> tuple[int, int, float]:
        """Open a span under the current one; pass the token to :meth:`end`."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        return sid, parent, perf_counter()

    def end(self, name: str, token: tuple[int, int, float], request_id=None) -> None:
        end = perf_counter()
        self._stack().pop()
        sid, parent, start = token
        self.spans.append((sid, parent, name, start, end, request_id))

    def record(self, name: str, start: float, end: float) -> None:
        """Record an already finished span under the current parent."""
        stack = self._stack()
        parent = stack[-1] if stack else 0
        self.spans.append((next(self._ids), parent, name, start, end, None))

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += float(amount)

    def take(self) -> tuple[list[tuple], dict[str, float]]:
        """Hand over everything recorded so far and start empty."""
        spans, counters = self.spans, dict(self.counters)
        self.spans = []
        self.counters = defaultdict(float)
        return spans, counters

    def dump(self, path) -> None:
        """Write out everything recorded so far (see :func:`write`)."""
        write(path, *self.take())


def write(path, spans: list[tuple], counters: dict[str, float]) -> None:
    """Counters as a JSON object on the first line, then one span per line."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"counters": counters}) + "\n")
        for s in spans:
            fh.write(json.dumps(s) + "\n")


def load(path) -> tuple[list[tuple], dict[str, float]]:
    """Read back what :meth:`Tracer.dump` wrote."""
    with open(path, encoding="utf-8") as fh:
        counters = json.loads(fh.readline())["counters"]
        spans = [tuple(json.loads(line)) for line in fh if line.strip()]
    return spans, counters


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------
def _timed(tracer: Tracer, fn, name: str):
    def wrapper(*args, **kwargs):
        token = tracer.begin()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(name, token)

    wrapper.__wrapped__ = fn
    return wrapper


def _timed_build_plan(tracer: Tracer, fn):
    def wrapper(*args, **kwargs):
        plan = fn(*args, **kwargs)
        tracer.count("core.edges_added", plan.edges_added)
        return plan

    wrapper.__wrapped__ = fn
    return wrapper


def _timed_solver(tracer: Tracer, fn, name: str):
    def wrapper(*args, **kwargs):
        token = tracer.begin()
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(name, token)
        iters = result.iterations
        tracer.count(
            "algorithms.iterations", sum(iters) if isinstance(iters, list) else iters
        )
        tracer.count("gpusim.sim_cycles", result.metrics.cycles)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _timed_admit(tracer: Tracer, fn):
    # the span covers only the wait for a token, not the admitted block
    @contextmanager
    def admit(self, deadline):
        start = perf_counter()
        with fn(self, deadline) as wait:
            tracer.record("serve.admission_wait", start, perf_counter())
            yield wait

    admit.__wrapped__ = fn
    return admit


def _timed_handle_line(tracer: Tracer, fn):
    def handle_line(self, line):
        token = tracer.begin()
        resp = {}
        try:
            resp = fn(self, line)
        finally:
            tracer.end("serve.request", token, resp.get("id"))
        tracer.count(f"serve.requests.{resp.get('status')}")
        return resp

    handle_line.__wrapped__ = fn
    return handle_line


def _timed_encode(tracer: Tracer, fn):
    def encode(obj):
        token = tracer.begin()
        try:
            return fn(obj)
        finally:
            tracer.end("serve.encode", token, obj.get("id"))

    encode.__wrapped__ = fn
    return encode


def install(tracer: Tracer, *, serve: bool = False):
    """Patch every layer's public names; returns a function that undoes it.

    ``serve=True`` adds the server-side wrappers (protocol, admission,
    plan lookup, execute); they import the serving modules, which the
    offline workloads never load.
    """
    patches: list[tuple[object, str, object]] = []

    def patch(owner, attr: str, new) -> None:
        patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def wanted(module: str) -> bool:
        return serve or not module.startswith("repro.serve")

    for module, attr, name in FUNCTIONS:
        if wanted(module):
            mod = importlib.import_module(module)
            patch(mod, attr, _timed(tracer, getattr(mod, attr), name))
    for module, cls_name, attr, name in METHODS:
        if wanted(module):
            cls = getattr(importlib.import_module(module), cls_name)
            patch(cls, attr, _timed(tracer, cls.__dict__[attr], name))
    for module in PLAN_CALLERS:
        if wanted(module):
            mod = importlib.import_module(module)
            patch(mod, "build_plan", _timed_build_plan(tracer, mod.build_plan))
    for module in SOLVER_CALLERS:
        if wanted(module):
            mod = importlib.import_module(module)
            for attr, name in SOLVERS.items():
                if attr in mod.__dict__:
                    patch(mod, attr, _timed_solver(tracer, getattr(mod, attr), name))
    if serve:
        from repro.serve import server as server_mod
        from repro.serve.admission import AdmissionGate

        patch(AdmissionGate, "admit", _timed_admit(tracer, AdmissionGate.admit))
        patch(
            server_mod.ReproServer,
            "handle_line",
            _timed_handle_line(tracer, server_mod.ReproServer.handle_line),
        )
        patch(server_mod, "encode", _timed_encode(tracer, server_mod.encode))

    def undo() -> None:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)

    return undo


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------
def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans, keep=None) -> dict[str, float]:
    """Total self seconds per span name.

    ``keep`` is an optional predicate on a span; spans it rejects are
    left out of the totals but still count as children of their parent.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _sid, parent, _name, start, end, _rid in spans:
        if parent:
            children[parent].append((start, end))
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        sid, _parent, name, start, end, _rid = span
        if keep is not None and not keep(span):
            continue
        totals[name] += (end - start) - _covered(children.get(sid, []), start, end)
    return dict(totals)


def span_counts(spans) -> dict[str, int]:
    counts: dict[str, int] = defaultdict(int)
    for span in spans:
        counts[span[2]] += 1
    return dict(counts)


def inherit(spans, own) -> dict[int, object]:
    """Span id -> ``own(span)`` of the span or of its nearest ancestor
    for which ``own`` is not ``None``."""
    by_id = {s[0]: s for s in spans}
    memo: dict[int, object] = {}

    def walk(sid: int):
        chain = []
        while sid and sid not in memo:
            span = by_id.get(sid)
            if span is None:
                break
            value = own(span)
            if value is not None:
                memo[sid] = value
                break
            chain.append(sid)
            sid = span[1]
        value = memo.get(sid)
        for s in chain:
            memo[s] = value
        return value

    return {s[0]: walk(s[0]) for s in spans}


def resolve_request_ids(spans) -> list[tuple]:
    """Give every span the request id of its nearest ancestor that has one."""
    rid = inherit(spans, lambda s: s[5])
    return [s[:5] + (rid[s[0]],) for s in spans]
