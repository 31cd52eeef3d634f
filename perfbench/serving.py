"""The serve-mixed workload: ``repro serve`` in a child process, driven
over TCP by one single-threaded sender in this process.

The run has two phases on the same server:

* **closed loop** — the connection sends its next query as soon as the
  previous answer arrives; correct answers per second is the capacity,
  taken as the median over whole blocks of the query mix;
* **open loop** — queries are due at a fixed rate well under that
  capacity, pipelined on the connection, and each is timed from when it
  was due, so a stall also delays the queries behind it.

Timings are reported in reference-host time (``common.HostSpeed``),
sampled between closed-loop blocks and in open-loop gaps.  Every answer is checked afterwards against in-process runs of the same
public solvers on freshly built plans.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import select
import selectors
import signal
import socket
import subprocess
import sys
from collections import deque
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from repro.algorithms import betweenness_centrality, pagerank, sssp
from repro.core.pipeline import build_plan
from repro.eval.accuracy import attribute_inaccuracy
from repro.graphs.generators import paper_suite
from repro.serve.protocol import encode
from repro.serve.service import ServeConfig

from common import (
    BENCH_DIR,
    HostSpeed,
    OUT_DIR,
    ROOT,
    Outcome,
    geomean,
    hermetic_env,
    layer_metrics,
    nproc,
    percentile,
    price_share_by_solver,
)
from spans import load, resolve_request_ids

SCALE = "small"
#: server spawns per untraced run (``setup_s`` is their median)
SETUP_SPAWNS = 3
#: one connection (at most ``nproc``): with two, requests of both
#: connections contend for the server's interpreter lock, and on a
#: 2-core host open-loop p50/p90 then spread 0.3-0.9 across runs against
#: 0.06-0.12 with one
CONNECTIONS = 1
#: open-loop rate: a fifth to a third of the one-connection closed-loop
#: capacity of a 2-core x86 host (27-50 queries/s); at half of it the p90
#: spread across runs reached 0.76.  Fixed, not derived from each run's
#: capacity, so two commits' latencies are taken at the same load; a
#: host with less than twice this capacity uses a third of its own
OPEN_LOOP_QPS = 9.0
#: enough open-loop samples to leave at least ten above the p90
MIN_OPEN_SAMPLES = 110
#: share of ``seconds`` for the closed loop: some twenty blocks at 30 s
CLOSED_SHARE = 0.5
#: the shortest idle gap of the open loop in which the host is sampled
IDLE_SAMPLE_S = 0.05
STARTUP_TIMEOUT_S = 120.0
DRAIN_TIMEOUT_S = 30.0

#: op -> {graph: queries per block / 4}.  Each op's first graph weighs
#: twice its second so that, ranked by cost, the median falls inside one
#: query class (bc_node on random) and the p90 inside another (bc_node on
#: usa-road); with equal weights both sit on a boundary between two
#: classes and jump between their costs from run to run
OP_GRAPHS = {
    "sssp": {"rmat": 2, "usa-road": 1},
    "pr_topk": {"rmat": 2, "twitter": 1},
    "bc_node": {"usa-road": 2, "random": 1},
}
PR_K = 8
BC_SOURCES = 4
COALESCING_SHARE = 0.25
BLOCK = round(1 / COALESCING_SHARE) * sum(sum(g.values()) for g in OP_GRAPHS.values())


# ---------------------------------------------------------------------------
# the server child
# ---------------------------------------------------------------------------
class ServerProcess:
    """``repro serve --scale small`` in its own process, otherwise with
    its default config (graph seed, plans, workers, no batching window)."""

    def __init__(self, *, spans_out: str | None = None, cpus: set[int] | None = None) -> None:
        cmd = [sys.executable, str(BENCH_DIR / "server_child.py")]
        if spans_out:
            cmd += ["--spans-out", spans_out]
        cmd += ["--", "--scale", SCALE]
        self.log_path = OUT_DIR / f"server-{os.getpid()}.log"
        with open(self.log_path, "wb") as log:
            self.started = perf_counter()
            self.proc = subprocess.Popen(
                cmd,
                stdout=subprocess.PIPE,
                stderr=log,
                env=hermetic_env(),
                cwd=str(ROOT),
                preexec_fn=(lambda: os.sched_setaffinity(0, cpus)) if cpus else None,
            )
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], STARTUP_TIMEOUT_S)
            line = self.proc.stdout.readline().decode() if ready else ""
            self.ready = perf_counter()
            # "repro serve listening on HOST:PORT (...)"
            self.port = int(line.split()[4].rsplit(":", 1)[1])
        except (IndexError, ValueError):
            self.stop()
            raise RuntimeError(
                f"server did not report a port (see {self.log_path}): {line!r}"
            ) from None

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=DRAIN_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


# ---------------------------------------------------------------------------
# the sender
# ---------------------------------------------------------------------------
@dataclass
class Query:
    req: dict
    due: float = 0.0
    sent: float = 0.0
    done: float = math.nan
    resp: dict | None = None
    ok: bool = False


class QueryMix:
    """The seeded query stream.

    Queries come in shuffled blocks of :data:`BLOCK` that hold every
    (op, graph) pair in the proportions of :data:`OP_GRAPHS`, a quarter
    of each asking for coalescing; sources, targets and nodes are
    uniform.  Per-query cost differs several-fold between ops and
    graphs, so fixing the proportions keeps the latency percentiles from
    following the draw.
    """

    def __init__(self, seed: int, stream: int, nodes: dict[str, int]) -> None:
        self.rng = np.random.default_rng([seed, stream])
        self.nodes = nodes
        self.block: list[dict] = []

    def next(self) -> dict:
        if not self.block:
            self.block = self._block()
        return self.block.pop()

    def _block(self) -> list[dict]:
        rng = self.rng
        slots = round(1 / COALESCING_SHARE)
        block = []
        for op, graphs in OP_GRAPHS.items():
            for graph, weight in graphs.items():
                n = self.nodes[graph]
                for slot in range(slots * weight):
                    req: dict = {"op": op, "graph": graph}
                    if op == "sssp":
                        req["source"] = int(rng.integers(n))
                        req["target"] = int(rng.integers(n))
                    elif op == "pr_topk":
                        req["k"] = PR_K
                    else:
                        req["node"] = int(rng.integers(n))
                        req["num_sources"] = BC_SOURCES
                    if slot % slots == 0:
                        req["technique"] = "coalescing"
                    block.append(req)
        rng.shuffle(block)
        return block


class Sender:
    """One thread, ``n`` pipelined connections, a selector for replies."""

    def __init__(self, port: int, connections: int) -> None:
        self.ids = itertools.count(1)
        self.sel = selectors.DefaultSelector()
        self.conns = []
        for _ in range(connections):
            sock = socket.create_connection(("127.0.0.1", port), timeout=DRAIN_TIMEOUT_S)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.conns.append(sock)
            self.sel.register(sock, selectors.EVENT_READ, (bytearray(), deque()))

    def close(self) -> None:
        for sock in self.conns:
            self.sel.unregister(sock)
            sock.close()
        self.sel.close()

    def outstanding(self) -> int:
        return sum(len(self.sel.get_key(s).data[1]) for s in self.conns)

    def send(self, conn: int, query: Query, rid=None) -> None:
        sock = self.conns[conn]
        query.req["id"] = next(self.ids) if rid is None else rid
        query.sent = perf_counter()
        sock.sendall(encode(query.req))
        self.sel.get_key(sock).data[1].append(query)

    def poll(self, timeout: float) -> list[tuple[int, Query]]:
        """Answers that arrived within ``timeout`` seconds."""
        out = []
        for key, _ in self.sel.select(max(0.0, timeout)):
            buf, pending = key.data
            chunk = key.fileobj.recv(1 << 16)
            if not chunk:
                raise ConnectionError("server closed a connection")
            now = perf_counter()
            buf += chunk
            while (cut := buf.find(b"\n")) >= 0:
                line = bytes(buf[:cut])
                del buf[: cut + 1]
                query = pending.popleft()
                query.done = now
                query.resp = json.loads(line)
                out.append((self.conns.index(key.fileobj), query))
        return out

    def drain(self, deadline: float) -> list[Query]:
        """Wait for every outstanding answer until ``deadline``; queries
        still unanswered then are returned too, with no response."""
        out = []
        while self.outstanding() and perf_counter() < deadline:
            out += [q for _, q in self.poll(deadline - perf_counter())]
        for sock in self.conns:
            pending = self.sel.get_key(sock).data[1]
            out += pending
            pending.clear()
        return out


def warm_up(sender: Sender, nodes: dict[str, int]) -> None:
    """One untimed query per (op, graph, technique): lazy set-up in the
    server (edge views, workspaces) happens before anything is timed."""
    for op, graphs in OP_GRAPHS.items():
        for graph in graphs:
            for technique in ("exact", "coalescing"):
                req = {"op": op, "graph": graph, "technique": technique}
                req.update({"source": 0, "target": nodes[graph] - 1} if op == "sssp" else {})
                req.update({"k": PR_K} if op == "pr_topk" else {})
                req.update({"node": 0, "num_sources": BC_SOURCES} if op == "bc_node" else {})
                sender.send(0, Query(req), rid=f"w{op}:{graph}:{technique}")
                sender.drain(perf_counter() + DRAIN_TIMEOUT_S)


def closed_loop(
    sender: Sender, mix: QueryMix, seconds: float, host: HostSpeed
) -> list[tuple[list[Query], float, float]]:
    """Whole blocks of :data:`BLOCK` queries, each sent as soon as an
    answer frees a connection, until ``seconds`` have passed; the host is
    sampled between blocks, while the server is idle.  Returns each
    block's queries (one left unanswered has no response), start and end."""
    blocks = []
    stop_at = perf_counter() + seconds
    while not blocks or perf_counter() < stop_at:
        host.sample(2)
        queries = [Query(mix.next()) for _ in range(BLOCK)]
        unsent = iter(queries)
        start = perf_counter()
        deadline = start + DRAIN_TIMEOUT_S
        for conn in range(len(sender.conns)):
            sender.send(conn, next(unsent))
        while sender.outstanding() and perf_counter() < deadline:
            for conn, _ in sender.poll(deadline - perf_counter()):
                query = next(unsent, None)
                if query is not None:
                    sender.send(conn, query)
        sender.drain(deadline)
        blocks.append((queries, start, perf_counter()))
    return blocks


def closed_qps(blocks: list[tuple[list[Query], float, float]], host: HostSpeed) -> float:
    """Correct answers per reference-host second of a closed loop: the
    median over its blocks (each holds the mix in its fixed proportions),
    so a burst of load on the host slows one block and is left out."""
    return percentile(
        [sum(q.ok for q in queries) / host.scale(start, end) for queries, start, end in blocks],
        50,
    )


def open_loop(
    sender: Sender, mix: QueryMix, rate: float, seconds: float, host: HostSpeed
) -> tuple[list[Query], list[float]]:
    """Queries due every ``1/rate`` s; returns answers and sender lags.
    The host is sampled once in each gap in which no query is in flight
    and the next is not due for :data:`IDLE_SAMPLE_S`."""
    interval = 1.0 / rate
    # whole blocks, so the open loop holds the mix's exact proportions
    total = BLOCK * math.ceil(max(MIN_OPEN_SAMPLES, seconds * rate) / BLOCK)
    queries = [Query(mix.next()) for _ in range(total)]
    start = perf_counter() + interval
    done: list[Query] = []
    lags: list[float] = []
    i = 0
    sampled_at = -1
    k = len(sender.conns)
    while i < total:
        now = perf_counter()
        while i < total and start + i * interval <= now:
            query = queries[i]
            query.due = start + i * interval
            sender.send(i % k, query)
            lags.append(query.sent - query.due)
            i += 1
        wait = start + i * interval - perf_counter() if i < total else 0.0
        if sampled_at < i and wait > IDLE_SAMPLE_S and not sender.outstanding():
            host.sample()
            sampled_at = i
            continue
        done += [q for _, q in sender.poll(wait)]
    done += sender.drain(perf_counter() + DRAIN_TIMEOUT_S)
    return done, lags


# ---------------------------------------------------------------------------
# checking answers
# ---------------------------------------------------------------------------
class Reference:
    """In-process runs of the public solvers on freshly built plans."""

    def __init__(self, suite: dict) -> None:
        self.suite = suite
        self.plans: dict = {}
        self.memo: dict = {}

    def plan(self, graph: str, technique: str):
        key = (graph, technique)
        if key not in self.plans:
            self.plans[key] = build_plan(self.suite[graph], technique)
        return self.plans[key]

    def solve(self, req: dict, technique: str):
        """(values, cycles) of the solver call that answers ``req``."""
        op, graph = req["op"], req["graph"]
        if op == "sssp":
            key = (op, graph, technique, req["source"])
        elif op == "pr_topk":
            key = (op, graph, technique)
        else:
            key = (op, graph, technique, req["num_sources"])
        if key not in self.memo:
            plan = self.plan(graph, technique)
            if op == "sssp":
                res = sssp(plan, req["source"])
            elif op == "pr_topk":
                res = pagerank(plan, tol=1e-8)
            else:
                # the service's default sample seed (0), as the query sends none
                res = betweenness_centrality(plan, num_sources=req["num_sources"])
            self.memo[key] = (res.values, res.metrics.cycles)
        return self.memo[key]

    def answer(self, req: dict, technique: str) -> dict:
        """The result fields the server should send for ``req``."""
        values, _ = self.solve(req, technique)
        op = req["op"]
        if op == "sssp":
            d = float(values[req["target"]])
            finite = bool(np.isfinite(d))
            return {"reachable": finite, "distance": d if finite else None}
        if op == "pr_topk":
            k = min(req["k"], values.size)
            # the service's deterministic top-k: rank descending, id ascending
            order = np.lexsort((np.arange(values.size), -values))[:k]
            return {"top": [[int(i), float(values[i])] for i in order]}
        return {"score": float(values[req["node"]])}


def check_answers(queries: list[Query], ref: Reference, outcome: Outcome) -> dict:
    """Mark each query ok or failed; returns, for the coalescing answers,
    each op's inaccuracies and the exact / coalescing cycle ratios."""
    errors: dict[str, list[float]] = {op: [] for op in OP_GRAPHS}
    ratios: list[float] = []
    for q in queries:
        outcome.attempted += 1
        resp = q.resp
        if resp is None or resp.get("status") != "ok":
            status = "no answer" if resp is None else resp.get("status")
            outcome.fail(f"{q.req}: {status}", wrong=False)
            continue
        got = resp["result"]
        technique = got.get("technique")
        if technique not in ("exact", "coalescing"):
            outcome.fail(f"{q.req}: served by {technique!r}", wrong=True)
            continue
        degraded = bool(resp.get("degraded"))
        want = ref.answer(q.req, technique)
        # exact answers must match bit for bit; so must coalescing answers
        # served from the default plan (a degraded one may use other knobs)
        if (technique == "exact" or not degraded) and any(
            got.get(field) != value for field, value in want.items()
        ):
            outcome.fail(f"{q.req}: {got} != {want}", wrong=True)
            continue
        q.ok = True
        if technique == "coalescing" and not degraded:
            # the answer is one entry of this bit-identical in-process
            # run; score the whole vector, as the paper's metric does
            exact, exact_cycles = ref.solve(q.req, "exact")
            approx, approx_cycles = ref.solve(q.req, "coalescing")
            errors[q.req["op"]].append(attribute_inaccuracy(exact, approx))
            ratios.append(exact_cycles / approx_cycles)
    outcome.info["degraded"] = sum(bool(q.resp and q.resp.get("degraded")) for q in queries)
    return {"errors": errors, "ratios": ratios}


def _inaccuracy(errors: dict[str, list[float]]) -> float:
    """Mean over ops of each op's mean inaccuracy."""
    return float(np.mean([np.mean(e) for e in errors.values() if e]))


# ---------------------------------------------------------------------------
# the workload
# ---------------------------------------------------------------------------
def _phases(
    server: ServerProcess, seed: int, seconds: float, nodes: dict, conns: int, host: HostSpeed
):
    sender = Sender(server.port, conns)
    try:
        warm_up(sender, nodes)
        closed = closed_loop(
            sender, QueryMix(seed, 1, nodes), max(2.0, CLOSED_SHARE * seconds), host
        )
        capacity = len(closed) * BLOCK / sum(end - start for _, start, end in closed)
        rate = OPEN_LOOP_QPS if capacity >= 2 * OPEN_LOOP_QPS else capacity / 3
        opened, lags = open_loop(
            sender, QueryMix(seed, 2, nodes), rate, (1.0 - CLOSED_SHARE) * seconds, host
        )
    finally:
        sender.close()
    return closed, opened, lags, rate


def run_serve(seed: int, seconds: float, trace: bool) -> Outcome:
    """With two or more CPUs the sender keeps the first and the server
    gets the rest, and the host is sampled on the server's CPUs, so the
    reference kernel runs on the cores whose speed the timings follow."""
    own = os.sched_getaffinity(0)
    cpus = sorted(own)
    server_cpus = set(cpus[1:]) if len(cpus) >= 2 else None
    if server_cpus:
        os.sched_setaffinity(0, {cpus[0]})
    try:
        return _run_serve(seed, seconds, trace, server_cpus)
    finally:
        os.sched_setaffinity(0, own)


def _run_serve(seed: int, seconds: float, trace: bool, server_cpus: set[int] | None) -> Outcome:
    outcome = Outcome()
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    # the server generates its graphs from its default seed; --seed
    # drives the query stream
    suite = paper_suite(SCALE, seed=ServeConfig().seed)
    nodes = {name: g.num_nodes for name, g in suite.items()}
    conns = min(nproc(), CONNECTIONS)
    outcome.info["connections"] = conns

    host = HostSpeed(server_cpus)
    spawns = 1 if trace else SETUP_SPAWNS
    setup_times, setup_wall = [], []
    server = None
    for i in range(spawns):
        host.sample(2)
        server = ServerProcess(cpus=server_cpus)
        host.sample(2)
        setup_times.append(host.scale(server.started, server.ready))
        setup_wall.append(server.ready - server.started)
        if i < spawns - 1:
            server.stop()

    spans_path = None
    if trace:
        # the untraced server only measures capacity, the baseline for overhead
        try:
            sender = Sender(server.port, conns)
            try:
                warm_up(sender, nodes)
                plain = closed_loop(
                    sender, QueryMix(seed, 1, nodes), max(2.0, CLOSED_SHARE * seconds), host
                )
            finally:
                sender.close()
        finally:
            server.stop()
        spans_path = str(OUT_DIR / f"spans-{os.getpid()}.jsonl")
        server = ServerProcess(spans_out=spans_path, cpus=server_cpus)
    try:
        closed, opened, lags, rate = _phases(server, seed, seconds, nodes, conns, host)
        peak_rss = server.peak_rss_mb()
    finally:
        server.stop()

    ref = Reference(suite)
    closed_queries = [q for queries, _, _ in closed for q in queries]
    scoring = check_answers(closed_queries + opened, ref, outcome)
    if trace:
        check_answers([q for queries, _, _ in plain for q in queries], ref, outcome)
    lag_ms = [1000.0 * x for x in lags]
    interval_ms = 1000.0 / rate
    outcome.info.update(
        open_rate_qps=rate,
        open_samples=len(opened),
        closed_samples=len(closed_queries),
        sender_behind=max(lag_ms) > interval_ms,
        generator_lag_p50_ms=percentile(lag_ms, 50),
        generator_lag_max_ms=max(lag_ms),
    )
    if outcome.info["sender_behind"]:
        print(
            f"warning: the sender fell behind by up to {max(lag_ms):.1f} ms "
            f"(interval {interval_ms:.1f} ms)",
            file=sys.stderr,
        )

    if trace:
        qps_plain = closed_qps(plain, host)
        qps_traced = closed_qps(closed, host)
        spans, counters = load(spans_path)
        outcome.metrics.update(_serve_layers(spans, counters))
        outcome.info["price_share_by_solver"] = price_share_by_solver(spans)
        outcome.metrics["bench.generator_lag_p50_ms"] = percentile(lag_ms, 50)
        outcome.metrics["bench.generator_lag_max_ms"] = max(lag_ms)
        outcome.metrics["bench.trace_overhead_pct"] = 100.0 * (qps_plain / qps_traced - 1.0)
        return outcome

    # a failed query misses every latency limit
    wall = [1000.0 * (q.done - q.due) if q.ok else math.inf for q in opened]
    latencies = [1000.0 * host.scale(q.due, q.done) if q.ok else math.inf for q in opened]
    outcome.metrics["setup_s"] = percentile(setup_times, 50)
    outcome.metrics["latency_p50_ms"] = percentile(latencies, 50)
    outcome.metrics["latency_p90_ms"] = percentile(latencies, 90)
    outcome.metrics["ops_per_s"] = closed_qps(closed, host)
    outcome.info.update(
        host_kernel_ms=1000.0 * host.median_s(),
        wall_setup_s=percentile(setup_wall, 50),
        wall_latency_p50_ms=percentile(wall, 50),
        wall_latency_p90_ms=percentile(wall, 90),
    )
    outcome.metrics["sim_speedup"] = geomean(scoring["ratios"])
    outcome.metrics["inaccuracy_pct"] = _inaccuracy(scoring["errors"])
    outcome.metrics["peak_rss_mb"] = peak_rss
    return outcome


def _serve_layers(spans: list[tuple], counters: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics from the traced server: start-up layers per
    start-up, request-path layers per query; status counts are totals."""
    spans = resolve_request_ids(spans)
    startup = [s for s in spans if s[5] is None]
    requests = [s for s in spans if s[5] is not None]
    n_requests = sum(1 for s in spans if s[2] == "serve.request")
    startup_counters = {k: v for k, v in counters.items() if k == "core.edges_added"}
    request_counters = {
        k: v for k, v in counters.items()
        if k != "core.edges_added" and not k.startswith("serve.requests.")
    }
    out = layer_metrics(
        [(startup, startup_counters, 1), (requests, request_counters, n_requests)]
    )
    for key, value in counters.items():
        if key.startswith("serve.requests.") and key in out:
            out[key] = value
    return out
