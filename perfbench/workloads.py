"""The four workloads, their set-up, and the checks on every result.

Every workload drives one :class:`repro.QueryService` over the benchmark graph
from closed-loop client threads: each client sends its next request only
after the previous one returned.  Set-up (graph generation, catalogue,
service, process-pool spawn, one warm request per shape) runs ``setups``
times; only the last service is measured.  A :class:`calibrate.Speedometer`
samples the machine's speed from the first set-up to the end of the window.

A run with tracing measures two halves of the window: the first untraced,
the second with :class:`tracer.Tracer` patched in, so the traced run reports
its own overhead next to the per-layer split.
"""

from __future__ import annotations

import os
import platform
import random
import shutil
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import shapes as S
from calibrate import Speedometer
from tracer import Tracer

CLIENTS = 2
ROW_LIMIT = 10
#: Update batches: this many new edges plus as many deletes of present edges.
#: Synchronous compaction fires once the overlay exceeds
#: max(4096, 0.25 * |E|) = 16,226 delta edges on the benchmark graph, i.e.
#: every 51 batches.
UPDATE_EDGES_PER_SIDE = 160
#: The writer's think time between batches.  Without it the writer keeps one
#: core's worth of the interpreter lock busy, and the WAL the replica replays
#: at the end grows to several seconds of recovery per run.
WRITER_PAUSE_S = 0.05


@dataclass(frozen=True)
class Workload:
    name: str
    #: One client round, shuffled per round.  The full-set rounds carry
    #: diamond-X (Q3, the paper's running example) twice: seven requests put
    #: the median inside one shape's block of latencies instead of on the
    #: boundary between the WCO half and the hybrid half of the set.
    round: Tuple[str, ...]

    @property
    def shapes(self) -> Tuple[str, ...]:
        """The distinct shapes, in first-seen order."""
        return tuple(dict.fromkeys(self.round))


FULL_SET = ("Q1", "Q3", "Q3", "Q4", "Q5", "tailed", "Q8")
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("hybrid_full", FULL_SET),
        Workload("limit_first_rows", FULL_SET),
        Workload("durable_updates", ("Q1", "Q3", "tailed")),
        Workload("parallel_hybrid", ("Q3", "Q4", "Q8", "Q1", "Q5")),
    )
}

#: The workloads ``BENCHMARK.json`` declares.  ``limit_first_rows`` runs by
#: hand only: its raw medians moved by up to 47% between sets of runs of the
#: same code on a shared VM, and a fourth workload does not fit the
#: evaluation's time budget at the window needed to steady the other three.
BENCHMARKED = ("hybrid_full", "durable_updates", "parallel_hybrid")


# --------------------------------------------------------------------------- #
# results
# --------------------------------------------------------------------------- #
@dataclass
class Read:
    shape: str
    latency: float  # submit to result
    cycle: float  # the client's whole turn: build, send, wait, check
    queue: float
    phase: str
    i_cost: int
    intermediate: int


@dataclass
class Outcome:
    """Everything one run measured and checked."""

    reads: List[Read] = field(default_factory=list)
    updates: List[Tuple[float, int, str]] = field(default_factory=list)  # latency, edges, phase
    phase_spans: Dict[str, Tuple[float, float]] = field(default_factory=dict)  # perf_counter
    setup_spans: List[Tuple[float, float]] = field(default_factory=list)  # perf_counter
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    #: Phase ("setup", "measured", "untraced", "traced", "check") -> failures.
    failed_in: Dict[str, int] = field(default_factory=dict)
    extra: Dict[str, float] = field(default_factory=dict)
    counters: Dict[str, float] = field(default_factory=dict)
    lock: threading.Lock = field(default_factory=threading.Lock)

    def attempt(self, phase: str, failure: Optional[str] = None) -> None:
        with self.lock:
            self.attempted += 1
            if failure is not None:
                self.failures.append(f"[{phase}] {failure}")
                self.failed_in[phase] = self.failed_in.get(phase, 0) + 1

    def reads_in(self, phase: str) -> List[Read]:
        return [r for r in self.reads if r.phase == phase]


def rename(query, rng: random.Random):
    """``query`` with fresh vertex names, as a different client would write it."""
    ids = rng.sample(range(1_000_000), query.num_vertices)
    return query.rename_vertices({v: f"v{i}" for v, i in zip(query.vertices, ids)})


def check_rows(rows, query, has_edge) -> Optional[str]:
    """Every row binds every query vertex and every query edge exists."""
    for row in rows:
        for edge in query.edges:
            if not has_edge(row[edge.src], row[edge.dst]):
                return f"row {row} lacks edge {edge.src}->{edge.dst}"
    return None


def check_read(shape: str, query, result, expected: Dict[str, int], limit: Optional[int], graph):
    """None when the served result is right, else what was wrong."""
    if result.status not in ("ok", "truncated"):
        return f"{shape}: status {result.status} ({result.error})"
    if limit is None:
        if result.num_matches != expected[shape]:
            return f"{shape}: {result.num_matches} matches, expected {expected[shape]}"
        return None
    rows = result.result.matches or []
    want = min(limit, expected[shape])
    if result.num_matches != want or len(rows) != want:
        return f"{shape}: {len(rows)} rows / {result.num_matches} matches, expected {want}"
    if graph is not None:
        return check_rows(rows, query, graph.has_edge)
    return None


# --------------------------------------------------------------------------- #
# set-up
# --------------------------------------------------------------------------- #
class Bench:
    """One run of one workload."""

    def __init__(
        self,
        workload: Workload,
        seed: int,
        seconds: float,
        trace: bool,
        scale: float,
        setups: int,
        workdir: Path,
        expected: Optional[Dict[str, int]] = None,
    ) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.scale = scale
        self.setups = setups
        self.workdir = workdir
        self.expected = expected
        self.shapes = S.all_shapes()
        self.out = Outcome()
        self.tracer = Tracer() if trace else None
        self.speed = Speedometer()
        self.service = None
        self.graph = None
        self.data_dir: Optional[Path] = None
        self.writer: Optional[WriterModel] = None
        self.env: Dict[str, object] = {}

    # -- service construction ------------------------------------------- #
    def _service_options(self, index: int) -> dict:
        options = dict(max_concurrent=CLIENTS, vectorized=True)
        if self.workload.name == "durable_updates":
            self.data_dir = self.workdir / f"store-{index}"
            options["data_dir"] = str(self.data_dir)
        if self.workload.name == "parallel_hybrid":
            options.update(num_workers=2, execution_mode="process")
        return options

    def _set_up_once(self, index: int) -> Tuple[float, float]:
        from repro import GraphflowDB, QueryService

        start = time.perf_counter()
        graph = S.load_graph(self.scale)
        db = GraphflowDB(graph)
        db.build_catalogue(z=S.CATALOGUE_Z, seed=S.CATALOGUE_SEED)
        service = QueryService(db, **self._service_options(index))
        # The warm pass sends the shapes as defined, not renamed: the planner
        # breaks cost ties by vertex name, so this keeps the cached plans, and
        # the set-up work, the same for every workload seed.
        warm = []
        for shape in self.workload.shapes:
            query = self.shapes[shape]
            warm.append((shape, query, service.submit(query, row_limit=ROW_LIMIT, collect=True).result()))
        end = time.perf_counter()
        if self.expected is None:
            self.expected = S.load_oracle(graph, self.scale)
        for shape, query, result in warm:
            self.out.attempt("setup", check_read(shape, query, result, self.expected, ROW_LIMIT, graph))
        self.graph, self.service = graph, service
        return start, end

    def _tear_down_service(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None
        if self.data_dir is not None:
            shutil.rmtree(self.data_dir, ignore_errors=True)
            self.data_dir = None

    def set_up(self) -> None:
        if self.tracer is not None:
            self.tracer.phase = "setup"
            self.tracer.install()
        for index in range(self.setups):
            if index:
                self._tear_down_service()
            self.out.setup_spans.append(self._set_up_once(index))
        if self.tracer is not None:
            self.tracer.uninstall()
        service = self.service
        self.env = {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "dataset": S.DATASET,
            "scale": self.scale,
            "dataset_seed": S.DATASET_SEED,
            "num_vertices": self.graph.num_vertices,
            "num_edges": self.graph.num_edges,
            "workload_seed": self.seed,
            "read_clients": self._readers(),
            "write_clients": int(self.workload.name == "durable_updates"),
            "vectorized": service.vectorized,
            "batch_size": service.batch_size,
            "wal_sync_every": (
                service.db.durable_store.wal.sync_every
                if service.db.durable_store is not None
                else None
            ),
            "num_workers": service.num_workers,
            "execution_mode": service.execution_mode,
            "setups": self.setups,
        }

    def _readers(self) -> int:
        return CLIENTS if self.workload.name in ("hybrid_full", "limit_first_rows") else 1

    # -- measurement ------------------------------------------------------ #
    def run(self) -> Outcome:
        self.speed.start()
        try:
            self.set_up()
            if self.workload.name == "durable_updates":
                self.writer = WriterModel(self.graph, random.Random(f"writer:{self.seed}"))
            before = self._counters()
            if self.trace:
                self._measure("untraced", self.seconds / 2)
                self.tracer.phase = "traced"
                self.tracer.install(self.service)
                self._measure("traced", self.seconds / 2)
            else:
                self._measure("measured", self.seconds)
            after = self._counters()
            self.out.counters = {k: after[k] - before[k] for k in after}
            self.out.extra["peak_rss_mb"] = peak_rss_mb(
                include_children=self.workload.name == "parallel_hybrid"
            )
            if self.workload.name == "durable_updates":
                self._check_replica()
            if self.tracer is not None:
                self.tracer.phase = "teardown"
            self._tear_down_service()
        finally:
            self.speed.stop()
            if self.tracer is not None:
                self.tracer.uninstall()
            self._tear_down_service()
        return self.out

    def _counters(self) -> Dict[str, float]:
        db = self.service.db
        stats = db.plan_cache.stats
        counters = {
            "planner_invocations": db.planner_invocations,
            "plan_cache_hits": stats.hits,
            "plan_cache_misses": stats.misses,
            "compactions": 0,
            "wal_bytes": 0,
            "wal_fsyncs": 0,
            "pool_queries": 0,
            "pool_tasks": 0,
            "pool_fallbacks": 0,
            "pool_queue_wait_s": 0.0,
            "pool_queue_waits": 0,
        }
        store = db.durable_store
        if store is not None:
            counters["compactions"] = store.dynamic.compactions
            counters["wal_bytes"] = store.wal.size_bytes()
            counters["wal_fsyncs"] = store.wal.fsync_seconds.count
        if self.service.execution_mode == "process":
            pool = db.enable_process_pool(self.service.num_workers)
            pool_stats = pool.stats()
            counters["pool_queries"] = pool_stats["queries"]
            counters["pool_tasks"] = pool_stats["tasks"]
            counters["pool_fallbacks"] = pool_stats["fallbacks"]
            counters["pool_queue_wait_s"] = pool.queue_wait_seconds.sum
            counters["pool_queue_waits"] = pool.queue_wait_seconds.count
        return counters

    def _measure(self, phase: str, seconds: float) -> None:
        name = self.workload.name
        clients: List[Callable[[float], None]]
        if name == "durable_updates":
            clients = [self._writer_client(phase), self._reader_client(phase, 0, durable=True)]
        else:
            clients = [self._reader_client(phase, i) for i in range(self._readers())]
        start = time.perf_counter()
        deadline = start + seconds
        errors: List[BaseException] = []

        def guarded(client):
            try:
                client(deadline)
            except Exception as exc:  # reported as a failed operation below
                errors.append(exc)

        threads = [threading.Thread(target=guarded, args=(c,)) for c in clients]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        self.out.phase_spans[phase] = (start, time.perf_counter())
        for exc in errors:
            self.out.attempt(phase, f"client crashed: {type(exc).__name__}: {exc}")

    def _reader_client(self, phase: str, index: int, durable: bool = False):
        workload = self.workload
        rng = random.Random(f"reader:{self.seed}:{phase}:{index}")
        limit = None if workload.name in ("hybrid_full", "parallel_hybrid") else ROW_LIMIT
        as_string = workload.name in ("limit_first_rows", "durable_updates")
        service = self.service
        tracer = self.tracer if phase == "traced" else None
        dynamic = service.db.graph if durable else None
        graph = None if durable else self.graph

        from repro.errors import AdmissionError
        from repro.query.parser import format_query

        def client(deadline: float) -> None:
            request = 0
            while time.perf_counter() < deadline:
                order = list(workload.round)
                rng.shuffle(order)
                for shape in order:
                    cycle_start = time.perf_counter()
                    if cycle_start >= deadline:
                        return
                    # The durable reader replans on every read, and the planner
                    # breaks cost ties by vertex name: renamed reads there would
                    # draw a different plan per request from the seed's names.
                    query = self.shapes[shape] if durable else rename(self.shapes[shape], rng)
                    sent = format_query(query) if as_string else query
                    request += 1
                    lo = dynamic.version if durable else 0
                    span = tracer.begin("server.request", request=(index, request)) if tracer else None
                    start = time.perf_counter()
                    try:
                        future = service.submit(sent, row_limit=limit, collect=limit is not None)
                    except AdmissionError as exc:
                        if span is not None:
                            tracer.end(span)
                        self.out.attempt(phase, f"{shape}: rejected: {exc}")
                        continue
                    result = future.result()
                    latency = time.perf_counter() - start
                    if span is not None:
                        tracer.end(span)
                    hi = dynamic.version if durable else 0
                    failure = check_read(shape, query, result, self.expected, limit, graph)
                    qr = result.result
                    if durable and failure is None:
                        self.writer.pending_reads.append((query, qr.matches, lo, hi))
                    self.out.attempt(phase, failure)
                    self.out.reads.append(
                        Read(
                            shape,
                            latency,
                            time.perf_counter() - cycle_start,
                            result.queue_seconds,
                            phase,
                            qr.i_cost if qr is not None else 0,
                            qr.intermediate_matches if qr is not None else 0,
                        )
                    )

        return client

    def _writer_client(self, phase: str):
        model = self.writer
        service = self.service
        tracer = self.tracer if phase == "traced" else None

        def client(deadline: float) -> None:
            while time.perf_counter() < deadline:
                inserts, deletes = model.next_batch(UPDATE_EDGES_PER_SIDE)
                span = tracer.begin("server.update") if tracer else None
                start = time.perf_counter()
                result = service.apply_updates(inserts=inserts, deletes=deletes)
                latency = time.perf_counter() - start
                if span is not None:
                    tracer.end(span)
                self.out.updates.append((latency, result.num_applied, phase))
                self.out.attempt(phase, model.commit(inserts, deletes, result))
                time.sleep(WRITER_PAUSE_S)

        return client

    # -- durable replica check -------------------------------------------- #
    def _check_replica(self) -> None:
        from repro import GraphflowDB

        db = self.service.db
        self.out.attempt("check", self.writer.validate_reads())
        start = time.perf_counter()
        replica = GraphflowDB.open(str(self.data_dir), read_only=True)
        self.out.extra["recovery_s"] = time.perf_counter() - start
        try:
            primary_keys = edge_keys(db.graph.snapshot())
            replica_keys = edge_keys(replica.graph.snapshot())
            plan = db.plan(self.shapes["Q1"], vectorized=True)
            primary_q1 = db.execute(plan, vectorized=True).num_matches
            replica_q1 = replica.execute(plan, vectorized=True).num_matches
        finally:
            replica.close()
        model_keys = self.writer.edge_keys()
        if not np.array_equal(primary_keys, replica_keys):
            failure = "replica edge set differs from the primary's"
        elif not np.array_equal(primary_keys, model_keys):
            failure = "primary edge set differs from the applied update stream"
        elif primary_q1 != replica_q1:
            failure = f"Q1: replica counts {replica_q1}, primary {primary_q1}"
        else:
            failure = None
        self.out.attempt("check", failure)


def edge_keys(graph) -> np.ndarray:
    src, dst = graph.edges()
    return np.sort(np.asarray(src, dtype=np.int64) * (1 << 32) + np.asarray(dst, dtype=np.int64))


class WriterModel:
    """The update stream and the edge set it implies, version by version.

    Batches insert random absent edges and delete edges sampled from the
    current edge set.  Each applied batch records at which graph version each
    edge appeared or disappeared, so a row read between versions ``lo`` and
    ``hi`` can be checked against the exact edge sets it may have seen.
    """

    def __init__(self, graph, rng: random.Random) -> None:
        src, dst = graph.edges()
        self.initial = set(zip(src.tolist(), dst.tolist()))
        self.present = list(self.initial)
        self.index = {edge: i for i, edge in enumerate(self.present)}
        self.num_vertices = graph.num_vertices
        self.rng = rng
        self.history: Dict[Tuple[int, int], List[Tuple[int, bool]]] = {}
        self.pending_reads: List[tuple] = []

    def next_batch(self, k: int):
        rng, n = self.rng, self.num_vertices
        inserts = set()
        while len(inserts) < k:
            edge = (rng.randrange(n), rng.randrange(n))
            if edge[0] != edge[1] and edge not in self.index:
                inserts.add(edge)
        deletes = rng.sample(self.present, k)
        return sorted(inserts), deletes

    def _add(self, edge) -> None:
        self.index[edge] = len(self.present)
        self.present.append(edge)

    def _remove(self, edge) -> None:
        i = self.index.pop(edge)
        last = self.present.pop()
        if i < len(self.present):
            self.present[i] = last
            self.index[last] = i

    def commit(self, inserts, deletes, result) -> Optional[str]:
        """Fold an applied batch into the model; a failure when the database
        applied anything other than exactly this batch."""
        got_ins = sorted((s, d) for s, d, _ in result.inserted)
        got_del = sorted((s, d) for s, d, _ in result.deleted)
        if got_ins != list(inserts) or got_del != sorted(deletes):
            return (
                f"update applied +{len(got_ins)}/-{len(got_del)}, "
                f"sent +{len(inserts)}/-{len(deletes)}"
            )
        # add_edges and delete_edges each bump the version once.
        for edge in inserts:
            self._add(edge)
            self.history.setdefault(edge, []).append((result.version - 1, True))
        for edge in deletes:
            self._remove(edge)
            self.history.setdefault(edge, []).append((result.version, False))
        return None

    def _present_at(self, edge, version: int) -> bool:
        state = edge in self.initial
        for changed_at, present in self.history.get(edge, ()):
            if changed_at > version:
                break
            state = present
        return state

    def validate_reads(self) -> Optional[str]:
        """Every row read must match the edge set of one version the read
        could have pinned."""
        for query, rows, lo, hi in self.pending_reads:
            edges = [(row[e.src], row[e.dst]) for row in rows for e in query.edges]
            if not any(all(self._present_at(e, v) for e in edges) for v in range(lo, hi + 1)):
                return f"{query.name}: rows match no graph version in [{lo}, {hi}]"
        return None

    def edge_keys(self) -> np.ndarray:
        edges = np.array(self.present, dtype=np.int64).reshape(-1, 2)
        return np.sort(edges[:, 0] * (1 << 32) + edges[:, 1])


def peak_rss_mb(include_children: bool) -> float:
    """Peak resident set (VmHWM) of this process, plus that of its live
    worker processes when asked."""
    import multiprocessing

    pids = [os.getpid()]
    if include_children:
        pids += [child.pid for child in multiprocessing.active_children()]
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            if pid == os.getpid():
                import resource

                total_kb += resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return total_kb / 1024.0


def mix_weights(reads: List[Read], workload: Workload) -> List[float]:
    """Per-read weights that give each shape its share of the workload's
    round, whatever share of the window's reads it happened to get.

    A window of a few dozen closed-loop reads ends part-way through the
    clients' rounds, so the shapes that completed in it vary with the seed;
    with costs 25x apart, that alone moves raw percentiles and counts from
    run to run.  Weighting each shape's reads by ``share / count`` estimates
    the distribution at the workload's defined mix instead.
    """
    share = {s: workload.round.count(s) / len(workload.round) for s in workload.shapes}
    counts: Dict[str, int] = {}
    for r in reads:
        counts[r.shape] = counts.get(r.shape, 0) + 1
    return [share[r.shape] / counts[r.shape] for r in reads]


def weighted_quantile(values: List[float], weights: List[float], q: float) -> float:
    """The ``q`` quantile of a weighted sample: each value sits at the middle
    of its weight's stretch of the cumulative distribution, linearly
    interpolated in between."""
    pairs = sorted(zip(values, weights))
    total = sum(weights)
    cumulative, points = 0.0, []
    for value, weight in pairs:
        points.append(((cumulative + weight / 2) / total, value))
        cumulative += weight
    if q <= points[0][0]:
        return points[0][1]
    for (p0, v0), (p1, v1) in zip(points, points[1:]):
        if q <= p1:
            return v0 + (v1 - v0) * (q - p0) / (p1 - p0)
    return points[-1][1]
