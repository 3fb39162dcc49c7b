"""Parallel plan execution (Section 7 / Figure 11).

Graphflow parallelises plans by giving every worker a copy of the plan and
letting workers steal ranges of the SCAN operator's edges from a shared queue;
E/I extensions then proceed without coordination.  We reproduce the same
work-partitioning scheme with a morsel queue over scan ranges.  Because CPython
threads share the GIL, measured wall-clock speed-ups for Python-level work are
bounded; the result therefore also reports the *work-based* speed-up (the
maximum over workers of the work each performed, relative to the total), which
is what the paper's near-linear scaling measures on a JVM.

Scan-range morsels are also the natural unit of the vectorized batch engine:
each range executes through :func:`repro.executor.pipeline.execute_plan` with
the caller's config, so ``config.vectorized`` makes every worker process its
morsel as columnar frames (and NumPy kernels release the GIL, improving the
wall-clock scaling story).

Hybrid plans run in phases, following the shared hash table of Section 7
(:func:`execute_phases`, used by this thread executor and by the process
pool of :mod:`repro.executor.multiprocess` alike):

1. **build phase** — each hash join's build sub-plan runs as its own
   morsel-partitioned query; workers return its rows as ``int64`` frames;
2. **barrier** — the frames are concatenated in morsel order and turned
   into the join's table exactly once (:func:`join_table`: a sorted
   :class:`~repro.executor.vectorized.JoinTable` for the vectorized engine,
   a dict for the iterator engine that keeps the serial insertion order);
3. **probe phase** — the plan's own morsels run, every hash join reading its
   prebuilt table instead of re-running its build side.

A build side that itself contains hash joins builds its inner tables first,
so nested joins are handled bottom-up.  Each scan edge of every sub-plan is
thus executed exactly once per query: match counts, per-operator output rows
and hash-table entries add up to the serial run's, and so does i-cost unless
an intersection-cache run straddles a morsel boundary.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.executor.operators import ExecutionConfig
from repro.executor.profile import ExecutionProfile
from repro.graph.graph import Graph
from repro.planner.plan import HashJoinNode, Plan, PlanNode, ScanNode


@dataclass
class ParallelResult:
    """Outcome of a parallel run."""

    plan: Plan
    num_matches: int
    profile: ExecutionProfile
    num_workers: int
    elapsed_seconds: float
    per_worker_work: List[int] = field(default_factory=list)
    truncated: bool = False
    deadline_exceeded: bool = False
    # Collected rows (``collect=True``): per-morsel frames merged in range
    # order, capped at ``config.output_limit``; None when only counting.
    matches: Optional[List[Tuple[int, ...]]] = None
    vertex_order: Tuple[str, ...] = ()
    # Process mode only: one dict per executed morsel with the worker-side
    # stage timings (queue_wait, deserialize, base_load, overlay_rebuild,
    # execute, started_at) plus phase ("build"/"probe")/worker_id/
    # morsel_index/rows — the raw material the trace merge turns into
    # worker child spans.  Empty for thread-mode runs (stage boundaries are
    # not observable in-process).
    morsel_records: List[dict] = field(default_factory=list)

    @property
    def work_based_speedup(self) -> float:
        """Ideal speed-up implied by the work partition: total work divided by
        the maximum work any single worker performed."""
        total = sum(self.per_worker_work)
        worst = max(self.per_worker_work) if self.per_worker_work else 0
        return total / worst if worst else 1.0

    def matches_as_dicts(self) -> List[dict]:
        """Matches keyed by query-vertex name (only if matches were collected)."""
        if self.matches is None:
            return []
        return [dict(zip(self.vertex_order, m)) for m in self.matches]


@dataclass
class MorselRun:
    """One executed morsel of either phase, as both executors report it."""

    phase: str  # "build" or "probe"
    index: int
    worker_id: int
    count: int
    profile: ExecutionProfile
    # Build phase: the morsel's build rows as one int64 frame.  Probe phase:
    # the collected match tuples, or None when only counting.
    rows: object = None
    truncated: bool = False
    deadline_exceeded: bool = False
    # Process mode only: the worker-side stage timings of this morsel.
    timings: dict = field(default_factory=dict)


#: ``run_phase(root, join_tables) -> runs``: execute the sub-plan rooted at
#: ``root`` over morsels of its primary scan, with the given prebuilt tables,
#: and return one :class:`MorselRun` per morsel in morsel order.
PhaseRunner = Callable[[PlanNode, Dict[int, object]], List[MorselRun]]

#: ``make_table(join, build_runs) -> (table, seconds)``: the barrier step —
#: turn one join's build-phase runs into its table, reporting the seconds
#: the table construction took.
TableMaker = Callable[[HashJoinNode, List[MorselRun]], Tuple[object, float]]


def join_table(join: HashJoinNode, rows, num_vertices: int, vectorized: bool):
    """The table one hash join's probe morsels read, made once per query
    from its whole build side (rows in morsel order): a
    :class:`~repro.executor.vectorized.JoinTable` for the vectorized
    engine, a :func:`~repro.executor.operators.hash_table` dict for the
    iterator engine."""
    from repro.executor.operators import hash_table
    from repro.executor.vectorized import JoinTable

    if vectorized:
        return JoinTable.from_rows(join, rows, num_vertices)
    return hash_table(join, rows.tolist())


def _probe_walk(node: PlanNode):
    """``node`` and the nodes below it along probe/child pointers, down to a
    leaf (``HashJoinNode.children()`` returns ``(build, probe)``, so the walk
    takes the last child)."""
    while True:
        yield node
        children = node.children()
        if not children:
            return
        node = children[-1]


def primary_scan(node: PlanNode) -> Optional[ScanNode]:
    """The scan whose edge range the morsel queue partitions when the
    sub-plan rooted at ``node`` runs: the leaf of its probe walk.  The build
    sides of hash joins on that walk are not partitioned with it:
    :func:`execute_phases` builds each of them once before the morsels run."""
    *_, leaf = _probe_walk(node)
    return leaf if isinstance(leaf, ScanNode) else None


def spine_joins(node: PlanNode) -> List[HashJoinNode]:
    """The hash joins on the probe walk from ``node`` — the joins whose
    tables must exist before ``node``'s morsels can run."""
    return [n for n in _probe_walk(node) if isinstance(n, HashJoinNode)]


def scan_edge_count(graph, scan: ScanNode) -> int:
    """Edges a scan reads in full — the range its morsels partition."""
    edge = scan.edge
    return graph.count_edges(
        edge_label=edge.label,
        src_label=scan.sub_query.vertex_label(edge.src),
        dst_label=scan.sub_query.vertex_label(edge.dst),
    )


def run_morsel(
    plan: Plan,
    root: PlanNode,
    graph,
    config: ExecutionConfig,
    collect: bool,
    join_tables: Dict[int, object],
    index: int = 0,
    worker_id: int = 0,
) -> MorselRun:
    """Execute one morsel (``config.scan_range``) of the sub-plan rooted at
    ``root``: a build phase when ``root`` is a build side, the probe phase
    when it is the plan's root.  Shared by threads and worker processes."""
    from repro.executor.pipeline import execute_build_side, execute_plan

    if root is not plan.root:
        built = execute_build_side(root, graph, config, join_tables)
        return MorselRun(
            phase="build",
            index=index,
            worker_id=worker_id,
            count=built.rows.shape[0],
            profile=built.profile,
            rows=built.rows,
            truncated=built.deadline_exceeded,
            deadline_exceeded=built.deadline_exceeded,
        )
    result = execute_plan(plan, graph, config=config, collect=collect, join_tables=join_tables)
    return MorselRun(
        phase="probe",
        index=index,
        worker_id=worker_id,
        count=result.num_matches,
        profile=result.profile,
        rows=result.matches,
        truncated=result.truncated,
        deadline_exceeded=result.deadline_exceeded,
    )


def execute_phases(
    plan: Plan,
    graph,
    config: ExecutionConfig,
    collect: bool,
    num_workers: int,
    run_phase: PhaseRunner,
    make_table: Optional[TableMaker] = None,
) -> Tuple[ParallelResult, List[MorselRun]]:
    """Run ``plan`` as build phases, a barrier per hash join, then the probe
    phase (see the module docstring), and merge every morsel into one
    :class:`ParallelResult`.  Also returns the morsel runs in execution
    order (build phases first) for the caller's own bookkeeping.

    ``make_table`` defaults to building the table in this process from the
    runs' in-memory frames (:func:`join_table`)."""
    from repro.executor.vectorized import concat_frames

    def table_in_memory(join: HashJoinNode, morsels: List[MorselRun]) -> Tuple[object, float]:
        t0 = time.perf_counter()
        rows = concat_frames([m.rows for m in morsels], len(join.build.out_vertices))
        table = join_table(join, rows, graph.num_vertices, config.vectorized)
        return table, time.perf_counter() - t0

    make_table = make_table or table_in_memory
    start_time = time.perf_counter()
    tables: Dict[int, object] = {}
    runs: List[MorselRun] = []
    merged = ExecutionProfile()

    def build(join: HashJoinNode) -> bool:
        nonlocal merged
        for inner in spine_joins(join.build):
            if not build(inner):
                return False
        morsels = run_phase(join.build, tables)
        runs.extend(morsels)
        for morsel in morsels:
            merged = merged.merge(morsel.profile)
        if any(m.deadline_exceeded for m in morsels):
            return False
        tables[id(join)], seconds = make_table(join, morsels)
        for morsel in morsels:
            morsel.rows = None  # the table holds the rows from here on
        name = join.display_name()
        merged.record_hash_table(name, sum(m.count for m in morsels))
        if config.vectorized:
            # Only the batch engine times its operators.
            merged.record_operator_time(name, seconds)
        return True

    if all(build(join) for join in spine_joins(plan.root)):
        probes = run_phase(plan.root, tables)
        runs.extend(probes)
    else:
        probes = []

    total = 0
    per_worker_work = [0] * num_workers
    deadline_exceeded = False
    truncated = False
    matches: Optional[List[Tuple[int, ...]]] = [] if collect else None
    for run in runs:
        per_worker_work[run.worker_id] += run.profile.intersection_cost + run.count
        deadline_exceeded = deadline_exceeded or run.deadline_exceeded
        truncated = truncated or run.truncated
    for run in probes:
        total += run.count
        merged = merged.merge(run.profile)
        if matches is not None and run.rows:
            # Runs arrive in morsel order, so frames merge in range order.
            matches.extend(run.rows)
    limit = config.output_limit
    if limit is not None and total > limit:
        total = limit
        truncated = True
    if matches is not None and limit is not None:
        matches = matches[:limit]
    elapsed = time.perf_counter() - start_time
    merged.elapsed_seconds = elapsed
    merged.output_matches = total
    # One profile per *morsel* was folded in; the meaningful busy-vs-wall
    # normalisation factor is the worker count.
    merged.workers = num_workers
    result = ParallelResult(
        plan=plan,
        num_matches=total,
        profile=merged,
        num_workers=num_workers,
        elapsed_seconds=elapsed,
        per_worker_work=per_worker_work,
        truncated=truncated,
        deadline_exceeded=deadline_exceeded,
        matches=matches,
        vertex_order=tuple(plan.root.out_vertices),
    )
    return result, runs


def execute_parallel(
    plan: Plan,
    graph: Graph,
    num_workers: int = 2,
    morsel_size: int = 1024,
    config: Optional[ExecutionConfig] = None,
    collect: bool = False,
) -> ParallelResult:
    """Execute ``plan`` with ``num_workers`` workers over scan-range morsels.

    With ``collect=True`` each morsel materialises its rows and the merged
    result concatenates them in range order (the iterator engine therefore
    reproduces the serial row order exactly), capped at
    ``config.output_limit``.  Hash-join build sides are built once per query
    and shared in memory by all probe morsels (:func:`execute_phases`).
    """
    base_config = config or ExecutionConfig()
    if primary_scan(plan.root) is None or num_workers <= 1:
        from repro.executor.pipeline import execute_plan

        start = time.perf_counter()
        result = execute_plan(plan, graph, config=base_config, collect=collect)
        elapsed = time.perf_counter() - start
        return ParallelResult(
            plan=plan,
            num_matches=result.num_matches,
            profile=result.profile,
            num_workers=1,
            elapsed_seconds=elapsed,
            per_worker_work=[result.profile.intersection_cost + result.num_matches],
            truncated=result.truncated,
            deadline_exceeded=result.deadline_exceeded,
            matches=result.matches,
            vertex_order=tuple(result.vertex_order),
        )

    with ThreadPoolExecutor(max_workers=num_workers) as pool:

        def run_phase(root: PlanNode, join_tables: Dict[int, object]) -> List[MorselRun]:
            scan = primary_scan(root)
            total_edges = scan_edge_count(graph, scan)
            ranges = [
                (start, min(start + morsel_size, total_edges))
                for start in range(0, total_edges, morsel_size)
            ] or [(0, 0)]
            # A global output limit cannot be partitioned across morsels
            # exactly, but it still bounds each worker: no single range may
            # contribute more than the limit, and the merged count is capped.
            # Every other knob carries over from the caller's config, so each
            # morsel runs through the same engine the serial path would use.
            scan_vertices = tuple(scan.out_vertices)

            def run(item: Tuple[int, Tuple[int, int]]) -> MorselRun:
                index, scan_range = item
                morsel_config = replace(
                    base_config, scan_range=scan_range, scan_range_vertices=scan_vertices
                )
                return run_morsel(
                    plan, root, graph, morsel_config, collect, join_tables,
                    index=index, worker_id=index % num_workers,
                )

            # pool.map preserves input order, so runs come back in range order.
            return list(pool.map(run, enumerate(ranges)))

        result, _ = execute_phases(plan, graph, base_config, collect, num_workers, run_phase)
    return result
