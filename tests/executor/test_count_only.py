"""A counting run must not be told apart from a collecting run by its numbers.

When a vectorized run only counts (``collect=False``, no ``output_limit``),
its root operator emits zero-width frames carrying row counts instead of
building the rows.  Everything else — the match count, per-operator actual
rows and hash-table entries, i-cost, intermediate matches, hash probes —
must equal the ``collect=True`` run of the same engine and mode, and the
match count must equal the tuple-at-a-time iterator's.  Checked for every
query of :mod:`repro.query.catalog_queries` (optimizer plans: E/I roots and
hash-join roots) plus hand-built hybrids, one of them a root hash join with
a post-filter edge; under homomorphism and isomorphism; serial,
thread-parallel and process-parallel; on a clean and a dirty snapshot.
"""

import random
import time
import types

import pytest

from repro import GraphflowDB
from repro.executor import vectorized
from repro.executor.multiprocess import MorselProcessPool
from repro.executor.operators import ExecutionConfig, resolve_hash_join
from repro.executor.parallel import execute_parallel
from repro.executor.pipeline import execute_plan
from repro.executor.profile import ExecutionProfile
from repro.graph.builder import GraphBuilder
from repro.graph.generators import erdos_renyi
from repro.planner.plan import (
    ExtendNode,
    HashJoinNode,
    Plan,
    make_hash_join,
    make_scan,
    wco_plan_from_order,
)
from repro.planner.qvo import enumerate_wco_plans
from repro.query import catalog_queries as cq
from repro.storage.dynamic import DynamicGraph

pytestmark = pytest.mark.process

QUERY_NAMES = sorted(cq._REGISTRY)
# Hand-built hybrids: a root join without a post-filter (Q3's benchmark
# plan) and one that must verify the a3->a4 edge after joining.
HYBRID_NAMES = ["hybrid-Q3", "hybrid-filter-root"]
PLAN_NAMES = QUERY_NAMES + HYBRID_NAMES


def _triangle(query, order):
    return wco_plan_from_order(query.project(list(order)), order).root


def _hybrid_plans():
    q3 = cq.q3()
    (a2_a4,) = q3.edges_between("a2", "a4")
    return {
        "hybrid-Q3": Plan(
            query=q3,
            root=make_hash_join(
                q3, _triangle(q3, ("a1", "a2", "a3")), _triangle(q3, ("a2", "a3", "a4"))
            ),
        ),
        "hybrid-filter-root": Plan(
            query=q3,
            root=make_hash_join(q3, _triangle(q3, ("a1", "a2", "a3")), make_scan(q3, a2_a4)),
        ),
    }


@pytest.fixture(scope="module")
def clean_graph():
    return erdos_renyi(40, 220, seed=42, name="er-40")


@pytest.fixture(scope="module")
def plans(clean_graph):
    db = GraphflowDB(clean_graph)
    db.build_catalogue(h=2, z=100)
    out = {
        name: db.plan(cq.get(name), vectorized=True)
        for name in QUERY_NAMES
        if name != "Q14"
    }
    # Planning the 7-clique takes ~25 s; any of its WCO plans has the same
    # (E/I) root.
    q14 = cq.q14()
    out["Q14"] = wco_plan_from_order(q14, tuple(q14.vertices))
    out.update(_hybrid_plans())
    return out


@pytest.fixture(scope="module")
def dirty_graph(clean_graph):
    """A snapshot with a live delta overlay (inserts and deletes)."""
    dynamic = DynamicGraph(clean_graph)
    n = clean_graph.num_vertices
    inserts = [(v, (v * 7 + 1) % n, 0) for v in range(0, n, 2)]
    dynamic.add_edges(
        [e for e in inserts if e[0] != e[1] and not clean_graph.has_edge(*e)]
    )
    existing = list(zip(clean_graph.edge_src.tolist(), clean_graph.edge_dst.tolist()))
    dynamic.delete_edges([(s, d, 0) for s, d in existing[:20]])
    return dynamic.snapshot()


@pytest.fixture(scope="module")
def pool():
    with MorselProcessPool(num_workers=2, min_morsel_size=32) as p:
        yield p


@pytest.fixture(params=["clean", "dirty"])
def graph(request, clean_graph, dirty_graph):
    return clean_graph if request.param == "clean" else dirty_graph


@pytest.fixture(scope="module")
def oracle_count():
    """The serial tuple-at-a-time engine's match count, computed once per
    (plan, graph, semantics) for all three modes."""
    counts = {}

    def count(name, plan, graph, isomorphism):
        key = (name, id(graph), isomorphism)
        if key not in counts:
            config = ExecutionConfig(isomorphism=isomorphism)
            counts[key] = execute_plan(plan, graph, config=config).num_matches
        return counts[key]

    return count


def _run(mode, pool, plan, graph, config, collect=False):
    if mode == "serial":
        return execute_plan(plan, graph, config=config, collect=collect)
    if mode == "thread":
        return execute_parallel(
            plan, graph, num_workers=2, morsel_size=40, config=config, collect=collect
        )
    return pool.execute(plan, graph, config=config, collect=collect)


def _actuals(profile):
    return {
        "i_cost": profile.intersection_cost,
        "intermediate_matches": profile.intermediate_matches,
        "hash_table_entries": profile.hash_table_entries,
        "hash_probes": profile.hash_probes,
        "operators": {
            name: (counters.get("out", 0), counters.get("entries", 0))
            for name, counters in profile.per_operator.items()
        },
    }


def test_plans_cover_every_root_kind(plans):
    """The matrix below reaches all three root paths: a counting E/I root,
    a counting hash-join root, and a post-filtered root join that keeps
    materialising."""
    roots = [plan.root for plan in plans.values()]
    joins = [r for r in roots if isinstance(r, HashJoinNode)]
    assert any(isinstance(r, ExtendNode) for r in roots)
    assert any(not resolve_hash_join(j)[3] for j in joins)
    assert any(resolve_hash_join(j)[3] for j in joins)


@pytest.mark.parametrize("mode", ["serial", "thread", "process"])
@pytest.mark.parametrize("isomorphism", [False, True], ids=["hom", "iso"])
@pytest.mark.parametrize("name", PLAN_NAMES)
def test_counting_equals_collecting(pool, plans, oracle_count, graph, name, isomorphism, mode):
    plan = plans[name]
    config = ExecutionConfig(vectorized=True, isomorphism=isomorphism, batch_size=53)
    counting = _run(mode, pool, plan, graph, config)
    collecting = _run(mode, pool, plan, graph, config, collect=True)
    assert counting.matches is None
    assert counting.num_matches == collecting.num_matches == len(collecting.matches)
    assert counting.num_matches == oracle_count(name, plan, graph, isomorphism)
    assert _actuals(counting.profile) == _actuals(collecting.profile)
    assert not counting.truncated and not counting.deadline_exceeded


def _multigraph():
    """Parallel edges that differ only in their label: an unlabeled query's
    extension sets then repeat values."""
    rng = random.Random(5)
    builder = GraphBuilder()
    for v in range(30):
        builder.add_vertex(v, 0)
    for _ in range(200):
        s, d = rng.randrange(30), rng.randrange(30)
        if s != d:
            builder.add_edge(s, d, rng.randrange(2))
    return builder.build(name="multi-30")


@pytest.mark.parametrize("isomorphism", [False, True], ids=["hom", "iso"])
@pytest.mark.parametrize("name", ["Q1", "Q3", "Q5", "tailed-triangle"])
def test_counting_equals_collecting_on_a_multigraph(name, isomorphism):
    """A repeated extension value equal to a prefix value is dropped once
    per copy by the isomorphism filter; the counting root must agree."""
    graph = _multigraph()
    config = ExecutionConfig(vectorized=True, isomorphism=isomorphism, batch_size=53)
    for plan in enumerate_wco_plans(cq.get(name))[:3]:
        counting = execute_plan(plan, graph, config=config)
        collecting = execute_plan(plan, graph, config=config, collect=True)
        assert counting.num_matches == collecting.num_matches
        assert _actuals(counting.profile) == _actuals(collecting.profile)


@pytest.mark.parametrize("isomorphism", [False, True], ids=["hom", "iso"])
@pytest.mark.parametrize("name", ["Q1", "Q8", "tailed-triangle", *HYBRID_NAMES])
def test_root_frames_are_zero_width_only_when_counting(plans, clean_graph, name, isomorphism):
    """The counting root builds no rows, except a root join that must still
    post-filter its rows (isomorphism or an uncovered query edge)."""
    plan = plans[name]
    config = ExecutionConfig(vectorized=True, isomorphism=isomorphism, batch_size=53)
    root = vectorized.build_batch_operator_tree(
        plan.root, clean_graph, ExecutionProfile(), config
    )
    root.count_only = True
    widths = {frame.shape[1] for frame in root.frames()}
    expands = isinstance(plan.root, HashJoinNode) and (
        isomorphism or resolve_hash_join(plan.root)[3]
    )
    assert widths == ({len(plan.root.out_vertices)} if expands else {0})


def test_deadline_truncates_a_counting_run(monkeypatch, plans, clean_graph):
    """A deadline that passes mid-run stops a counting run with a partial
    count: the drive loop still sees one (zero-width) frame per root input
    frame and checks the clock between them."""
    plan = plans["tailed-triangle"]
    config = ExecutionConfig(vectorized=True, batch_size=16, deadline=100.0)
    total = execute_plan(plan, clean_graph, config=ExecutionConfig(vectorized=True)).num_matches
    readings = iter(range(10_000))
    # The clock passes the deadline after a few reads: some frames count,
    # the rest never run.
    clock = types.SimpleNamespace(
        monotonic=lambda: 90.0 + next(readings), perf_counter=time.perf_counter
    )
    monkeypatch.setattr(vectorized, "time", clock)
    result = execute_plan(plan, clean_graph, config=config)
    assert result.truncated and result.deadline_exceeded
    assert 0 < result.num_matches < total


@pytest.mark.parametrize("mode", ["serial", "thread", "process"])
def test_expired_deadline_counts_nothing(pool, plans, clean_graph, mode):
    config = ExecutionConfig(vectorized=True, deadline=time.monotonic() - 1.0)
    for name in ("Q1", "hybrid-Q3"):
        result = _run(mode, pool, plans[name], clean_graph, config)
        assert result.truncated and result.deadline_exceeded
        assert result.num_matches == 0


@pytest.mark.parametrize("mode", ["serial", "thread", "process"])
@pytest.mark.parametrize("name", ["Q1", "hybrid-Q3", "hybrid-filter-root"])
def test_output_limit_counts(pool, plans, clean_graph, name, mode):
    """LIMIT runs keep materialising at the root and return
    ``min(limit, total)``."""
    plan = plans[name]
    total = execute_plan(plan, clean_graph, config=ExecutionConfig(vectorized=True)).num_matches
    for limit in (1, total // 2, total + 5):
        config = ExecutionConfig(vectorized=True, batch_size=53, output_limit=limit)
        result = _run(mode, pool, plan, clean_graph, config)
        assert result.num_matches == min(limit, total)
        assert result.truncated == (limit < total)
