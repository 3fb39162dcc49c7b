"""Parallel hybrid plans must be invisible in every counter, not just counts.

Both morsel executors evaluate each hash join's build side exactly once per
query (a build phase, a barrier that makes the table, then the probe phase),
so a parallel run must report the serial run's per-operator actual rows,
hash-table entries, i-cost and intermediate matches — on clean and dirty
snapshots, with both engines, in thread and process mode.  The iterator
engine's collected rows must also come back in exact serial order.

The plans mirror the hybrid plans the optimizer picks on the benchmark graph
(Q3, Q4, Q8) plus two hand-built nestings: a hash join inside a build side,
and two hash joins on the probe walk.
"""

import pytest

from repro.executor.multiprocess import MorselProcessPool
from repro.executor.operators import ExecutionConfig
from repro.executor.parallel import execute_parallel
from repro.executor.pipeline import execute_plan
from repro.planner.plan import Plan, make_hash_join, make_scan, wco_plan_from_order
from repro.query import catalog_queries as cq

pytestmark = pytest.mark.process


def _triangle(query, order):
    return wco_plan_from_order(query.project(list(order)), order).root


def _scan(query, src, dst, reverse=False):
    (edge,) = query.edges_between(src, dst)
    return make_scan(query, edge, reverse=reverse)


def _hybrid(query, build, probe):
    return Plan(query=query, root=make_hash_join(query, build, probe))


def _plans():
    q3, q4, q8 = cq.q3(), cq.q4(), cq.q8()
    return {
        "Q3": _hybrid(q3, _triangle(q3, ("a1", "a2", "a3")), _triangle(q3, ("a2", "a3", "a4"))),
        "Q4": _hybrid(q4, _triangle(q4, ("a2", "a1", "a3")), _triangle(q4, ("a2", "a3", "a4"))),
        "Q8": _hybrid(q8, _triangle(q8, ("a1", "a2", "a3")), _triangle(q8, ("a3", "a4", "a5"))),
        # The build side is itself a hash join (of two scans, closing the
        # a2->a3 edge as a post-filter): its own table is built first.
        "nested-build": _hybrid(
            q3,
            make_hash_join(q3, _scan(q3, "a1", "a3"), _scan(q3, "a1", "a2")),
            _triangle(q3, ("a2", "a3", "a4")),
        ),
        # Two hash joins on the probe walk: both tables exist before any
        # probe morsel runs.
        "nested-probe": _hybrid(
            q8,
            _triangle(q8, ("a1", "a2", "a3")),
            make_hash_join(q8, _scan(q8, "a3", "a5"), _scan(q8, "a3", "a4")),
        ),
    }


PLANS = _plans()


@pytest.fixture(scope="module")
def pool():
    with MorselProcessPool(num_workers=2, min_morsel_size=64) as p:
        yield p


@pytest.fixture(params=["clean", "dirty"])
def graph(request, random_graph, dirty_snapshot):
    return random_graph if request.param == "clean" else dirty_snapshot


def _actuals(profile):
    """Every counter a parallel run must reproduce exactly."""
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


def _run(mode, pool, plan, graph, config, collect):
    if mode == "thread":
        return execute_parallel(
            plan, graph, num_workers=2, morsel_size=100, config=config, collect=collect
        )
    return pool.execute(plan, graph, config=config, collect=collect)


@pytest.mark.parametrize("mode", ["thread", "process"])
@pytest.mark.parametrize("vectorized", [False, True], ids=["iterator", "vectorized"])
@pytest.mark.parametrize("name", sorted(PLANS))
def test_parallel_actuals_equal_serial(pool, graph, name, vectorized, mode):
    plan = PLANS[name]
    config = ExecutionConfig(vectorized=vectorized, batch_size=97)
    serial = execute_plan(plan, graph, config=config)
    assert serial.profile.hash_table_entries > 0
    result = _run(mode, pool, plan, graph, config, collect=False)
    assert result.num_matches == serial.num_matches
    assert _actuals(result.profile) == _actuals(serial.profile)


@pytest.mark.parametrize("mode", ["thread", "process"])
@pytest.mark.parametrize("name", sorted(PLANS))
def test_iterator_rows_in_serial_order(pool, graph, name, mode):
    plan = PLANS[name]
    serial = execute_plan(plan, graph, collect=True)
    result = _run(mode, pool, plan, graph, ExecutionConfig(), collect=True)
    assert result.vertex_order == tuple(serial.vertex_order)
    assert result.matches == serial.matches


def test_build_morsels_run_once_per_query(pool, random_graph):
    """Process mode: one build phase per hash join, then the probe phase;
    the build-phase rows add up to the table's entries."""
    plan = PLANS["nested-build"]
    serial = execute_plan(plan, random_graph)
    result = pool.execute(plan, random_graph)
    records = result.morsel_records
    build = [r for r in records if r["phase"] == "build"]
    probe = [r for r in records if r["phase"] == "probe"]
    assert build and probe
    assert records == build + probe  # every build phase precedes the probe
    assert sum(r["rows"] for r in probe) == serial.num_matches
    assert sum(r["rows"] for r in build) == serial.profile.hash_table_entries


def test_expired_deadline_stops_before_the_probe_phase(pool, random_graph):
    import time

    # The batch scan checks the deadline before its first frame, so the
    # build phase already fails and no probe morsel is dispatched.
    config = ExecutionConfig(vectorized=True, deadline=time.monotonic() - 1.0)
    for mode in ("thread", "process"):
        result = _run(mode, pool, PLANS["Q3"], random_graph, config, collect=False)
        assert result.deadline_exceeded and result.truncated
        assert result.num_matches == 0
        assert all(r["phase"] == "build" for r in result.morsel_records)


@pytest.mark.parametrize("wide", [False, True], ids=["packed", "wide"])
def test_join_table_survives_spooling(random_graph, monkeypatch, tmp_path, wide):
    """A table mapped back from spooled ``.npy`` arrays (what process-mode
    workers probe) matches exactly like the in-memory one, for packed and
    for too-wide (dense-coded) join keys."""
    import numpy as np

    import repro.executor.vectorized as vectorized
    from repro.executor.pipeline import execute_build_side

    if wide:
        monkeypatch.setattr(vectorized, "_CODE_BITS", 0)
    join = PLANS["Q3"].root
    rows = execute_build_side(join.build, random_graph, ExecutionConfig()).rows
    table = vectorized.JoinTable.from_rows(join, rows, random_graph.num_vertices)
    assert (table.wide_keys is not None) == wide
    arrays = {}
    for name, array in table.to_arrays().items():
        np.save(tmp_path / f"{name}.npy", array)
        arrays[name] = np.load(tmp_path / f"{name}.npy", mmap_mode="r")
    mapped = vectorized.JoinTable.from_arrays(arrays)
    probe = execute_build_side(join.probe, random_graph, ExecutionConfig()).rows[:, :2]
    for got, want in zip(mapped.match(probe), table.match(probe)):
        assert np.array_equal(got, want)
    assert np.array_equal(mapped.payload, table.payload)
