"""Cross-process tracing tests: worker-side morsel spans, skew and
critical-path summaries, worker_* metric families surviving respawns, and
the event-log wiring of the pool's lifecycle events.
"""

import os
import signal

import pytest

from repro import GraphflowDB
from repro.executor.multiprocess import MorselProcessPool
from repro.obs import Observability, iter_events
from repro.planner.qvo import enumerate_wco_plans
from repro.query import catalog_queries as cq

pytestmark = pytest.mark.process


@pytest.fixture(scope="module")
def db(random_graph):
    database = GraphflowDB(random_graph)
    database.build_catalogue(z=100)
    database.enable_process_pool(num_workers=2, min_morsel_size=64)
    yield database
    database.close()


def _process_result(db, query=None):
    return db.execute(query or cq.triangle(), num_workers=2, execution_mode="process")


class TestWorkerSpans:
    def test_one_morsel_span_per_executed_morsel(self, db):
        result = _process_result(db)
        trace = result.trace
        assert trace.mode == "parallel-process"
        morsels = [s for s in trace.spans if s.name == "morsel"]
        assert len(morsels) >= 1
        for span in morsels:
            attrs = span.attributes
            assert "worker_id" in attrs
            assert "morsel_index" in attrs
            assert "rows" in attrs
            assert attrs["queue_wait"] >= 0.0
            assert attrs["started_at"] > 0.0
            assert span.seconds >= 0.0

    def test_morsel_rows_sum_to_match_count(self, db):
        result = _process_result(db)
        morsels = [s for s in result.trace.spans if s.name == "morsel"]
        assert sum(s.attributes["rows"] for s in morsels) == result.num_matches

    def test_spans_do_not_overlap_within_a_worker(self, db):
        # started_at comes from CLOCK_MONOTONIC (system-wide on Linux), so
        # within one worker process consecutive morsels must be disjoint:
        # each starts at or after the previous one's start + execute time.
        result = _process_result(db, cq.q8())
        by_worker = {}
        for span in result.trace.spans:
            if span.name != "morsel":
                continue
            by_worker.setdefault(span.attributes["worker_id"], []).append(span)
        assert by_worker
        slack = 1e-4  # scheduler jitter between perf_counter and monotonic
        for spans in by_worker.values():
            spans.sort(key=lambda s: s.attributes["started_at"])
            for prev, nxt in zip(spans, spans[1:]):
                prev_end = prev.attributes["started_at"] + prev.seconds
                assert nxt.attributes["started_at"] >= prev_end - slack

    def test_skew_matches_busy_totals(self, db):
        result = _process_result(db)
        trace = result.trace
        exec_span = trace.span("execute")
        busy = {}
        for span in trace.spans:
            if span.name == "morsel":
                worker = span.attributes["worker_id"]
                busy[worker] = busy.get(worker, 0.0) + span.seconds
        active = [b for b in busy.values() if b > 0]
        if active:
            expected = max(active) * len(active) / sum(active)
            assert exec_span.attributes["skew"] == pytest.approx(expected, rel=1e-6)
        assert exec_span.attributes["critical_path_seconds"] >= 0.0

    def test_worker_summary_and_format(self, db):
        trace = _process_result(db).trace
        summary = trace.worker_summary()
        assert summary is not None
        assert summary["morsels"] == len(
            [s for s in trace.spans if s.name == "morsel"]
        )
        assert sum(w["rows"] for w in summary["workers"].values()) == trace.num_matches
        text = trace.format()
        assert "workers (" in text
        assert "canonical key:" in text

    def test_profile_shares_worker_summary_fields(self, db):
        result = _process_result(db)
        profile = result.trace.profile
        exec_attrs = result.trace.span("execute").attributes
        from repro.executor.profile import ExecutionProfile

        for name in ExecutionProfile.WORKER_SUMMARY_FIELDS:
            assert name in profile
            assert profile[name] == exec_attrs[name]

    def test_thread_mode_has_no_morsel_spans(self, db):
        result = db.execute(cq.triangle(), num_workers=2, execution_mode="thread")
        assert all(s.name != "morsel" for s in result.trace.spans)
        assert result.trace.worker_summary() is None

    def test_count_equivalence_thread_vs_process(self, db):
        for query in (cq.triangle(), cq.q2(), cq.q8()):
            thread = db.execute(query, num_workers=2, execution_mode="thread")
            process = db.execute(query, num_workers=2, execution_mode="process")
            assert process.num_matches == thread.num_matches


def _hybrid_diamond_x(db):
    """Diamond-X as the hybrid plan the optimizer picks on the benchmark
    graph (a hash join of two triangles), with the catalogue's estimates."""
    from repro.planner.cost_model import annotate_operator_estimates
    from repro.planner.plan import Plan, make_hash_join, wco_plan_from_order

    q = cq.diamond_x()
    build = wco_plan_from_order(q.project(["a1", "a2", "a3"]), ("a1", "a2", "a3"))
    probe = wco_plan_from_order(q.project(["a2", "a3", "a4"]), ("a2", "a3", "a4"))
    plan = Plan(query=q, root=make_hash_join(q, build.root, probe.root))
    return annotate_operator_estimates(plan, db.cost_model_for(False))


class TestHybridTraces:
    def test_build_phase_spans_and_probe_rows(self, db):
        plan = _hybrid_diamond_x(db)
        result = db.execute(plan, num_workers=2, execution_mode="process")
        morsels = [s for s in result.trace.spans if s.name == "morsel"]
        build = [s for s in morsels if s.attributes["phase"] == "build"]
        probe = [s for s in morsels if s.attributes["phase"] == "probe"]
        assert build and probe and len(build) + len(probe) == len(morsels)
        assert sum(s.attributes["rows"] for s in probe) == result.num_matches
        entries = result.trace.profile["hash_table_entries"]
        assert sum(s.attributes["rows"] for s in build) == entries
        summary = result.trace.worker_summary()
        assert sum(w["rows"] for w in summary["workers"].values()) == result.num_matches
        assert sum(w["build_rows"] for w in summary["workers"].values()) == entries

    def test_diamond_x_q_errors_equal_serial(self, db):
        plan = _hybrid_diamond_x(db)
        key = ("plan", plan.signature())
        serial = db.execute(plan)
        serial_feedback = db.obs.feedback.get(key).last_q_error
        process = db.execute(plan, num_workers=2, execution_mode="process")

        def q_errors(trace):
            return {op.name: (op.actual, op.q_error) for op in trace.operators}

        assert process.i_cost == serial.i_cost
        assert q_errors(process.trace) == q_errors(serial.trace)
        assert db.obs.feedback.get(key).last_q_error == serial_feedback


class TestWorkerMetrics:
    def test_worker_families_populated(self, db):
        _process_result(db)
        exposition = db.obs.registry.expose_prometheus()
        for family in (
            "graphflow_worker_queue_wait_seconds_count",
            "graphflow_worker_execute_seconds_count",
            "graphflow_worker_morsels_total",
            "graphflow_worker_busy_seconds_total",
            "graphflow_worker_pool_generation",
        ):
            assert family in exposition
        # Each worker slot is labeled.
        assert 'worker="w0"' in exposition

    def test_base_cache_hit_and_miss_counts(self, random_graph):
        obs = Observability()
        with MorselProcessPool(
            num_workers=2, min_morsel_size=64, observability=obs
        ) as pool:
            plan = enumerate_wco_plans(cq.triangle())[0]
            pool.execute(plan, random_graph)
            pool.execute(plan, random_graph)
        stats = pool.stats()
        assert stats["base_cache_misses"] >= 1
        exposition = obs.registry.expose_prometheus()
        assert "graphflow_worker_base_cache_misses_total" in exposition

    def test_counters_survive_forced_respawn(self, random_graph):
        obs = Observability()
        with MorselProcessPool(
            num_workers=2, min_morsel_size=64, observability=obs
        ) as pool:
            plan = enumerate_wco_plans(cq.triangle())[0]
            first = pool.execute(plan, random_graph)
            morsels_before = pool.stats()["workers"]["w0"]["morsels"] + pool.stats()[
                "workers"
            ]["w1"]["morsels"]
            assert morsels_before > 0
            # Kill a worker; the next dispatch respawns the generation.
            os.kill(pool._workers[0].pid, signal.SIGKILL)
            pool._workers[0].join(timeout=10)
            second = pool.execute(plan, random_graph)
            assert second.num_matches == first.num_matches
            stats = pool.stats()
            assert stats["generation"] >= 1
            assert stats["respawns"] >= 1
            morsels_after = (
                stats["workers"]["w0"]["morsels"] + stats["workers"]["w1"]["morsels"]
            )
            # Per-worker totals accumulate across generations — never reset.
            assert morsels_after > morsels_before
        exposition = obs.registry.expose_prometheus()
        assert "graphflow_worker_pool_generation 1" in exposition

    def test_pool_replacement_carries_counters(self, random_graph):
        database = GraphflowDB(random_graph)
        database.build_catalogue(z=100)
        try:
            database.enable_process_pool(num_workers=2, min_morsel_size=64)
            database.execute(cq.triangle(), num_workers=2, execution_mode="process")
            before = database._process_pool.stats()
            w0_before = before["workers"]["w0"]["morsels"]
            assert w0_before > 0
            # Replace the pool (different worker count): counters carry.
            database.enable_process_pool(num_workers=3, min_morsel_size=64)
            after = database._process_pool.stats()
            assert after["workers"]["w0"]["morsels"] == w0_before
            assert after["generation"] == before["generation"] + 1
        finally:
            database.close()


class TestEventWiring:
    def test_pool_respawn_and_fallback_events(self, random_graph, tmp_path):
        log_path = str(tmp_path / "events.jsonl")
        obs = Observability(event_log=log_path)
        with MorselProcessPool(
            num_workers=2, min_morsel_size=64, observability=obs
        ) as pool:
            plan = enumerate_wco_plans(cq.triangle())[0]
            pool.execute(plan, random_graph)
            os.kill(pool._workers[1].pid, signal.SIGKILL)
            pool._workers[1].join(timeout=10)
            pool.execute(plan, random_graph)
            pool.note_fallback("test reason")
        types = [e["type"] for e in iter_events(log_path)]
        assert "pool_respawn" in types
        assert "fallback_to_thread" in types
        respawn = next(e for e in iter_events(log_path, types=["pool_respawn"]))
        assert respawn["generation"] >= 1
        assert respawn["dead_workers"] >= 1

    def test_query_finish_event_records_process_mode(self, random_graph, tmp_path):
        log_path = str(tmp_path / "events.jsonl")
        database = GraphflowDB(random_graph, event_log=log_path)
        database.build_catalogue(z=100)
        try:
            database.execute(cq.triangle(), num_workers=2, execution_mode="process")
        finally:
            database.close()
        finishes = list(iter_events(log_path, types=["query_finish"]))
        assert finishes
        assert finishes[-1]["mode"] == "parallel-process"
        assert finishes[-1]["matches"] >= 0
        assert finishes[-1]["key"]
