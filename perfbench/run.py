"""Layered end-to-end benchmark of the query service.

    python3 perfbench/run.py --workload hybrid_full --seed 1 --seconds 24 --trace 0

Runs one workload (see ``workloads.py`` and README.md), or ``all`` those
``BENCHMARK.json`` declares in turn, checks every result, prints each metric
by name and unit, and ends each workload with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, set-up and read times scaled
to reference machine speed (see ``calibrate.py``); ``--trace 1`` reports the
per-layer metrics of a traced run instead.  Spans and a run record
(environment, every metric, raw values, machine speed, failures) are written
under ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Tuple

import calibrate
import shapes
from workloads import BENCHMARKED, WORKLOADS, Bench, mix_weights, weighted_quantile

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
OUT_DIR = REPO_ROOT / ".perfbench_out"
WORK_ROOT = REPO_ROOT / ".perfbench_work"

#: (name, unit) of the end-to-end metrics reported on every workload.
END_TO_END: List[Tuple[str, str]] = [
    ("setup_s", "s"),
    ("read_p50_ms", "ms"),
    ("read_p90_ms", "ms"),
    ("reads_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
]
#: End-to-end numbers printed where they apply but not in the result line:
#: they are zero, or absent, on some workloads (see README.md).
REPORTED_ONLY: List[Tuple[str, str]] = [
    ("update_p50_ms", "ms"),
    ("update_p90_ms", "ms"),
    ("edges_per_s", "1/s"),
    ("recovery_s", "s"),
    ("failed_frac", "ratio"),
]
#: (name, unit) of the per-layer metrics of a traced run.
PER_LAYER: List[Tuple[str, str]] = [
    ("server.queue_ms", "ms"),
    ("server.self_ms", "ms"),
    ("api.self_ms", "ms"),
    ("query.parse_ms", "ms"),
    ("query.canonical_ms", "ms"),
    ("planner.plan_ms", "ms"),
    ("planner.optimize_ms", "ms"),
    ("planner.invocations", "count"),
    ("planner.cache_lookups", "count"),
    ("planner.cache_hit_ratio", "ratio"),
    ("catalogue.build_s", "s"),
    ("catalogue.sample_ms", "ms"),
    ("executor.exec_ms", "ms"),
    ("executor.i_cost", "count"),
    ("executor.intermediate_matches", "count"),
    ("multiprocess.execute_ms", "ms"),
    ("multiprocess.morsels", "count"),
    ("multiprocess.fallback_ratio", "ratio"),
    ("multiprocess.queue_wait_ms", "ms"),
    ("storage.snapshot_ms", "ms"),
    ("storage.csr_merge_ms", "ms"),
    ("storage.compactions", "count"),
    ("storage.compact_ms", "ms"),
    ("persistence.log_ms", "ms"),
    ("persistence.wal_bytes_per_edge", "B"),
    ("persistence.fsyncs", "count"),
    ("persistence.checkpoint_ms", "ms"),
    ("obs.record_ms", "ms"),
    ("trace.reads_per_s", "1/s"),
    ("trace.untraced_reads_per_s", "1/s"),
    ("trace.overhead", "ratio"),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def read_metrics(bench, reads, factor: float) -> Dict[str, float]:
    """Read latency percentiles and throughput, estimated at the workload's
    defined shape mix (see ``workloads.mix_weights``) and scaled to reference
    machine speed from the window's speed ``factor``: percentiles of the
    weighted latency sample, and throughput by Little's law for a closed
    loop, clients / mean client cycle time (send, wait, check)."""
    weights = mix_weights(reads, bench.workload)
    latencies = [r.latency * 1e3 for r in reads]

    def scaled(ms: float) -> float:
        return calibrate.at_reference(ms, factor, calibrate.READ_SENSITIVITY)

    return {
        "read_p50_ms": scaled(weighted_quantile(latencies, weights, 0.5)),
        "read_p90_ms": scaled(weighted_quantile(latencies, weights, 0.9)),
        "reads_per_s": reads_per_s(bench, reads) / scaled(1.0),
    }


def machine_speed(bench, out) -> Dict[str, object]:
    """How fast the machine ran while set-up and the window were timed (see
    ``calibrate.py``): the median speed factor and its spread."""
    speed = bench.speed
    record: Dict[str, object] = {
        "samples": len(speed.samples),
        "setup_factors": [round(speed.factor(t0, t1), 4) for t0, t1 in out.setup_spans],
    }
    for phase, (t0, t1) in out.phase_spans.items():
        record[f"{phase}_factor"] = round(speed.factor(t0, t1), 4)
        record[f"{phase}_drift"] = round(speed.drift(t0, t1), 4)
    return record


def end_to_end(bench, out) -> Tuple[Dict[str, float], Dict[str, float], Dict[str, float]]:
    """(bounded metrics, reported-only metrics, samples and raw values) of an
    untraced run.

    ``setup_s`` and the read metrics are scaled to reference machine speed
    (see ``calibrate.py``); the raw values go into the run record beside
    them.  The update metrics are not scaled.
    """
    phase = "measured"
    reads = out.reads_in(phase)
    updates = [(lat * 1e3, edges) for lat, edges, p in out.updates if p == phase]
    start, end = out.phase_spans[phase]
    speed = bench.speed
    setups = [t1 - t0 for t0, t1 in out.setup_spans]
    setup_factors = [speed.factor(t0, t1) for t0, t1 in out.setup_spans]
    metrics = {
        "setup_s": statistics.median(
            calibrate.at_reference(s, f, calibrate.SETUP_SENSITIVITY)
            for s, f in zip(setups, setup_factors)
        ),
        **read_metrics(bench, reads, speed.factor(start, end)),
        "peak_rss_mb": out.extra["peak_rss_mb"],
    }
    reported = {"failed_frac": _ratio(len(out.failures), out.attempted)}
    if updates:
        update_ms = [u for u, _ in updates]
        reported["update_p50_ms"] = weighted_quantile(update_ms, [1.0] * len(update_ms), 0.5)
        reported["update_p90_ms"] = weighted_quantile(update_ms, [1.0] * len(update_ms), 0.9)
        reported["edges_per_s"] = sum(e for _, e in updates) / (end - start)
    if "recovery_s" in out.extra:
        reported["recovery_s"] = out.extra["recovery_s"]
    samples = {
        "reads": len(reads),
        "updates": len(updates),
        "setups": len(setups),
        "raw_setup_s": statistics.median(setups),
        **{f"raw_{k}": v for k, v in read_metrics(bench, reads, 0.0).items()},
    }
    return metrics, reported, samples


def reads_per_s(bench, reads) -> float:
    """Closed-loop throughput at the workload's mix: read clients divided by
    the mix-weighted mean client cycle (Little's law)."""
    if not reads:
        return 0.0
    weights = mix_weights(reads, bench.workload)
    mean_cycle = sum(w * r.cycle for w, r in zip(weights, reads)) / sum(weights)
    return bench.env["read_clients"] / mean_cycle


def per_shape_costs(out) -> Dict[str, Tuple[float, float]]:
    """Shape -> (i-cost, intermediate matches) of one request, the median
    over the run's reads (exact wherever the engine is deterministic)."""
    by_shape: Dict[str, List] = {}
    for r in out.reads:
        by_shape.setdefault(r.shape, []).append(r)
    return {
        shape: (
            statistics.median(r.i_cost for r in rs),
            statistics.median(r.intermediate for r in rs),
        )
        for shape, rs in sorted(by_shape.items())
    }


def per_layer(bench, out) -> Dict[str, float]:
    """The per-layer metrics of a traced run (see README.md for each one's
    source and normalisation)."""
    tracer = bench.tracer
    traced = tracer.summary("traced")
    setup = tracer.summary("setup")
    teardown = tracer.summary("teardown")
    reads = out.reads_in("traced")
    n_reads = len(reads)
    n_updates = sum(1 for *_, p in out.updates if p == "traced")
    c = out.counters

    def total_ms(summary, name):
        return summary.get(name, {}).get("total_s", 0.0) * 1e3

    def per_call_ms(summary, name):
        entry = summary.get(name, {"calls": 0, "total_s": 0.0})
        return _ratio(entry["total_s"] * 1e3, entry["calls"])

    def self_per_call_ms(name):
        entry = traced.get(name, {"calls": 0, "self_s": 0.0})
        return _ratio(entry["self_s"] * 1e3, entry["calls"])

    def per_read(name):
        return _ratio(total_ms(traced, name), n_reads)

    costs = per_shape_costs(out)
    i_cost = sum(cost for cost, _ in costs.values())
    intermediate = sum(matches for _, matches in costs.values())
    lookups = c["plan_cache_hits"] + c["plan_cache_misses"]
    edges_logged = sum(e for _, e, _ in out.updates)
    traced_rps, untraced_rps = (
        read_metrics(bench, out.reads_in(phase), bench.speed.factor(*out.phase_spans[phase]))[
            "reads_per_s"
        ]
        for phase in ("traced", "untraced")
    )
    return {
        "server.queue_ms": _ratio(sum(r.queue for r in reads) * 1e3, n_reads),
        "server.self_ms": self_per_call_ms("server.request"),
        "api.self_ms": self_per_call_ms("api.execute"),
        "query.parse_ms": per_read("query.parse"),
        "query.canonical_ms": per_read("query.canonical"),
        "planner.plan_ms": per_read("planner.plan"),
        "planner.optimize_ms": per_read("planner.optimize"),
        "planner.invocations": c["planner_invocations"],
        "planner.cache_lookups": lookups,
        "planner.cache_hit_ratio": _ratio(c["plan_cache_hits"], lookups),
        "catalogue.build_s": per_call_ms(setup, "catalogue.build") / 1e3,
        "catalogue.sample_ms": per_read("catalogue.sample"),
        "executor.exec_ms": per_read("executor.execute"),
        "executor.i_cost": i_cost,
        "executor.intermediate_matches": intermediate,
        "multiprocess.execute_ms": per_read("multiprocess.execute"),
        "multiprocess.morsels": _ratio(c["pool_tasks"], c["pool_queries"]),
        "multiprocess.fallback_ratio": _ratio(c["pool_fallbacks"], c["pool_queries"]),
        "multiprocess.queue_wait_ms": _ratio(c["pool_queue_wait_s"] * 1e3, c["pool_queue_waits"]),
        "storage.snapshot_ms": per_read("storage.snapshot"),
        "storage.csr_merge_ms": per_read("storage.csr_merge"),
        "storage.compactions": c["compactions"],
        "storage.compact_ms": per_call_ms(traced, "storage.compact"),
        "persistence.log_ms": per_call_ms(traced, "persistence.log"),
        "persistence.wal_bytes_per_edge": _ratio(c["wal_bytes"], edges_logged),
        "persistence.fsyncs": c["wal_fsyncs"],
        "persistence.checkpoint_ms": per_call_ms(teardown, "persistence.checkpoint"),
        "obs.record_ms": _ratio(total_ms(traced, "obs.record"), n_reads + n_updates),
        "trace.reads_per_s": traced_rps,
        "trace.untraced_reads_per_s": untraced_rps,
        "trace.overhead": 1.0 - _ratio(traced_rps, untraced_rps) if untraced_rps else 0.0,
    }


def run(workload: str, seed: int, seconds: float, trace: bool, scale: float = 1.0,
        setups: int = 3, expected=None, quiet: bool = False) -> dict:
    """Run one workload and return its run record: the result printed as the
    last line plus environment, reported-only metrics and failures."""
    shapes.import_repro()
    workdir = WORK_ROOT / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    # Temporary files the program makes (the process pool spools its base
    # graph to one) stay inside the checkout too.
    saved_tempdir, tempfile.tempdir = tempfile.tempdir, str(workdir)
    try:
        bench = Bench(
            WORKLOADS[workload], seed, seconds, trace, scale, setups, workdir,
            expected=expected,
        )
        out = bench.run()
    finally:
        tempfile.tempdir = saved_tempdir
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    if trace:
        values, units = per_layer(bench, out), dict(PER_LAYER)
        reported, samples = {"failed_frac": _ratio(len(out.failures), out.attempted)}, {}
    else:
        (values, reported, samples), units = end_to_end(bench, out), dict(END_TO_END)
    metrics = {name: {"value": float(values[name]), "unit": units[name]} for name in units}
    result = {
        "correct": not out.failures,
        "attempted": out.attempted,
        "failed": len(out.failures),
        "metrics": metrics,
    }
    record = dict(result, workload=workload, env=bench.env, reported=reported,
                  samples=samples, machine_speed=machine_speed(bench, out),
                  failed_in=out.failed_in, failures=out.failures[:20])
    if trace:
        record["i_cost_by_shape"] = {k: v[0] for k, v in per_shape_costs(out).items()}
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if bench.tracer is not None:
        bench.tracer.write(OUT_DIR / f"{stem}-spans.jsonl")
    if not quiet:
        print_report(record, units)
    return record


def print_report(record: dict, units: Dict[str, str]) -> None:
    env = record["env"]
    print(f"workload {record['workload']}  " + "  ".join(f"{k}={v}" for k, v in env.items()))
    for name, metric in record["metrics"].items():
        print(f"  {name:<32} {metric['value']:>14.4f} {metric['unit']}")
    reported_units = dict(REPORTED_ONLY)
    for name, value in record["reported"].items():
        print(f"  {name:<32} {value:>14.4f} {reported_units[name]}")
    if record["samples"]:
        print("  samples: " + ", ".join(
            f"{k}={v:.4f}" if isinstance(v, float) else f"{k}={v}"
            for k, v in record["samples"].items()))
    print("  machine speed: " + ", ".join(f"{k}={v}" for k, v in record["machine_speed"].items()))
    if "i_cost_by_shape" in record:
        print("  i_cost by shape: " + ", ".join(
            f"{k}={v:.0f}" for k, v in record["i_cost_by_shape"].items()))
    for failure in record["failures"]:
        print(f"  FAILED: {failure}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                        help="one workload, or all benchmarked ones in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        shapes.import_repro()
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        sys.exit(2)
    for name in BENCHMARKED if args.workload == "all" else [args.workload]:
        record = run(name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
