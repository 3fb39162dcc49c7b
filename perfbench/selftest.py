"""Self-test of the benchmark at a tiny scale (about a minute).

    python3 perfbench/selftest.py

Checks that every workload, untraced and traced, emits exactly the metrics
``BENCHMARK.json`` names, each with its unit and a finite value, and reports
no failure; and that deliberate mismatches make a run report failures in
the phase whose checks they target, so the result checks bite: wrong
expected counts fail measured reads of the full-count and LIMIT workloads,
and a corrupted update model or an edge that bypassed the write-ahead log
fail the version-model and replica checks of ``durable_updates``.
"""

from __future__ import annotations

import contextlib
import json
import math
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import shapes  # noqa: E402
import workloads  # noqa: E402

SCALE = 0.1
SECONDS = 2.0


def check_metrics(record: dict, declared: dict, label: str) -> list:
    problems = []
    metrics = record["metrics"]
    if set(metrics) != set(declared):
        problems.append(f"{label}: metrics {sorted(set(metrics) ^ set(declared))} mismatch")
    for name, metric in metrics.items():
        if metric.get("unit") != declared.get(name):
            problems.append(f"{label}: {name} has unit {metric.get('unit')!r}")
        if not isinstance(metric.get("value"), float) or not math.isfinite(metric["value"]):
            problems.append(f"{label}: {name} value {metric.get('value')!r}")
    if record["machine_speed"]["samples"] < 1:
        problems.append(f"{label}: no machine-speed samples")
    if not record["correct"] or record["failed"] or record["attempted"] < 1:
        problems.append(f"{label}: failures {record['failures']}")
    return problems


def expect_failures(record: dict, label: str, phase: str, messages: list) -> list:
    """Problems unless ``record`` failed in ``phase`` with every message."""
    caught = record["failed_in"].get(phase, 0) > 0 and not record["correct"]
    missing = [m for m in messages if not any(m in f for f in record["failures"])]
    ok = caught and not missing
    print(f"{label}: {'reported ' + str(record['failed_in']) if ok else 'NOT CAUGHT'}")
    if ok:
        return []
    return [f"{label}: no {phase} failure" + (f" mentioning {missing}" if missing else "")]


@contextlib.contextmanager
def corrupt_model():
    """The update model forgets the initial graph and one present edge, as a
    wrong version model would: read rows then match no version, and the
    primary's edge set differs from the model's."""
    original = workloads.WriterModel.__init__

    def init(self, graph, rng):
        original(self, graph, rng)
        self.initial = set()
        self._remove(self.present[0])

    workloads.WriterModel.__init__ = init
    try:
        yield
    finally:
        workloads.WriterModel.__init__ = original


@contextlib.contextmanager
def unlogged_edge():
    """An edge reaches the primary's graph without going through the WAL, as
    a lost log record would: the replica's edge set then differs."""
    original = workloads.Bench._check_replica

    def check(self):
        graph = self.service.db.graph
        src, dst = next(
            (s, d) for s in range(graph.num_vertices) for d in range(graph.num_vertices)
            if s != d and not graph.has_edge(s, d)
        )
        graph.add_edges([(src, dst)])
        original(self)

    workloads.Bench._check_replica = check
    try:
        yield
    finally:
        workloads.Bench._check_replica = original


#: (label, patch, messages the failures of the post-window checks must carry).
DURABLE_MISMATCHES = [
    ("a corrupted update model", corrupt_model,
     ["rows match no graph version", "primary edge set differs"]),
    ("an unlogged primary edge", unlogged_edge, ["replica edge set differs"]),
]


def main() -> int:
    shapes.import_repro()
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    if declared[0] != dict(run.END_TO_END) or declared[1] != dict(run.PER_LAYER):
        problems.append("BENCHMARK.json and run.py declare different metrics")
    if [w["name"] for w in spec["workloads"]] != list(run.BENCHMARKED):
        problems.append("BENCHMARK.json and run.py declare different workloads")
    expected = shapes.compute_oracle(shapes.load_graph(SCALE))
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            record = run.run(workload, 7, SECONDS, bool(trace), scale=SCALE, setups=1,
                             expected=expected, quiet=True)
            label = f"{workload} trace={trace}"
            found = check_metrics(record, declared[trace], label)
            print(f"{label}: {'ok' if not found else 'FAILED'} ({record['attempted']} operations)")
            problems += found
    # Below the row limit, so the LIMIT-10 row count is wrong too.
    wrong = {shape: 4 if count == 3 else 3 for shape, count in expected.items()}
    for workload in ("hybrid_full", "limit_first_rows", "parallel_hybrid"):
        # The warm-up reads are checked against the same wrong counts, so
        # only failures among the measured reads show the window's checks.
        record = run.run(workload, 7, SECONDS, False, scale=SCALE, setups=1,
                         expected=wrong, quiet=True)
        problems += expect_failures(record, f"{workload} with wrong expected counts",
                                    "measured", ["matches, expected"])
    for label, patch, messages in DURABLE_MISMATCHES:
        with patch():
            record = run.run("durable_updates", 7, SECONDS, False, scale=SCALE, setups=1,
                             expected=expected, quiet=True)
        problems += expect_failures(record, f"durable_updates with {label}", "check", messages)
    for problem in problems:
        print("PROBLEM:", problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
