"""The benchmark graph, its query shapes, and the committed result oracle.

Every workload runs on one graph: the ``livejournal`` archetype at scale 1.0
with the dataset generator's fixed seed.  The oracle holds the full match
count of every shape on that graph, computed once with the serial
tuple-at-a-time engine (the repo's reference path) and committed in
``oracle.json``.  Regenerate it with::

    python3 perfbench/shapes.py --write-oracle

At any other scale (the self-test) the oracle is computed on the fly with the
same engine.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
ORACLE_PATH = BENCH_DIR / "oracle.json"

DATASET = "livejournal"
DATASET_SCALE = 1.0
#: The livejournal generator's own default seed, pinned here so a change to
#: the generator's default cannot silently change the benchmark graph.
DATASET_SEED = 19
#: Catalogue settings: ``z`` matches the size the library samples with when it
#: builds a catalogue on demand; ``seed`` makes the chosen plans repeat.
CATALOGUE_Z = 200
CATALOGUE_SEED = 0


def import_repro():
    """Put the checkout's ``src`` on the path and import the package."""
    src = REPO_ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise ImportError(f"no repro package under {src}; run from a full checkout")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import repro

    return repro


def all_shapes() -> Dict[str, object]:
    """Every shape any workload sends, by benchmark name.

    Q3 is diamond-X; Q3, Q4 and Q8 plan as hybrid (hash join over WCO
    sub-plans) on the benchmark graph, Q1, Q5 and the tailed triangle as WCO.
    """
    from repro.query import catalog_queries as cq

    return {
        "Q1": cq.q1(),
        "Q3": cq.q3(),
        "Q4": cq.q4(),
        "Q5": cq.q5(),
        "tailed": cq.tailed_triangle(),
        "Q8": cq.q8(),
    }


def load_graph(scale: float = DATASET_SCALE):
    """Generate the benchmark graph afresh (the dataset cache is bypassed so a
    repeated set-up pays generation every time)."""
    from repro import datasets

    return datasets.load(DATASET, scale=scale, seed=DATASET_SEED, use_cache=False)


def compute_oracle(graph) -> Dict[str, int]:
    """Full match counts with the serial iterator engine."""
    from repro import GraphflowDB

    db = GraphflowDB(graph)
    db.build_catalogue(z=CATALOGUE_Z, seed=CATALOGUE_SEED)
    return {
        name: db.execute(query, vectorized=False).num_matches
        for name, query in all_shapes().items()
    }


def load_oracle(graph, scale: float) -> Dict[str, int]:
    """Expected full counts for ``graph``: the committed file at the
    benchmark scale (after checking it describes this graph), else computed."""
    if scale != DATASET_SCALE:
        return compute_oracle(graph)
    record = json.loads(ORACLE_PATH.read_text())
    expected = (record["num_vertices"], record["num_edges"])
    if (graph.num_vertices, graph.num_edges) != expected:
        raise RuntimeError(
            f"benchmark graph has |V|,|E| = {graph.num_vertices},{graph.num_edges}; "
            f"the oracle was computed for {expected[0]},{expected[1]}"
        )
    return dict(record["counts"])


def write_oracle() -> None:
    graph = load_graph()
    record = {
        "dataset": DATASET,
        "scale": DATASET_SCALE,
        "dataset_seed": DATASET_SEED,
        "num_vertices": graph.num_vertices,
        "num_edges": graph.num_edges,
        "engine": "serial iterator (GraphflowDB.execute, vectorized=False)",
        "counts": compute_oracle(graph),
    }
    ORACLE_PATH.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(record, indent=2))


if __name__ == "__main__":
    import_repro()
    if sys.argv[1:] != ["--write-oracle"]:
        sys.exit("usage: python3 perfbench/shapes.py --write-oracle")
    write_oracle()
