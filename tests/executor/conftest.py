"""Fixtures shared by the executor tests."""

import pytest

from repro.storage.dynamic import DynamicGraph


@pytest.fixture(scope="module")
def dirty_snapshot(random_graph):
    """A GraphSnapshot with a live delta overlay (inserts + deletes + a new
    labeled vertex) over the shared random graph."""
    dynamic = DynamicGraph(random_graph)
    dynamic.add_vertices(labels=[0])
    n = random_graph.num_vertices
    inserts = [(v, (v * 7 + 1) % n, 0) for v in range(0, n, 3)]
    inserts = [e for e in inserts if e[0] != e[1] and not random_graph.has_edge(*e)]
    dynamic.add_edges(inserts)
    existing = list(
        zip(
            random_graph.edge_src.tolist(),
            random_graph.edge_dst.tolist(),
            random_graph.edge_labels.tolist(),
        )
    )
    dynamic.delete_edges(existing[:40])
    return dynamic.snapshot()
