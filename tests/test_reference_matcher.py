"""The test suite's reference matcher, cross-checked.

``brute_force_count`` (neighbour-driven backtracking) is the oracle most
executor tests compare against; ``exhaustive_count`` enumerates every
assignment and is obviously correct but slow.  They must agree under both
homomorphism and isomorphism semantics on small random graphs, labeled ones
and ones with parallel multi-label edges included.
"""

import numpy as np
import pytest

from repro.graph.builder import GraphBuilder
from repro.graph.generators import erdos_renyi
from repro.query import catalog_queries as cq
from repro.query.query_graph import QueryGraph
from tests.conftest import brute_force_count, exhaustive_count


def _labeled_multigraph(seed: int):
    """Random graph with two vertex labels, two edge labels, reciprocal
    pairs and parallel edges that differ only in their label."""
    rng = np.random.default_rng(seed)
    builder = GraphBuilder()
    for v in range(9):
        builder.add_vertex(v, int(rng.integers(0, 2)))
    for _ in range(34):
        s, d = (int(x) for x in rng.integers(0, 9, size=2))
        if s != d:
            builder.add_edge(s, d, int(rng.integers(0, 2)))
    builder.add_edge(1, 2, 0)
    builder.add_edge(1, 2, 1)
    builder.add_edge(2, 1, 0)
    return builder.build(name=f"labeled-multi-{seed}")


GRAPHS = {
    "er-10-a": lambda: erdos_renyi(10, 32, seed=1),
    "er-10-b": lambda: erdos_renyi(10, 45, seed=2),
    "labeled-multi": lambda: _labeled_multigraph(5),
}

QUERIES = {
    "triangle": cq.triangle(),
    "directed-3-cycle": cq.directed_3cycle(),
    "tailed-triangle": cq.tailed_triangle(),
    "diamond-x": cq.diamond_x(),
    "4-cycle": cq.q2(),
    "4-clique": cq.q5(),
    "bowtie": cq.q8(),
    "acyclic-tree": cq.q11(),
    "labeled-path": QueryGraph(
        [("a", "b", 0), ("b", "c", 1)], vertex_labels={"a": 0, "c": 1}
    ),
    "reciprocal": QueryGraph([("a", "b"), ("b", "a"), ("b", "c")]),
    "disconnected": QueryGraph([("a", "b"), ("c", "d", 1)]),
}


@pytest.mark.parametrize("isomorphism", [False, True], ids=["hom", "iso"])
@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("query_name", sorted(QUERIES))
def test_neighbour_driven_matches_exhaustive(graph_name, query_name, isomorphism):
    graph = GRAPHS[graph_name]()
    query = QUERIES[query_name]
    expected = exhaustive_count(graph, query, isomorphism=isomorphism)
    assert brute_force_count(graph, query, isomorphism=isomorphism) == expected
