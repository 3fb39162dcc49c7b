"""Shared fixtures and reference implementations for the test suite."""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Tuple

import pytest

from repro.graph.builder import GraphBuilder
from repro.graph.generators import clustered_social, complete_graph, erdos_renyi
from repro.graph.graph import Direction, Graph
from repro.query.query_graph import QueryGraph


# --------------------------------------------------------------------------- #
# timing helpers
# --------------------------------------------------------------------------- #
def wait_until(
    predicate: Callable[[], bool],
    timeout: float = 5.0,
    interval: float = 0.005,
) -> bool:
    """Poll ``predicate`` until it is truthy or ``timeout`` elapses.

    The standard alternative to a fixed ``time.sleep`` when a test waits on a
    background thread (compaction, catalogue refresh, checkpointing): it
    returns as soon as the condition holds, so tests are fast on quick
    machines and tolerant on slow ones.  Returns the predicate's final value
    so call sites read ``assert wait_until(...)``.
    """
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return bool(predicate())


# --------------------------------------------------------------------------- #
# reference matchers
# --------------------------------------------------------------------------- #
def _binding_order(query: QueryGraph) -> List[Tuple[str, Optional[tuple], List[tuple]]]:
    """Bind query vertices in a connected (BFS) order.

    Returns one ``(vertex, anchor, checks)`` step per query vertex: ``anchor``
    is ``(bound vertex, direction, edge label)`` — the query edge whose data
    neighbours supply the candidates (``None`` for the first vertex of each
    connected component) — and ``checks`` lists every other query edge
    ``(src, dst, label)`` closed by binding this vertex.
    """
    neighbours: Dict[str, List[str]] = {v: [] for v in query.vertices}
    for e in query.edges:
        neighbours[e.src].append(e.dst)
        neighbours[e.dst].append(e.src)
    order: List[str] = []
    for start in query.vertices:
        if start in order:
            continue
        order.append(start)
        visit = len(order) - 1
        while visit < len(order):  # BFS, using ``order`` as the queue
            order.extend(w for w in dict.fromkeys(neighbours[order[visit]]) if w not in order)
            visit += 1
    steps = []
    bound: set = set()
    for qv in order:
        anchor = None
        checks = []
        for e in query.edges:
            if e.src == qv and e.dst in bound:
                edge_anchor = (e.dst, Direction.BACKWARD, e.label)
            elif e.dst == qv and e.src in bound:
                edge_anchor = (e.src, Direction.FORWARD, e.label)
            else:
                continue
            if anchor is None:
                anchor = edge_anchor
            else:
                checks.append((e.src, e.dst, e.label))
        steps.append((qv, anchor, checks))
        bound.add(qv)
    return steps


def brute_force_count(
    graph: Graph, query: QueryGraph, isomorphism: bool = False
) -> int:
    """Count matches by neighbour-driven backtracking.

    Query vertices are bound in a connected order; each one takes its
    candidates from the data neighbours of an already-bound vertex along one
    query edge, and every other query edge it closes is verified with
    ``has_edge``.  Homomorphism semantics by default (matching the
    executor); pass ``isomorphism=True`` for injective matches.  Only
    suitable for small graphs.  :func:`exhaustive_count` is the
    assignment-enumerating cross-check.
    """
    steps = _binding_order(query)
    every_vertex = list(range(graph.num_vertices))
    neighbour_cache: Dict[tuple, List[int]] = {}
    assignment: Dict[str, int] = {}

    def candidates(anchor: Optional[tuple]) -> List[int]:
        if anchor is None:
            return every_vertex
        key = (assignment[anchor[0]],) + anchor[1:]
        if key not in neighbour_cache:
            found = graph.neighbors(key[0], key[1], key[2])
            neighbour_cache[key] = sorted({int(v) for v in found})
        return neighbour_cache[key]

    def extend(depth: int) -> int:
        if depth == len(steps):
            return 1
        qv, anchor, checks = steps[depth]
        label = query.vertex_label(qv)
        used = set(assignment.values()) if isomorphism else ()
        total = 0
        for v in candidates(anchor):
            if label is not None and graph.vertex_label(v) != label:
                continue
            if v in used:
                continue
            assignment[qv] = v
            if all(
                graph.has_edge(assignment[src], assignment[dst], edge_label)
                for src, dst, edge_label in checks
            ):
                total += extend(depth + 1)
        assignment.pop(qv, None)
        return total

    return extend(0)


def exhaustive_count(
    graph: Graph, query: QueryGraph, isomorphism: bool = False
) -> int:
    """Count matches by backtracking over all assignments of every query
    vertex to every data vertex (the slow, obviously-correct reference
    :func:`brute_force_count` is cross-checked against)."""
    vertices = list(query.vertices)
    candidates: Dict[str, List[int]] = {}
    for qv in vertices:
        label = query.vertex_label(qv)
        candidates[qv] = [
            v for v in range(graph.num_vertices) if label is None or graph.vertex_label(v) == label
        ]

    count = 0

    def backtrack(idx: int, assignment: Dict[str, int]) -> None:
        nonlocal count
        if idx == len(vertices):
            count += 1
            return
        qv = vertices[idx]
        for v in candidates[qv]:
            if isomorphism and v in assignment.values():
                continue
            assignment[qv] = v
            ok = True
            for e in query.edges:
                if e.src in assignment and e.dst in assignment:
                    if not graph.has_edge(assignment[e.src], assignment[e.dst], e.label):
                        ok = False
                        break
            if ok:
                backtrack(idx + 1, assignment)
            del assignment[qv]

    backtrack(0, {})
    return count


# --------------------------------------------------------------------------- #
# fixtures
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="session")
def tiny_graph() -> Graph:
    """A small hand-built graph with known triangles and diamonds.

    Edges: a 4-clique on {0,1,2,3} (acyclic orientation), a pendant path
    4 -> 5, and a reciprocal pair 1 <-> 4.
    """
    b = GraphBuilder()
    for i in range(4):
        for j in range(i + 1, 4):
            b.add_edge(i, j)
    b.add_edge(4, 5)
    b.add_edge(1, 4)
    b.add_edge(4, 1)
    return b.build(name="tiny")


@pytest.fixture(scope="session")
def labeled_graph() -> Graph:
    """A small graph with 2 vertex labels and 2 edge labels."""
    b = GraphBuilder()
    b.add_vertex(0, 0)
    b.add_vertex(1, 1)
    b.add_vertex(2, 0)
    b.add_vertex(3, 1)
    b.add_vertex(4, 0)
    b.add_edge(0, 1, 0)
    b.add_edge(1, 2, 1)
    b.add_edge(0, 2, 0)
    b.add_edge(2, 3, 1)
    b.add_edge(3, 4, 0)
    b.add_edge(0, 3, 1)
    b.add_edge(2, 4, 0)
    return b.build(name="tiny-labeled")


@pytest.fixture(scope="session")
def random_graph() -> Graph:
    """A 120-vertex Erdos-Renyi graph used for cross-checking plan results."""
    return erdos_renyi(120, 900, seed=42, name="er-120")


@pytest.fixture(scope="session")
def social_graph() -> Graph:
    """A clustered social-style graph with plenty of triangles."""
    return clustered_social(250, avg_degree=8, clustering=0.4, seed=3, name="social-250")


@pytest.fixture(scope="session")
def clique_graph() -> Graph:
    """Complete directed graph on 8 vertices (stress for clique queries)."""
    return complete_graph(8)
