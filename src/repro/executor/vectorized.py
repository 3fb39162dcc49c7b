"""Batch-at-a-time (morsel/columnar) plan execution.

The iterator pipeline in :mod:`repro.executor.operators` processes one bound
tuple per Python ``yield``, so interpreter overhead — not intersection cost —
dominates runtimes.  The operators here exchange 2-D ``int64`` NumPy frames
instead: each frame holds a batch of partial matches, one row per match, with
columns aligned to the plan node's ``out_vertices`` order.

* :class:`BatchScanOperator` slices edge batches straight out of the graph's
  edge arrays and verifies extra (parallel/reciprocal) query edges with a
  vectorized membership test over sorted adjacency keys.
* :class:`BatchExtendIntersectOperator` groups each batch by its
  adjacency-key columns (lexsort + boundary detection, the explicit form of
  ``np.unique(axis=0)``), so the single-entry intersection cache of paper
  Section 3.1 generalises to one intersection per *distinct* key instead of
  one per consecutive duplicate.  Extensions for the distinct keys are
  computed without a per-tuple Python loop: the most selective adjacency list
  of every key is gathered with one ragged CSR gather, and every other
  descriptor is applied as a vectorized binary-search membership filter
  (galloping at batch scale).  Isomorphism violations are filtered with
  broadcast compares against the prefix columns, and the ``(prefix x
  extension)`` product is expanded with ``np.repeat`` + ragged gathers.
* :class:`BatchHashJoinOperator` concatenates the build side into one frame,
  sorts it by an encoded join key, and probes whole columnar batches with a
  single ``searchsorted`` per batch.

Match *counts* are identical to the iterator pipeline on every plan; only the
order in which matches are produced may differ (each batch is sorted by its
adjacency-key columns).

Counting runs (``collect=False`` and no ``output_limit``) mark the root
operator ``count_only``: for each input frame it emits a zero-width frame
whose row count is the number of rows it would have produced, and builds
none of them (paper Section 3.2.3: a count need not enumerate its matches).
``num_matches``, deadlines and all profile counters then work unchanged.

* A root E/I counts ``prefix rows x extensions`` from the per-group
  extension counts; under isomorphism it subtracts the pairs whose extension
  value equals one of the row's prefix values, found with one batched binary
  search per prefix column.
* A root hash join without a post-filter (homomorphism and no uncovered
  query edge) counts the matched build rows of each probe row.  A root join
  that must post-filter, every non-root operator, and collecting or LIMIT
  runs build their rows as before.

Batch-grouping invariants — what the operators assume of their inputs and
guarantee of their outputs:

* every adjacency structure consumed (``graph.csr(...)`` partitions and
  ``graph.adjacency_key_array(...)``) has **sorted per-vertex runs** and a
  **globally sorted key array**; all membership tests are binary searches
  over them, so any graph-like provider must preserve that ordering;
* within one E/I invocation, rows are lexsorted by their adjacency-key
  columns so equal keys are consecutive, ``group_of_row`` is non-decreasing,
  and the per-group extension lists come back with non-decreasing group ids
  and sorted values — the ragged expansion gathers index directly into that
  layout;
* expansion is chunked (``_expansion_segments``) so no output frame grows far
  beyond ``batch_size`` rows regardless of per-row fanout, bounding peak
  memory multiplicatively through an operator chain.

The operators are deliberately agnostic about *which* graph object provides
the columnar arrays: an immutable :class:`~repro.graph.graph.Graph` serves
its flat CSR partitions, and a dirty
:class:`~repro.storage.snapshot.GraphSnapshot` serves lazily merged
per-partition views with the same ordering contracts — so the batch engine
runs directly on dirty snapshots of a :class:`DynamicGraph` without any
synchronous compaction on the query path (delta-merge invariants in
:mod:`repro.storage.delta`).
"""

from __future__ import annotations

import time
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import DeadlineExceededError, PlanError
from repro.executor.operators import (
    ExecutionConfig,
    resolve_extend_descriptors,
    resolve_hash_join,
    scan_edge_arrays,
)
from repro.executor.profile import ExecutionProfile
from repro.graph.graph import ANY_LABEL, Direction, Graph
from repro.graph.intersect import intersect_multiway
from repro.planner.plan import ExtendNode, HashJoinNode, Plan, PlanNode, ScanNode

_EMPTY_I64 = np.array([], dtype=np.int64)

# Composite hash-join keys are packed into one int64 code; beyond this many
# bits JoinTable falls back to dense codes looked up through a Python dict.
_CODE_BITS = 62


def _ragged_positions(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Flat gather positions for ragged segments.

    Segment ``i`` contributes ``counts[i]`` consecutive positions beginning at
    ``starts[i]``; the result concatenates all segments in order.
    """
    total = int(counts.sum())
    if total == 0:
        return _EMPTY_I64
    ends = np.cumsum(counts)
    inner = np.arange(total, dtype=np.int64) - np.repeat(ends - counts, counts)
    return np.repeat(starts, counts) + inner


def _group_runs(
    sorted_keys: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Runs of identical consecutive entries in a sorted key array.

    Accepts a 1-D code array or a 2-D row-wise key matrix; returns
    ``(starts, counts, group_of_row)`` where ``starts``/``counts`` describe
    each run and ``group_of_row`` maps every row to its run index.
    """
    n = sorted_keys.shape[0]
    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), empty.copy()
    keys = sorted_keys.reshape(n, -1)
    boundary = np.empty(n, dtype=bool)
    boundary[0] = True
    boundary[1:] = np.any(keys[1:] != keys[:-1], axis=1)
    group_of_row = np.cumsum(boundary) - 1
    starts = np.flatnonzero(boundary)
    counts = np.diff(np.append(starts, n))
    return starts, counts, group_of_row


def _expansion_segments(counts: np.ndarray, cap: int) -> Iterator[Tuple[int, int]]:
    """Split rows into contiguous ``(start, end)`` segments whose summed
    expansion counts stay within ``cap``.

    Bounds the size of expanded output frames (and therefore peak memory and
    the multiplicative frame growth through an operator chain) regardless of
    per-row fanout; a single row whose own count exceeds ``cap`` still forms a
    one-row segment.
    """
    n = len(counts)
    cumulative = np.cumsum(counts)
    start = 0
    while start < n:
        base = int(cumulative[start - 1]) if start else 0
        end = int(np.searchsorted(cumulative, base + cap, side="right"))
        end = max(end, start + 1)
        yield start, min(end, n)
        start = end


def _membership(sorted_keys: np.ndarray, probe: np.ndarray) -> np.ndarray:
    """Vectorized ``probe in sorted_keys`` via binary search."""
    out = np.zeros(len(probe), dtype=bool)
    if len(sorted_keys) == 0 or len(probe) == 0:
        return out
    loc = np.searchsorted(sorted_keys, probe)
    valid = loc < len(sorted_keys)
    out[valid] = sorted_keys[loc[valid]] == probe[valid]
    return out


def _occurrences(sorted_keys: np.ndarray, probe: np.ndarray) -> int:
    """How many entries of ``sorted_keys`` equal a ``probe`` value, summed
    over ``probe`` (a key repeated in ``sorted_keys`` counts every copy)."""
    hits = probe[_membership(sorted_keys, probe)]
    if not len(hits):
        return 0
    right = np.searchsorted(sorted_keys, hits, side="right")
    return int((right - np.searchsorted(sorted_keys, hits)).sum())


class BatchOperator:
    """Base class of batch operators; subclasses implement :meth:`frames`."""

    #: Set on the root of a counting run (see the module docstring): emit
    #: zero-width frames whose row count is the number of rows the operator
    #: would have produced.
    count_only = False

    def __init__(
        self,
        node: PlanNode,
        graph: Graph,
        profile: ExecutionProfile,
        config: ExecutionConfig,
        is_root: bool,
    ) -> None:
        self.node = node
        self.graph = graph
        self.profile = profile
        self.config = config
        self.is_root = is_root

    def frames(self) -> Iterator[np.ndarray]:  # pragma: no cover - abstract
        raise NotImplementedError

    def _account(self, rows: int) -> None:
        if self.is_root:
            self.profile.output_matches += rows
        else:
            self.profile.record_intermediate(rows)

    def _check_deadline(self) -> None:
        if (
            self.config.deadline is not None
            and time.monotonic() > self.config.deadline
        ):
            raise DeadlineExceededError(
                f"query deadline exceeded in {type(self).__name__}"
            )

    def _yield_frame(self, name: str, frame: np.ndarray) -> np.ndarray:
        """Shared per-frame accounting before a frame is handed upstream."""
        rows = frame.shape[0]
        self._account(rows)
        self.profile.record_batch()
        self.profile.record_operator(name, out=rows, batches=1)
        return frame


class BatchScanOperator(BatchOperator):
    """Emits edge batches sliced directly from the graph's edge arrays."""

    def __init__(self, node: ScanNode, *args, **kwargs) -> None:
        super().__init__(node, *args, **kwargs)
        self.scan_node = node
        query = node.sub_query
        edge = node.edge
        self._extra_edges = [
            e
            for e in query.edges
            if not (e.src == edge.src and e.dst == edge.dst and e.label == edge.label)
        ]
        self._reversed = node.out_vertices[0] != edge.src
        self._name = node.display_name()

    def frames(self) -> Iterator[np.ndarray]:
        src, dst = scan_edge_arrays(self.scan_node, self.graph, self.config)
        edge = self.scan_node.edge
        n_vertices = self.graph.num_vertices
        batch = max(1, self.config.batch_size)
        for start in range(0, len(src), batch):
            self._check_deadline()
            t0 = time.perf_counter()
            u = src[start:start + batch]
            v = dst[start:start + batch]
            mask = np.ones(len(u), dtype=bool)
            if self.config.isomorphism:
                mask &= u != v
            for extra in self._extra_edges:
                s, d = (u, v) if extra.src == edge.src else (v, u)
                keys = self.graph.adjacency_key_array(
                    Direction.FORWARD, extra.label, ANY_LABEL
                )
                mask &= _membership(keys, s * n_vertices + d)
            if not mask.all():
                u, v = u[mask], v[mask]
            frame = np.stack((v, u) if self._reversed else (u, v), axis=1)
            self.profile.record_operator_time(self._name, time.perf_counter() - t0)
            if frame.shape[0]:
                yield self._yield_frame(self._name, frame)


class BatchExtendIntersectOperator(BatchOperator):
    """EXTEND/INTERSECT over columnar batches, grouped by adjacency keys."""

    def __init__(self, node: ExtendNode, child: BatchOperator, *args, **kwargs) -> None:
        super().__init__(node, *args, **kwargs)
        self.extend_node = node
        self.child = child
        self._resolved: List[Tuple[int, Direction, Optional[int]]] = (
            resolve_extend_descriptors(node, child.node.out_vertices)
        )
        self._to_label = node.to_vertex_label
        self._key_idx = np.array([idx for idx, _, _ in self._resolved], dtype=np.int64)
        self._csrs = [
            self.graph.csr(direction, edge_label, self._to_label)
            for _, direction, edge_label in self._resolved
        ]
        index = self.config.triangle_index
        self._index_applicable = (
            index is not None
            and len(self._resolved) == 2
            and self._to_label is None
            and all(edge_label is None for _, _, edge_label in self._resolved)
        )
        self._name = node.display_name()

    # ------------------------------------------------------------------ #
    def _adj_keys(self, descriptor: int) -> np.ndarray:
        _, direction, edge_label = self._resolved[descriptor]
        return self.graph.adjacency_key_array(direction, edge_label, self._to_label)

    def _extensions_vectorized(
        self, unique_keys: np.ndarray, group_sizes: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Extension candidates for every distinct key row.

        Returns ``(group_ids, values)`` with ``group_ids`` non-decreasing and
        values sorted within each group.  The most selective adjacency list of
        every key seeds the candidates (one ragged CSR gather per descriptor
        partition); every other descriptor is applied as a vectorized
        binary-search membership filter.
        """
        num_desc = len(self._resolved)
        n_vertices = self.graph.num_vertices
        cols = [unique_keys[:, j] for j in range(num_desc)]
        degrees = np.stack(
            [csr.indptr[c + 1] - csr.indptr[c] for csr, c in zip(self._csrs, cols)],
            axis=1,
        )
        accessed = degrees.sum(axis=1)
        if self.config.enable_intersection_cache:
            self.profile.record_intersection(int(accessed.sum()))
        else:
            # Without the cache the iterator recomputes per duplicate tuple;
            # mirror that in the i-cost accounting.
            self.profile.record_intersection(int((accessed * group_sizes).sum()))
        seed_choice = np.argmin(degrees, axis=1)
        group_parts: List[np.ndarray] = []
        value_parts: List[np.ndarray] = []
        for d in range(num_desc):
            group_ids = np.flatnonzero(seed_choice == d)
            if group_ids.size == 0:
                continue
            csr = self._csrs[d]
            from_vertices = cols[d][group_ids]
            counts = csr.indptr[from_vertices + 1] - csr.indptr[from_vertices]
            if int(counts.sum()) == 0:
                continue
            positions = _ragged_positions(csr.indptr[from_vertices], counts)
            values = csr.indices[positions]
            groups = np.repeat(group_ids, counts)
            mask = np.ones(len(values), dtype=bool)
            for e in range(num_desc):
                if e == d:
                    continue
                probe = cols[e][groups] * n_vertices + values
                mask &= _membership(self._adj_keys(e), probe)
            group_parts.append(groups[mask])
            value_parts.append(values[mask])
        if not group_parts:
            return _EMPTY_I64, _EMPTY_I64
        groups = np.concatenate(group_parts)
        values = np.concatenate(value_parts)
        if len(group_parts) > 1:
            order = np.argsort(groups, kind="stable")
            groups, values = groups[order], values[order]
        return groups, values

    def _extensions_per_key(
        self, unique_keys: np.ndarray, group_sizes: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-distinct-key path used when a triangle index is configured:
        each key is answered with an index lookup when covered, falling back
        to an ordinary multiway intersection."""
        index = self.config.triangle_index
        (idx_a, dir_a, _), (idx_b, dir_b, _) = self._resolved[0], self._resolved[1]
        group_parts: List[np.ndarray] = []
        value_parts: List[np.ndarray] = []
        for gid in range(unique_keys.shape[0]):
            key = unique_keys[gid]
            extension = index.lookup(int(key[0]), int(key[1]), dir_a, dir_b)
            if extension is not None:
                self.profile.record_index_hit()
            else:
                lists = []
                accessed = 0
                for j, (_, direction, _) in enumerate(self._resolved):
                    adj = self._csrs[j].neighbors(int(key[j]))
                    accessed += len(adj)
                    lists.append(adj)
                weight = 1 if self.config.enable_intersection_cache else int(group_sizes[gid])
                self.profile.record_intersection(accessed * weight)
                extension = lists[0] if len(lists) == 1 else intersect_multiway(lists)
            if len(extension):
                group_parts.append(np.full(len(extension), gid, dtype=np.int64))
                value_parts.append(np.asarray(extension, dtype=np.int64))
        if not group_parts:
            return _EMPTY_I64, _EMPTY_I64
        return np.concatenate(group_parts), np.concatenate(value_parts)

    def _prefix_collisions(
        self,
        rows: np.ndarray,
        group_of_row: np.ndarray,
        groups: np.ndarray,
        values: np.ndarray,
    ) -> int:
        """How many ``(row, extension)`` pairs the isomorphism filter drops:
        extension values equal to one of the row's own prefix values.

        ``groups * n + values`` is sorted (group ids non-decreasing, values
        sorted within a group), so each prefix column costs one batched
        binary search.  The prefix values of a row are pairwise distinct, so
        an extension value equals at most one of them and the per-column
        counts add up exactly.
        """
        n = self.graph.num_vertices
        codes = groups * n + values
        offsets = group_of_row * n
        return sum(_occurrences(codes, offsets + rows[:, j]) for j in range(rows.shape[1]))

    # ------------------------------------------------------------------ #
    def _process(self, frame: np.ndarray) -> Iterator[np.ndarray]:
        n = frame.shape[0]
        key_cols = frame[:, self._key_idx]
        # Sort rows so equal adjacency keys become consecutive, then find the
        # group boundaries (np.unique(axis=0) without the overhead).
        order = np.lexsort(key_cols[:, ::-1].T)
        sorted_frame = frame[order]
        keys = sorted_frame[:, self._key_idx]
        starts, group_sizes, group_of_row = _group_runs(keys)
        unique_keys = keys[starts]
        num_groups = len(starts)
        if self.config.enable_intersection_cache:
            # Grouping generalises the single-entry cache: every duplicate of
            # a distinct key is served from the one computed intersection.
            self.profile.cache_hits += int(n - num_groups)
            self.profile.cache_misses += int(num_groups)
        if self._index_applicable:
            groups, values = self._extensions_per_key(unique_keys, group_sizes)
        else:
            groups, values = self._extensions_vectorized(unique_keys, group_sizes)
        counts_per_group = (
            np.bincount(groups, minlength=num_groups)
            if len(groups)
            else np.zeros(num_groups, dtype=np.int64)
        )
        row_counts = counts_per_group[group_of_row]
        total = int(row_counts.sum())
        if total == 0:
            return
        if self.count_only:
            if self.config.isomorphism:
                total -= self._prefix_collisions(sorted_frame, group_of_row, groups, values)
            if total:
                yield np.empty((total, 0), dtype=np.int64)
            return
        # Expand (prefix x extension): repeat each sorted row by its group's
        # extension count and gather the matching candidate segment.  The
        # expansion is chunked so no output frame grows far beyond
        # ``batch_size`` rows, whatever the per-row fanout.
        segment_starts = np.concatenate(([0], np.cumsum(counts_per_group)[:-1]))
        first = segment_starts[group_of_row]
        for lo, hi in _expansion_segments(row_counts, max(1, self.config.batch_size)):
            counts = row_counts[lo:hi]
            total = int(counts.sum())
            if total == 0:
                continue
            prefix = sorted_frame[np.repeat(np.arange(lo, hi), counts)]
            extension = values[_ragged_positions(first[lo:hi], counts)]
            if self.config.isomorphism:
                mask = np.ones(total, dtype=bool)
                for j in range(frame.shape[1]):
                    mask &= prefix[:, j] != extension
                if not mask.all():
                    prefix, extension = prefix[mask], extension[mask]
            if prefix.shape[0]:
                yield np.concatenate([prefix, extension[:, None]], axis=1)

    def frames(self) -> Iterator[np.ndarray]:
        for frame in self.child.frames():
            self._check_deadline()
            t0 = time.perf_counter()
            for out in self._process(frame):
                self.profile.record_operator_time(self._name, time.perf_counter() - t0)
                yield self._yield_frame(self._name, out)
                self._check_deadline()
                t0 = time.perf_counter()
            self.profile.record_operator_time(self._name, time.perf_counter() - t0)


class JoinTable:
    """A hash-join build side, sorted once into a probe-ready table.

    The composite join key of every build row is packed into one ``int64``
    code (mixed radix ``num_vertices``); rows are stable-sorted by code so
    equal keys form one run, and each probe batch is then matched with a
    single vectorized binary search over the distinct codes.  Keys too wide
    to pack in 62 bits get dense codes instead: the distinct key rows are
    kept and probes map through a Python dict (unreachable for realistic
    graph sizes, kept for safety).

    The one constructor, :meth:`from_rows`, serves both the serial
    :class:`BatchHashJoinOperator` and the parallel coordinators, which build
    the table once per query and share it with every probe morsel (in memory
    for threads, as spooled ``.npy`` arrays for worker processes).
    """

    def __init__(
        self,
        codes: np.ndarray,
        starts: np.ndarray,
        counts: np.ndarray,
        payload: np.ndarray,
        wide_keys: Optional[np.ndarray] = None,
        radix: int = 1,
    ) -> None:
        self.codes = codes  # sorted distinct key codes
        self.starts = starts  # first sorted-payload row of each code's run
        self.counts = counts  # run length of each code
        self.payload = payload  # build payload columns, sorted by code
        self.wide_keys = wide_keys  # distinct key rows when codes are dense
        self.radix = radix
        self._wide_index: Optional[dict] = None

    @property
    def entries(self) -> int:
        return int(self.payload.shape[0])

    def to_arrays(self) -> Dict[str, np.ndarray]:
        """The arrays that fully describe the table (the process pool spools
        them as ``.npy`` files for its workers to map)."""
        arrays = {
            "codes": self.codes,
            "starts": self.starts,
            "counts": self.counts,
            "payload": self.payload,
            "radix": np.array([self.radix], dtype=np.int64),
        }
        if self.wide_keys is not None:
            arrays["wide_keys"] = self.wide_keys
        return arrays

    @classmethod
    def from_arrays(cls, arrays: Dict[str, np.ndarray]) -> "JoinTable":
        """Inverse of :meth:`to_arrays` (the arrays may be read-only maps)."""
        return cls(
            arrays["codes"],
            arrays["starts"],
            arrays["counts"],
            arrays["payload"],
            arrays.get("wide_keys"),
            int(arrays["radix"][0]),
        )

    @staticmethod
    def _pack(key_cols: np.ndarray, radix: int) -> np.ndarray:
        codes = key_cols[:, 0].astype(np.int64, copy=True)
        for j in range(1, key_cols.shape[1]):
            codes = codes * radix + key_cols[:, j]
        return codes

    @classmethod
    def from_rows(cls, node: HashJoinNode, rows: np.ndarray, num_vertices: int) -> "JoinTable":
        """Sort the build side of ``node`` (2-D ``int64`` rows in its build
        child's ``out_vertices`` order) into a table keyed by the join
        vertices and carrying the build-only columns."""
        import math

        key_idx, _, payload_idx, _ = resolve_hash_join(node)
        radix = max(num_vertices, 1)
        key_cols = rows[:, key_idx]
        wide_keys = None
        if len(key_idx) * math.log2(max(num_vertices, 2)) < _CODE_BITS:
            codes = cls._pack(key_cols, radix) if rows.shape[0] else _EMPTY_I64
        else:
            wide_keys, codes = np.unique(key_cols, axis=0, return_inverse=True)
            codes = codes.reshape(-1).astype(np.int64)
        order = np.argsort(codes, kind="stable")
        sorted_codes = codes[order]
        starts, counts, _ = _group_runs(sorted_codes)
        return cls(
            sorted_codes[starts], starts, counts, rows[order][:, payload_idx], wide_keys, radix
        )

    def encode(self, key_cols: np.ndarray) -> np.ndarray:
        """Probe-side key codes; a wide key absent from the build side maps
        to ``-1``, which no table code equals."""
        if self.wide_keys is None:
            return self._pack(key_cols, self.radix)
        if self._wide_index is None:
            self._wide_index = {
                tuple(row): code for code, row in enumerate(self.wide_keys.tolist())
            }
        index = self._wide_index
        return np.fromiter(
            (index.get(tuple(row), -1) for row in key_cols.tolist()),
            dtype=np.int64,
            count=key_cols.shape[0],
        )

    def match(self, key_cols: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(probe rows with a match, their run starts, their run lengths)``
        for a batch of probe key columns."""
        if len(self.codes) == 0 or key_cols.shape[0] == 0:
            return _EMPTY_I64, _EMPTY_I64, _EMPTY_I64
        probe_codes = self.encode(key_cols)
        loc = np.searchsorted(self.codes, probe_codes)
        valid = loc < len(self.codes)
        hit = np.zeros(len(probe_codes), dtype=bool)
        hit[valid] = self.codes[loc[valid]] == probe_codes[valid]
        rows = np.flatnonzero(hit)
        matched = loc[rows]
        return rows, self.starts[matched], self.counts[matched]


class BatchHashJoinOperator(BatchOperator):
    """Hash join over columnar batches.

    The build side is concatenated into one frame and sorted into a
    :class:`JoinTable` (or arrives prebuilt from a parallel coordinator);
    every probe batch is then matched with a single vectorized binary search
    and expanded with ragged gathers.
    """

    def __init__(
        self,
        node: HashJoinNode,
        build: Optional[BatchOperator],
        probe: BatchOperator,
        *args,
        table: Optional[JoinTable] = None,
        **kwargs,
    ) -> None:
        super().__init__(node, *args, **kwargs)
        self.join_node = node
        self.build_child = build
        self.probe_child = probe
        _, probe_key_idx, payload_idx, self._filter_edges = resolve_hash_join(node)
        self._probe_key_idx = np.array(probe_key_idx, dtype=np.int64)
        # Isomorphism: the probe columns of a row are already pairwise
        # distinct, and so are the build row's key and payload columns (the
        # key values equal the probe's), so only non-key probe columns can
        # collide with payload columns.
        probe_width = len(node.probe.out_vertices)
        self._iso_pairs = [
            (i, probe_width + j)
            for i in range(probe_width)
            if i not in probe_key_idx
            for j in range(len(payload_idx))
        ]
        self._name = node.display_name()
        self.table = table

    # ------------------------------------------------------------------ #

    def _post_filter(self, out: np.ndarray) -> np.ndarray:
        mask = np.ones(out.shape[0], dtype=bool)
        if self.config.isomorphism:
            for i, j in self._iso_pairs:
                mask &= out[:, i] != out[:, j]
        n_vertices = self.graph.num_vertices
        for src_idx, dst_idx, label in self._filter_edges:
            keys = self.graph.adjacency_key_array(Direction.FORWARD, label, ANY_LABEL)
            mask &= _membership(keys, out[:, src_idx] * n_vertices + out[:, dst_idx])
        return out if mask.all() else out[mask]

    def frames(self) -> Iterator[np.ndarray]:
        table = self.table
        if table is None:
            build = concat_frames(
                list(self.build_child.frames()), len(self.join_node.build.out_vertices)
            )
            t0 = time.perf_counter()
            table = JoinTable.from_rows(self.join_node, build, self.graph.num_vertices)
            self.profile.record_hash_table(self._name, table.entries)
            self.profile.record_operator_time(self._name, time.perf_counter() - t0)

        # Without a post-filter every (probe row, build match) pair is an
        # output row, so a counting root needs only the run lengths.
        count_pairs = (
            self.count_only and not self.config.isomorphism and not self._filter_edges
        )
        for probe_frame in self.probe_child.frames():
            self._check_deadline()
            t0 = time.perf_counter()
            self.profile.hash_probes += probe_frame.shape[0]
            rows, match_starts, match_counts = table.match(
                probe_frame[:, self._probe_key_idx]
            )
            if count_pairs:
                total = int(match_counts.sum())
                self.profile.record_operator_time(self._name, time.perf_counter() - t0)
                if total:
                    yield self._yield_frame(self._name, np.empty((total, 0), dtype=np.int64))
                continue
            # Chunk the expansion so heavily duplicated join keys cannot blow
            # up a single output frame (same bound as the E/I operator).
            for lo, hi in _expansion_segments(match_counts, max(1, self.config.batch_size)):
                counts = match_counts[lo:hi]
                probe_expanded = probe_frame[np.repeat(rows[lo:hi], counts)]
                payload = table.payload[_ragged_positions(match_starts[lo:hi], counts)]
                out = self._post_filter(np.concatenate([probe_expanded, payload], axis=1))
                if out.shape[0]:
                    self.profile.record_operator_time(self._name, time.perf_counter() - t0)
                    yield self._yield_frame(self._name, out)
                    self._check_deadline()
                    t0 = time.perf_counter()
            self.profile.record_operator_time(self._name, time.perf_counter() - t0)


def concat_frames(frames: List[np.ndarray], width: int) -> np.ndarray:
    """Concatenate ``frames`` in order into one ``(rows, width)`` frame."""
    if not frames:
        return np.empty((0, width), dtype=np.int64)
    return frames[0] if len(frames) == 1 else np.concatenate(frames, axis=0)


def build_batch_operator_tree(
    node: PlanNode,
    graph: Graph,
    profile: ExecutionProfile,
    config: ExecutionConfig,
    is_root: bool = True,
    join_tables: Optional[Dict[int, JoinTable]] = None,
) -> BatchOperator:
    """Recursively wire batch operators for a plan subtree.

    ``join_tables`` maps ``id(HashJoinNode)`` to that join's prebuilt table
    (parallel execution); such a join probes it instead of wiring and running
    its build sub-plan.
    """
    tables = join_tables or {}
    if isinstance(node, ScanNode):
        return BatchScanOperator(node, graph, profile, config, is_root)
    if isinstance(node, ExtendNode):
        child = build_batch_operator_tree(node.child, graph, profile, config, False, tables)
        return BatchExtendIntersectOperator(node, child, graph, profile, config, is_root)
    if isinstance(node, HashJoinNode):
        table = tables.get(id(node))
        build = (
            build_batch_operator_tree(node.build, graph, profile, config, False, tables)
            if table is None
            else None
        )
        probe = build_batch_operator_tree(node.probe, graph, profile, config, False, tables)
        return BatchHashJoinOperator(
            node, build, probe, graph, profile, config, is_root, table=table
        )
    raise PlanError(f"unknown plan node type: {type(node).__name__}")


def execute_plan_vectorized(
    plan: Plan,
    graph: Graph,
    config: Optional[ExecutionConfig] = None,
    collect: bool = False,
    join_tables: Optional[Dict[int, JoinTable]] = None,
):
    """Run ``plan`` with the batch-at-a-time engine.

    Semantics match :func:`repro.executor.pipeline.execute_plan`: deadlines
    are checked per batch, ``output_limit`` truncates the final frame, and
    counting runs never materialise matches.
    """
    from repro.executor.pipeline import ExecutionResult

    config = config or ExecutionConfig(vectorized=True)
    profile = ExecutionProfile()
    root = build_batch_operator_tree(
        plan.root, graph, profile, config, is_root=True, join_tables=join_tables
    )
    root.count_only = not collect and config.output_limit is None
    frames: Optional[List[np.ndarray]] = [] if collect else None
    count = 0
    truncated = False
    deadline_exceeded = False
    start = time.perf_counter()
    try:
        for frame in root.frames():
            count += frame.shape[0]
            if collect:
                frames.append(frame)  # type: ignore[union-attr]
            if config.output_limit is not None and count >= config.output_limit:
                overshoot = count - config.output_limit
                if overshoot and collect:
                    frames[-1] = frames[-1][: frame.shape[0] - overshoot]  # type: ignore[index]
                count = config.output_limit
                truncated = True
                break
            if config.deadline is not None and time.monotonic() > config.deadline:
                truncated = True
                deadline_exceeded = True
                break
    except DeadlineExceededError:
        truncated = True
        deadline_exceeded = True
    profile.elapsed_seconds = time.perf_counter() - start
    profile.output_matches = count
    matches: Optional[List[Tuple[int, ...]]] = None
    if collect:
        matches = [tuple(row) for f in frames for row in f.tolist()]  # type: ignore[union-attr]
    return ExecutionResult(
        plan=plan,
        num_matches=count,
        profile=profile,
        matches=matches,
        vertex_order=tuple(plan.root.out_vertices),
        truncated=truncated,
        deadline_exceeded=deadline_exceeded,
    )
