"""Spans around the calls into each layer, recorded from the benchmark's own
code.

:class:`Tracer` wraps the public entry points of each module by patching the
name where its caller looks it up (a class attribute for methods, the
importing module's global for functions imported by name).  Each call becomes
one span — name, start, end, parent span, request id — kept in memory and
written out as JSON lines at the end of the run.  A request id and parent
travel from a client thread into the service's worker thread through the
service's executor ``submit``, so a request's spans form one tree across
threads.

Self time is a span's duration minus the part of its interval that its child
spans cover.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: (span name, dotted owner, attribute).  The owner is the object the caller
#: looks the name up on: a class for methods, the calling module for
#: functions it imported by name.
TARGETS: List[Tuple[str, str, str]] = [
    ("query.parse", "repro.api", "parse_query"),
    ("query.canonical", "repro.query.query_graph:QueryGraph", "canonical_key"),
    ("api.execute", "repro.api:GraphflowDB", "execute"),
    ("planner.plan", "repro.api:GraphflowDB", "plan"),
    ("planner.optimize", "repro.planner.dp_optimizer:DynamicProgrammingOptimizer", "optimize"),
    ("catalogue.build", "repro.api", "build_catalogue"),
    ("catalogue.sample", "repro.catalogue.estimation", "ensure_entry"),
    ("executor.execute", "repro.api", "execute_plan"),
    ("multiprocess.execute", "repro.executor.multiprocess:MorselProcessPool", "execute"),
    ("storage.snapshot", "repro.storage.dynamic:DynamicGraph", "snapshot"),
    ("storage.csr_merge", "repro.storage.snapshot:GraphSnapshot", "csr"),
    ("storage.csr_merge", "repro.storage.snapshot:GraphSnapshot", "adjacency_key_array"),
    ("storage.compact", "repro.storage.dynamic:DynamicGraph", "compact"),
    ("persistence.log", "repro.persistence.store:DurableGraphStore", "log_and_apply"),
    ("persistence.checkpoint", "repro.persistence.store:DurableGraphStore", "checkpoint"),
    ("obs.record", "repro.obs:Observability", "record_query"),
    ("obs.record", "repro.obs:Observability", "record_update"),
]


def _resolve(owner: str):
    import importlib

    module_name, _, class_name = owner.partition(":")
    obj = importlib.import_module(module_name)
    return getattr(obj, class_name) if class_name else obj


class Span:
    __slots__ = ("span_id", "name", "start", "end", "parent", "request", "thread", "phase")

    def __init__(self, span_id, name, start, parent, request, thread, phase):
        self.span_id = span_id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request
        self.thread = thread
        self.phase = phase

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {
            "id": self.span_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "request": self.request,
            "thread": self.thread,
            "phase": self.phase,
        }


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: Label stamped on every new span (set-up, traced window, teardown).
        self.phase = ""
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._originals: List[Tuple[object, str, object]] = []

    # -- context --------------------------------------------------------- #
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _current(self) -> Tuple[Optional[int], Optional[int]]:
        """(parent span id, request id) of the calling thread."""
        stack = self._stack()
        return (stack[-1].span_id, stack[-1].request) if stack else (None, None)

    def begin(self, name: str, request: Optional[int] = None) -> Span:
        parent, inherited = self._current()
        span = Span(
            next(self._ids),
            name,
            time.perf_counter(),
            parent,
            request if request is not None else inherited,
            threading.get_ident(),
            self.phase,
        )
        self._stack().append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)  # list.append is atomic under the GIL

    # -- patching -------------------------------------------------------- #
    def _wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(span)

        return traced

    def _carry(self, submit: Callable) -> Callable:
        """Wrap an executor's ``submit`` so the task runs under the caller's
        span (and request id) in the worker thread."""
        tracer = self

        @functools.wraps(submit)
        def carrying_submit(fn, *args, **kwargs):
            stack = list(tracer._stack()[-1:])

            def run(*a, **kw):
                tracer._local.stack = list(stack)
                try:
                    return fn(*a, **kw)
                finally:
                    tracer._local.stack = []

            return submit(run, *args, **kwargs)

        return carrying_submit

    def install(self, service=None) -> None:
        """Patch every target (and ``service``'s executor, when given)."""
        if self._originals:
            return
        for name, owner, attr in TARGETS:
            obj = _resolve(owner)
            original = obj.__dict__[attr] if isinstance(obj, type) else getattr(obj, attr)
            self._originals.append((obj, attr, original))
            setattr(obj, attr, self._wrap(name, getattr(obj, attr)))
        if service is not None:
            pool = service._pool
            self._originals.append((pool, "submit", None))
            pool.submit = self._carry(pool.submit)

    def uninstall(self) -> None:
        """Restore every patched name (in reverse order)."""
        while self._originals:
            obj, attr, original = self._originals.pop()
            if original is None:
                delattr(obj, attr)  # an instance attribute shadowing the class's
            else:
                setattr(obj, attr, original)

    # -- analysis -------------------------------------------------------- #
    def self_times(self) -> Dict[int, float]:
        """Span id -> duration minus the union of its children's intervals."""
        children: Dict[int, List[Span]] = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append(span)
        out: Dict[int, float] = {}
        for span in self.spans:
            covered = 0.0
            cursor = span.start
            for child in sorted(children.get(span.span_id, ()), key=lambda s: s.start):
                lo, hi = max(child.start, cursor), min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out[span.span_id] = span.duration - covered
        return out

    def summary(self, phase: str) -> Dict[str, dict]:
        """Per span name within ``phase``: calls, inclusive seconds (a span
        nested in a span of the same name counts once, through the outer
        one) and self seconds."""
        selfs = self.self_times()
        by_id = {span.span_id: span for span in self.spans}

        def nested_in_same_name(span: Span) -> bool:
            parent = by_id.get(span.parent)
            while parent is not None:
                if parent.name == span.name:
                    return True
                parent = by_id.get(parent.parent)
            return False

        out: Dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for span in self.spans:
            if span.phase != phase:
                continue
            entry = out[span.name]
            entry["self_s"] += selfs[span.span_id]
            if not nested_in_same_name(span):
                entry["calls"] += 1
                entry["total_s"] += span.duration
        return dict(out)

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.as_dict()) + "\n")
