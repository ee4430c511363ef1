"""The benchmark's own span recorder, wrapped around layer boundaries.

Spans are recorded from outside the program: :data:`BOUNDARIES` is a
fixed table of callables that sit on a layer boundary, and
:class:`Recorder` replaces each with a timing wrapper for the length of a
traced run.  A span is (id, parent, request, name, start, end) with the
parent carried in a ``contextvars`` variable, so it follows a request
across ``await`` and — because the traced run also copies the context
into every ``ThreadPoolExecutor.submit`` — onto worker threads.

Names resolve lazily.  A boundary that no longer exists (a later change
may delete an executor or a cache tier) is listed in ``missing`` and
reported as ``trace.boundaries_missing``; it never raises.

Spans stay in memory until :meth:`Recorder.dump`; clocks are
``time.perf_counter_ns`` (CLOCK_MONOTONIC: comparable across processes
on one machine, which is how the parent cuts the child's spans into
phases).
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import contextvars
import functools
import importlib
import itertools
import json
import time
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

#: (span name, module, dotted attribute path).  Span names start with the
#: module-style name of the layer their self time is charged to.
BOUNDARIES: Tuple[Tuple[str, str, str], ...] = (
    ("server.http.serialize.json", "repro.server.http", "Response.json"),
    ("server.http.serialize.bytes", "repro.server.http", "Response.serialize"),
    ("server.app.handle", "repro.server.app", "ServerApp.handle"),
    ("server.admission.run", "repro.server.admission", "AdmissionController.run"),
    ("server.registry.get", "repro.server.registry", "TenantRegistry.get"),
    ("server.codec.encode", "repro.server.app", "encode_result"),
    ("query.parser.parse", "repro.server.app", "parse_query"),
    ("query.parser.parse", "repro.service", "parse_query"),
    ("service.lineage", "repro.service", "ProvenanceService.lineage"),
    ("service.run", "repro.service", "ProvenanceService.run"),
    ("analysis.precheck.check", "repro.service", "precheck_query"),
    ("cache.results.get", "repro.cache.results", "LineageResultCache.get"),
    ("cache.results.put", "repro.cache.results", "LineageResultCache.put"),
    ("query.compiled.plan", "repro.query.compiled", "PlanRegistry.get_or_compile"),
    ("query.indexproj.run", "repro.query.indexproj", "IndexProjEngine.lineage_multirun"),
    ("query.indexproj.run", "repro.query.indexproj", "IndexProjEngine.lineage_multirun_batched"),
    ("query.indexproj.run", "repro.query.indexproj", "IndexProjEngine.lineage_multirun_compiled"),
    ("query.indexproj.run", "repro.query.indexproj", "IndexProjEngine.lineage_multirun_parallel"),
    ("query.naive.run", "repro.query.naive", "NaiveEngine.lineage_multirun"),
    ("query.naive.run", "repro.query.naive", "NaiveEngine.lineage_multirun_batched"),
    ("cache.trace.put", "repro.cache.trace", "TraceReadCache.put_many"),
    ("provenance.capture.run", "repro.service", "capture_run"),
    ("provenance.store.insert", "repro.provenance.store", "TraceStore.insert_trace"),
    ("provenance.store.generation_vector", "repro.provenance.store", "TraceStore.generation_vector"),
    ("storage.sharded.insert", "repro.storage.sharded", "ShardedStore.insert_trace"),
    ("storage.sharded.generation_vector", "repro.storage.sharded", "ShardedStore.generation_vector"),
)

#: Read primitives shared by the trace cache, the store and the sharded
#: store: the same method names on three classes, three layers.
READ_PRIMITIVES = (
    "find_xform_by_output", "xform_inputs", "find_xform_inputs_matching",
    "find_xform_inputs_matching_multi", "find_xfer_into",
    "find_xform_inputs_matching_many", "find_xform_inputs_matching_compiled",
    "find_xform_by_output_many", "xform_inputs_many", "find_xfer_into_many",
)
READERS = (
    ("cache.trace.read", "repro.cache.trace", "TraceReadCache"),
    ("provenance.store.read", "repro.provenance.store", "TraceStore"),
    ("storage.sharded.read", "repro.storage.sharded", "ShardedStore"),
)

#: Not wrapped (its span would include the keep-alive idle wait) but
#: replayed offline for ``server.http.parse_us_per_op``; listed so its
#: disappearance is reported like any other boundary's.
REPLAYED = (("server.http.parse", "repro.server.http", "read_request"),)

#: Span name of the function AdmissionController.run is handed; its start
#: minus the enclosing ``server.admission.run`` start is the queue wait.
ADMITTED_WORK = "server.app.work"

#: Root spans that begin a new request (others inherit the id in force).
REQUEST_ENTRIES = frozenset({"server.app.handle", "service.lineage", "service.run"})

Span = Tuple[int, Optional[int], int, str, int, int]

_current: contextvars.ContextVar = contextvars.ContextVar("e2e_span", default=None)
_request: contextvars.ContextVar = contextvars.ContextVar("e2e_request", default=0)


def all_boundaries() -> List[Tuple[str, str, str]]:
    table = list(BOUNDARIES)
    for name, module, cls in READERS:
        table.extend((name, module, f"{cls}.{method}") for method in READ_PRIMITIVES)
    return table


def _resolve(module: str, path: str) -> Tuple[Any, str, Any]:
    """(owner, attribute name, raw attribute as stored) or LookupError."""
    try:
        owner: Any = importlib.import_module(module)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        return owner, attr, vars(owner)[attr]
    except (ImportError, AttributeError, KeyError) as exc:
        raise LookupError(f"{module}.{path}") from exc


class Recorder:
    """Install/uninstall the wrappers; hold the spans."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.missing: List[str] = []
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._undo: List[Tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def _enter(self, name: str) -> Tuple[int, Optional[int], int, Any]:
        parent = _current.get()
        if parent is None and name in REQUEST_ENTRIES:
            # Left set after the span ends, so what the connection task
            # does next for this request (serialize) shares the id.
            _request.set(next(self._requests))
        span_id = next(self._ids)
        return span_id, parent, _request.get(), _current.set(span_id)

    def _wrap_sync(self, name: str, fn: Any) -> Any:
        spans, enter = self.spans, self._enter

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span_id, parent, request, token = enter(name)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                _current.reset(token)
                spans.append((span_id, parent, request, name, start, end))

        return wrapper

    def _wrap_async(self, name: str, fn: Any, wrap_first_arg: bool) -> Any:
        spans, enter = self.spans, self._enter

        @functools.wraps(fn)
        async def wrapper(self_, first, *args: Any, **kwargs: Any) -> Any:
            span_id, parent, request, token = enter(name)
            if wrap_first_arg:
                first = self._wrap_sync(ADMITTED_WORK, first)
            start = time.perf_counter_ns()
            try:
                return await fn(self_, first, *args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                _current.reset(token)
                spans.append((span_id, parent, request, name, start, end))

        return wrapper

    # -- installation --------------------------------------------------------

    def install(self) -> List[str]:
        """Wrap every boundary that exists; returns the missing ones."""
        for name, module, path in all_boundaries():
            try:
                owner, attr, raw = _resolve(module, path)
            except LookupError:
                self.missing.append(f"{module}.{path}")
                continue
            kind = type(raw)
            target = raw.__func__ if kind in (classmethod, staticmethod) else raw
            if asyncio.iscoroutinefunction(target):
                wrapped: Any = self._wrap_async(
                    name, target, wrap_first_arg=name == "server.admission.run"
                )
            else:
                wrapped = self._wrap_sync(name, target)
            if kind in (classmethod, staticmethod):
                wrapped = kind(wrapped)
            self._undo.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
        for _name, module, path in REPLAYED:
            try:
                _resolve(module, path)
            except LookupError:
                self.missing.append(f"{module}.{path}")
        # Carry the span context onto pool threads (the sharded store's
        # scatter-gather submits without copying it).
        submit = concurrent.futures.ThreadPoolExecutor.submit

        def submit_in_context(pool: Any, fn: Any, /, *args: Any, **kwargs: Any):
            context = contextvars.copy_context()
            return submit(pool, context.run, fn, *args, **kwargs)

        self._undo.append((concurrent.futures.ThreadPoolExecutor, "submit", submit))
        concurrent.futures.ThreadPoolExecutor.submit = submit_in_context
        return list(self.missing)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def dump(self, path: str) -> None:
        """Write the spans as JSONL (one array per span) plus a header."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"missing": self.missing}) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def load(path: str) -> Tuple[List[Span], List[str]]:
    with open(path, "r", encoding="utf-8") as handle:
        header = json.loads(handle.readline())
        spans = [tuple(json.loads(line)) for line in handle if line.strip()]
    return spans, list(header["missing"])  # type: ignore[return-value]


# -- analysis ----------------------------------------------------------------


def covered(intervals: Iterable[Tuple[int, int]], low: int, high: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[low, high]``."""
    total, reach = 0, low
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, high)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, int]:
    """span id -> duration minus the union of its children's intervals.

    Children may overlap each other (parallel shard reads) or run on
    another thread; only the part of the parent's interval that no child
    covers is the parent's own.
    """
    children: Dict[int, List[Tuple[int, int]]] = {}
    for _sid, parent, _req, _name, start, end in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    return {
        sid: (end - start) - covered(children.get(sid, ()), start, end)
        for sid, _parent, _req, _name, start, end in spans
    }


def within(spans: Sequence[Span], low_ns: int, high_ns: int) -> List[Span]:
    """Spans that started inside ``[low_ns, high_ns)``."""
    return [s for s in spans if low_ns <= s[4] < high_ns]
