"""INDEXPROJ — lineage by workflow-graph traversal (Alg. 2, Section 3.3).

The strategy splits a lineage query into the two steps the paper times
separately (Section 4):

* **(s1) planning** — traverse the *workflow specification graph* upstream
  from the query port, applying the index projection rule at every
  processor to carry the query index backwards; record one
  :class:`TraceQuery` per input port of every focus processor met.  No
  trace access happens in this step, so its cost depends only on the size
  of the specification graph.
* **(s2) execution** — run each planned trace query (``Q(P, X_i, p_i)`` in
  Alg. 2) against the store: one indexed lookup per focus input port, per
  run in scope.

Because (s1) is independent of run data, a plan is shared by all runs of a
multi-run query (Section 3.4) and cached across repeated queries on the
same workflow ("it is feasible to cache the nodes visited in one query to
speed up their access in subsequent queries").  It is independent of the
index *values* too — the projection rule slices by static offsets — so
the traversal runs on position ranges and yields a :class:`PlanShape`
per ``(port, |index|, focus)``; a :class:`QueryPlan` is a shape bound to
one query's index.
"""

from __future__ import annotations

import contextvars
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.engine.events import Binding
from repro.obs.core import NO_OBS, Observability
from repro.provenance.store import StoreStats, TraceStore
from repro.query.base import LineageQuery, LineageResult, MultiRunResult
from repro.query.projection import project_output_range
from repro.values.index import Index
from repro.workflow.depths import DepthAnalysis, propagate_depths
from repro.workflow.model import Dataflow, PortRef


@dataclass(frozen=True)
class TraceQuery:
    """One planned trace lookup: ``Q(processor, port, fragment)``."""

    processor: str
    port: str
    fragment: Index

    def __str__(self) -> str:
        return f"Q({self.processor}, {self.port}, [{self.fragment.encode()}])"


@dataclass
class QueryPlan:
    """The outcome of step (s1) for one query."""

    query: LineageQuery
    trace_queries: Tuple[TraceQuery, ...]
    visited_ports: int

    def __len__(self) -> int:
        return len(self.trace_queries)


#: One planned lookup with its fragment left symbolic: ``(processor,
#: port, lo, hi)`` stands for ``Q(processor, port, q[lo:hi])`` of whatever
#: query index ``q`` the shape is later bound to.
PlanTemplate = Tuple[str, str, int, int]


@dataclass(frozen=True)
class PlanShape:
    """The outcome of step (s1) for every query index of one length.

    The traversal only slices the query index by static offsets (Prop. 1),
    so what it plans depends on the target port, the focus set and
    ``len(index)`` — never on the positions.  ``visited_ports`` counts the
    (port, range) states the traversal expanded.
    """

    templates: Tuple[PlanTemplate, ...]
    visited_ports: int

    def bind(self, query: LineageQuery) -> QueryPlan:
        """Substitute the query's index values into the templates.

        Two ranges may carry the same value (index ``[1.1]``: ``q[0:1]``
        and ``q[1:2]``); the trace queries they bind to are one lookup,
        kept at its first position.
        """
        index = query.index
        planned: Dict[TraceQuery, None] = {}  # insertion-ordered set
        for processor, port, lo, hi in self.templates:
            planned.setdefault(
                TraceQuery(processor, port, index.slice(lo, hi - lo))
            )
        return QueryPlan(
            query=query,
            trace_queries=tuple(planned),
            visited_ports=self.visited_ports,
        )


def build_shape(
    analysis: DepthAnalysis,
    node: str,
    port: str,
    arity: int,
    focus: FrozenSet[str],
) -> PlanShape:
    """Traverse the specification graph and plan the trace lookups.

    Pure function of the static analysis and the query *form* — never
    touches the store, never sees an index value.  Follows Alg. 2 with the
    query index carried as a position range: at a processor output port,
    project the range onto the input ports (querying the trace is
    *deferred* into the shape when the processor is in focus) and continue
    from each input port; at an input port or a workflow output port,
    follow the incoming arc.
    """
    flow = analysis.flow
    planned: Dict[PlanTemplate, None] = {}  # insertion-ordered set
    visited: Set[Tuple[str, str, int, int]] = set()
    stack: List[Tuple[PortRef, int, int]] = [(PortRef(node, port), 0, arity)]
    while stack:
        ref, lo, hi = stack.pop()
        key = (ref.node, ref.port, lo, hi)
        if key in visited:
            continue
        visited.add(key)
        if ref.node == flow.name:
            # Workflow-level port: outputs have incoming arcs; inputs are
            # the traversal's terminal nodes.
            arc = flow.incoming_arc(ref)
            if arc is not None:
                stack.append((arc.source, lo, hi))
            continue
        processor = flow.processor(ref.node)
        if processor.has_output(ref.port):
            for port_name, frag_lo, frag_hi in project_output_range(
                analysis, ref.node, lo, hi
            ):
                if ref.node in focus:
                    planned.setdefault(
                        (ref.node, port_name, frag_lo, frag_hi)
                    )
                stack.append((PortRef(ref.node, port_name), frag_lo, frag_hi))
        else:
            arc = flow.incoming_arc(ref)
            if arc is not None:
                stack.append((arc.source, lo, hi))
    return PlanShape(templates=tuple(planned), visited_ports=len(visited))


def build_plan(analysis: DepthAnalysis, query: LineageQuery) -> QueryPlan:
    """Step (s1) for one query: its shape, bound to its index."""
    return build_shape(
        analysis, query.node, query.port, len(query.index), query.focus
    ).bind(query)


class IndexProjEngine:
    """Alg. 2 over a trace store, with plan caching.

    The static depth analysis is computed once per engine (the paper's
    offline pre-processing, Fig. 8) and exposed as
    ``preprocess_seconds``.
    """

    def __init__(
        self,
        store: TraceStore,
        flow: Dataflow,
        analysis: Optional[DepthAnalysis] = None,
        cache_plans: bool = True,
        obs: Optional[Observability] = None,
        trace_cache: Optional[Any] = None,
        plan_registry: Optional[Any] = None,
        fingerprint: Optional[str] = None,
    ) -> None:
        self.store = store
        #: Optional :class:`repro.query.compiled.PlanRegistry` shared with
        #: the owning service; lazily created on first compiled execution
        #: when absent.  ``fingerprint`` identifies the workflow in plan
        #: keys and is derived from the flow when not injected.
        self.plan_registry = plan_registry
        self.fingerprint = fingerprint
        self._flow = flow
        #: Optional :class:`repro.cache.trace.TraceReadCache`: when set,
        #: every s2 lookup goes through it, so repeated (run, processor,
        #: port, fragment) lookups are answered without touching the
        #: store.  It mirrors the store's lookup signatures, making it a
        #: drop-in reader.
        self.trace_cache = trace_cache
        self._reader: Any = trace_cache if trace_cache is not None else store
        #: Observability handle (``repro.obs``): every (s1)/(s2) timing
        #: below is derived from its spans, so the numbers in results and
        #: in a ``--profile`` span tree are the same measurement.
        self.obs = obs if obs is not None else NO_OBS
        with self.obs.timer("indexproj.preprocess", workflow=flow.name) as t:
            self.analysis = (
                analysis
                if analysis is not None
                else propagate_depths(flow.flattened())
            )
        #: Time spent running Alg. 1 (zero when a prebuilt analysis is
        #: injected); part of the paper's pre-processing cost.
        self.preprocess_seconds = t.seconds
        self.cache_plans = cache_plans
        #: Shapes, not plans: keyed on the query form, so the cache is
        #: bounded by the forms a workflow admits, not by index values.
        self._plan_cache: Dict[
            Tuple[str, str, int, frozenset], PlanShape
        ] = {}

    # ------------------------------------------------------------------

    def plan(self, query: LineageQuery) -> Tuple[QueryPlan, float]:
        """Step (s1): return the (possibly cached) plan and its build time.

        The cache holds :class:`PlanShape` objects keyed on the query
        form ``(node, port, |index|, focus)``; a hit pays only the bind —
        which is exactly the saving the paper attributes to sharing the
        traversal across queries and runs.  Hits and misses land in
        the ``indexproj.plan_cache_hits`` / ``..._misses`` counters.
        """
        key = (query.node, query.port, len(query.index), query.focus)
        with self.obs.timer("indexproj.plan", query=str(query)) as span:
            shape = self._plan_cache.get(key) if self.cache_plans else None
            hit = shape is not None
            if shape is None:
                shape = build_shape(self.analysis, *key)
                if self.cache_plans:
                    self._plan_cache[key] = shape
            plan = shape.bind(query)
        if self.obs.enabled:
            self.obs.inc(
                "indexproj.plan_cache_hits"
                if hit
                else "indexproj.plan_cache_misses"
            )
            span.set(
                cache="hit" if hit else "miss",
                trace_queries=len(plan),
                visited_ports=plan.visited_ports,
            )
        return plan, span.seconds

    def execute_plan(
        self,
        plan: QueryPlan,
        run_id: str,
        stats: Optional[StoreStats] = None,
    ) -> List[Binding]:
        """Step (s2): run the planned lookups against one run's trace.

        Per-:class:`TraceQuery` lookup latency is sampled into the
        ``indexproj.trace_lookup_seconds`` histogram when observability is
        enabled.
        """
        stats = stats if stats is not None else StoreStats()
        obs = self.obs
        collected: Dict[Tuple[str, str, str], Binding] = {}
        for trace_query in plan.trace_queries:
            lookup_started = time.perf_counter() if obs.enabled else 0.0
            for binding in self._reader.find_xform_inputs_matching(
                run_id,
                trace_query.processor,
                trace_query.port,
                trace_query.fragment,
                stats,
            ):
                collected[binding.key()] = binding
            if obs.enabled:
                obs.inc("indexproj.trace_lookups")
                obs.observe(
                    "indexproj.trace_lookup_seconds",
                    time.perf_counter() - lookup_started,
                )
        return sorted(collected.values(), key=lambda b: b.key())

    # ------------------------------------------------------------------

    def lineage(
        self,
        run_id: str,
        query: LineageQuery,
        stats: Optional[StoreStats] = None,
    ) -> LineageResult:
        """Answer one query over one run: plan, then execute."""
        stats = stats if stats is not None else StoreStats()
        plan, plan_seconds = self.plan(query)
        with self.obs.timer("indexproj.execute", run=run_id) as timer:
            bindings = self.execute_plan(plan, run_id, stats)
        lookup_seconds = timer.seconds
        return LineageResult(
            query=query,
            run_id=run_id,
            bindings=bindings,
            stats=stats,
            traversal_seconds=plan_seconds,
            lookup_seconds=lookup_seconds,
        )

    def lineage_multirun_batched(
        self,
        run_ids: Iterable[str],
        query: LineageQuery,
        chunk_size: Optional[int] = None,
    ) -> MultiRunResult:
        """Set-based multi-run execution: the full ``plan × run-set``
        key grid resolves in ``O(ceil(keys/chunk))`` SQL round-trips.

        Beyond the paper's per-run loop (which :meth:`lineage_multirun`
        implements at ``len(plan) * runs`` round-trips): every
        ``(run, TraceQuery)`` pair becomes one key of a single batched
        :meth:`~repro.provenance.store.TraceStore.find_xform_inputs_matching_many`
        call, and the rows are demultiplexed per run afterwards.  Answers
        are identical per run; the per-run results share one
        :class:`StoreStats` (use
        :meth:`~repro.query.base.MultiRunResult.aggregate_stats` to total
        them without multi-counting).
        """
        scope = list(run_ids)
        plan, plan_seconds = self.plan(query)
        stats = StoreStats()
        grid: List[Tuple[str, str, str, Index]] = [
            (run_id, tq.processor, tq.port, tq.fragment)
            for run_id in scope
            for tq in plan.trace_queries
        ]
        collected: Dict[str, Dict[Tuple[str, str, str], Binding]] = {
            run_id: {} for run_id in scope
        }
        with self.obs.timer(
            "indexproj.execute_batched", runs=len(scope), keys=len(grid)
        ) as timer:
            answers = self._reader.find_xform_inputs_matching_many(
                grid, stats, chunk_size=chunk_size
            )
            for run_id, node, port, index in grid:
                bucket = collected[run_id]
                for binding in answers[(run_id, node, port, index.encode())]:
                    bucket[binding.key()] = binding
        elapsed = timer.seconds
        if self.obs.enabled:
            self.obs.inc("indexproj.trace_lookups", len(grid))
            self.obs.inc("indexproj.batched_keys", len(grid))
        per_run_results: Dict[str, LineageResult] = {}
        for run_id in scope:
            per_run_results[run_id] = LineageResult(
                query=query,
                run_id=run_id,
                bindings=sorted(collected[run_id].values(), key=lambda b: b.key()),
                stats=stats,
                traversal_seconds=0.0,
                lookup_seconds=elapsed / max(len(scope), 1),
            )
        return MultiRunResult(
            query=query,
            per_run=per_run_results,
            traversal_seconds=plan_seconds,
            lookup_seconds=elapsed,
            wall_seconds=plan_seconds + elapsed,
        )

    def _compiled_registry(self) -> Any:
        if self.plan_registry is None:
            # Local import: repro.query.compiled imports build_plan from
            # this module, so the dependency must stay lazy here.
            from repro.query.compiled import PlanRegistry

            self.plan_registry = PlanRegistry(self.store, obs=self.obs)
        return self.plan_registry

    def _workflow_fingerprint(self) -> str:
        if self.fingerprint is None:
            from repro.cache import workflow_fingerprint

            self.fingerprint = workflow_fingerprint(self._flow)
        return self.fingerprint

    def lineage_multirun_compiled(
        self,
        run_ids: Iterable[str],
        query: LineageQuery,
        chunk_size: Optional[int] = None,
    ) -> MultiRunResult:
        """Execute a compiled program: warm plans skip (s1) entirely.

        The registry returns the pre-compiled
        :class:`~repro.query.compiled.CompiledPlan` for this query shape
        (compiling on first sight or after a generation bump); execution
        is then the bare minimum — bind the query's index values into the
        shape's templates, cross the bound lookups with the run scope and
        hand the grid to the store's compiled primitive, which binds
        against prepared statements.  Answers are
        identical to :meth:`lineage_multirun` /
        :meth:`lineage_multirun_batched`, per run.
        """
        scope = list(run_ids)
        registry = self._compiled_registry()
        hits_before = registry.hits
        with self.obs.timer("indexproj.plan", query=str(query)) as plan_timer:
            plan = registry.get_or_compile(
                self.analysis, query, self._workflow_fingerprint()
            )
        plan_seconds = plan_timer.seconds
        lookups = plan.bind(query.index)
        if self.obs.enabled:
            plan_timer.set(
                cache="hit" if registry.hits > hits_before else "miss",
                trace_queries=len(lookups),
                visited_ports=plan.visited_ports,
                execution="compiled",
            )
        stats = StoreStats()
        pairs = [(run_id, lookup) for run_id in scope for lookup in lookups]
        collected: Dict[str, Dict[Tuple[str, str, str], Binding]] = {
            run_id: {} for run_id in scope
        }
        with self.obs.timer("indexproj.execute", runs=len(scope)) as timer:
            if pairs:
                answers = self._reader.find_xform_inputs_matching_compiled(
                    pairs, stats, chunk_size=chunk_size
                )
                for run_id, lookup in pairs:
                    bucket = collected[run_id]
                    for binding in answers[
                        (run_id, lookup[0], lookup[1], lookup[2])
                    ]:
                        bucket[binding.key()] = binding
        elapsed = timer.seconds
        if self.obs.enabled:
            self.obs.inc("indexproj.trace_lookups", len(pairs))
            self.obs.inc("indexproj.compiled_keys", len(pairs))
        per_run_results: Dict[str, LineageResult] = {}
        for run_id in scope:
            per_run_results[run_id] = LineageResult(
                query=query,
                run_id=run_id,
                bindings=sorted(
                    collected[run_id].values(), key=lambda b: b.key()
                ),
                stats=stats,
                traversal_seconds=0.0,
                lookup_seconds=elapsed / max(len(scope), 1),
            )
        return MultiRunResult(
            query=query,
            per_run=per_run_results,
            traversal_seconds=plan_seconds,
            lookup_seconds=elapsed,
            wall_seconds=plan_seconds + elapsed,
        )

    def lineage_multirun(
        self, run_ids: Iterable[str], query: LineageQuery
    ) -> MultiRunResult:
        """One plan, executed once per run (Section 3.4).

        The trace-side cost is ``len(plan)`` lookups per run; the planning
        cost is paid exactly once regardless of how many runs are swept.
        """
        plan, plan_seconds = self.plan(query)
        per_run: Dict[str, LineageResult] = {}
        total_lookup = 0.0
        for run_id in run_ids:
            stats = StoreStats()
            with self.obs.timer("indexproj.execute", run=run_id) as timer:
                bindings = self.execute_plan(plan, run_id, stats)
            elapsed = timer.seconds
            total_lookup += elapsed
            per_run[run_id] = LineageResult(
                query=query,
                run_id=run_id,
                bindings=bindings,
                stats=stats,
                traversal_seconds=0.0,
                lookup_seconds=elapsed,
            )
        return MultiRunResult(
            query=query,
            per_run=per_run,
            traversal_seconds=plan_seconds,
            lookup_seconds=total_lookup,
            wall_seconds=plan_seconds + total_lookup,
        )

    def lineage_multirun_parallel(
        self,
        run_ids: Iterable[str],
        query: LineageQuery,
        max_workers: Optional[int] = None,
    ) -> MultiRunResult:
        """Parallel multi-run execution on a thread pool.

        The paper's Section 3.4 observation — one static traversal (s1) is
        shared by every run in scope — is here exploited for *throughput*:
        the single cached plan fans out across a ``ThreadPoolExecutor``,
        and each worker executes the per-run lookups (s2) on its own
        store connection.  Requires the store's concurrent read path
        (file-backed stores read genuinely in parallel; in-memory stores
        serialize internally, so parallelism degrades gracefully).

        Workers take contiguous chunks of the run list and execute the
        per-run lookups of their chunk sequentially — one worker, one
        store connection, many runs — so pool task overhead is paid per
        chunk, not per run, and the indexed per-run seeks (which SQLite
        executes off the GIL) overlap across workers.  Answers are
        identical to :meth:`lineage_multirun`, per run, regardless of
        worker count or scheduling order.
        """
        scope = list(run_ids)
        plan, plan_seconds = self.plan(query)
        if not scope:
            return MultiRunResult(
                query=query,
                per_run={},
                traversal_seconds=plan_seconds,
                lookup_seconds=0.0,
                wall_seconds=plan_seconds,
            )
        workers = max_workers if max_workers is not None else min(8, len(scope))
        workers = max(1, min(workers, len(scope)))
        chunk_size = (len(scope) + workers - 1) // workers
        chunks = [
            scope[i : i + chunk_size] for i in range(0, len(scope), chunk_size)
        ]

        def run_chunk(chunk: List[str]) -> List[LineageResult]:
            # Each chunk runs on a pool thread inside a copied context, so
            # its span nests under ``indexproj.parallel_fanout`` — one
            # request, one rooted tree, even across the fan-out.
            results: List[LineageResult] = []
            with self.obs.span("indexproj.chunk", runs=len(chunk)):
                for run_id in chunk:
                    stats = StoreStats()
                    with self.obs.timer(
                        "indexproj.execute", run=run_id
                    ) as timer:
                        bindings = self.execute_plan(plan, run_id, stats)
                    results.append(
                        LineageResult(
                            query=query,
                            run_id=run_id,
                            bindings=bindings,
                            stats=stats,
                            traversal_seconds=0.0,
                            lookup_seconds=timer.seconds,
                        )
                    )
            return results

        if self.obs.enabled:
            self.obs.inc("indexproj.multirun_runs", len(scope))
            self.obs.inc("indexproj.parallel_chunks", len(chunks))
        with self.obs.timer(
            "indexproj.parallel_fanout", workers=workers, runs=len(scope)
        ) as fanout_timer:
            if len(chunks) == 1:
                outcomes = [run_chunk(chunks[0])]
            else:
                # One context copy per chunk (a single Context cannot be
                # entered concurrently): each worker sees the fan-out span
                # as its parent and continues the same trace.
                tasks = [
                    (contextvars.copy_context(), chunk) for chunk in chunks
                ]
                with ThreadPoolExecutor(max_workers=workers) as pool:
                    outcomes = list(
                        pool.map(lambda t: t[0].run(run_chunk, t[1]), tasks)
                    )
        wall = fanout_timer.seconds

        per_run_results: Dict[str, LineageResult] = {}
        total_lookup = 0.0
        for chunk_results in outcomes:
            for result in chunk_results:
                total_lookup += result.lookup_seconds
                per_run_results[result.run_id] = result
        # Preserve the caller's run order in the result mapping.
        per_run_results = {
            run_id: per_run_results[run_id] for run_id in scope
        }
        return MultiRunResult(
            query=query,
            per_run=per_run_results,
            traversal_seconds=plan_seconds,
            lookup_seconds=total_lookup,
            wall_seconds=plan_seconds + wall,
        )
