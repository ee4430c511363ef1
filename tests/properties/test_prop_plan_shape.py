"""Property: a plan shape bound to an index is the concrete (s1) traversal.

``build_plan`` no longer walks the specification graph with the query
index in hand: it walks it once per query *form* with a position range
``(lo, hi)`` (``repro.query.indexproj.build_shape``) and substitutes the
index values afterwards.  The oracle below is the traversal as it was
written before — a concrete ``Index`` on the stack, the projection rule
spelled out with ``Index.slice``, the ``visited`` set keyed on the encoded
value — kept here, outside ``src/``, so the two are written independently.

What must hold, for every workflow, target port, focus set and index
(including partial and over-long ones, and indices over ``{0, 1}`` whose
fragments coincide):

* the same ``trace_queries`` tuple, in the same order — from
  ``build_plan`` and from ``CompiledPlan.bind``;
* ``visited_ports`` is never smaller than the oracle's, and equal whenever
  no two ranges carry the same value.  It now counts the ``(port, range)``
  states of the shape traversal; the oracle counts ``(port, value)``
  states, which merge when e.g. ``q[0:1] == q[1:2]``.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from hypothesis import given, settings, strategies as st

from repro.query.base import LineageQuery
from repro.query.compiled import compile_plan
from repro.query.indexproj import QueryPlan, TraceQuery, build_plan
from repro.service import ProvenanceService
from repro.testbed.generator import (
    FINAL_PROCESSOR,
    LIST_SIZE_INPUT,
    chain_product_workflow,
)
from repro.values.index import Index
from repro.workflow.depths import DepthAnalysis, propagate_depths
from repro.workflow.model import PortRef

from tests.conftest import make_random_workflow
from tests.properties.conftest import canonical
from tests.query.test_nested_subflow_lineage import build_nested

seeds = st.integers(min_value=0, max_value=10_000)


def concrete_plan(analysis: DepthAnalysis, query: LineageQuery) -> QueryPlan:
    """Alg. 2 with the index carried by value (the pre-shape traversal)."""
    flow = analysis.flow
    planned: Dict[TraceQuery, None] = {}
    visited: Set[Tuple[str, str, str]] = set()
    stack: List[Tuple[PortRef, Index]] = [
        (PortRef(query.node, query.port), query.index)
    ]
    while stack:
        ref, index = stack.pop()
        key = (ref.node, ref.port, index.encode())
        if key in visited:
            continue
        visited.add(key)
        if ref.node != flow.name and flow.processor(ref.node).has_output(
            ref.port
        ):
            usable = index.head(
                min(len(index), analysis.iteration_level(ref.node))
            )
            for layout in analysis.fragment_layout(ref.node):
                start = min(layout.offset, len(usable))
                end = min(layout.offset + layout.length, len(usable))
                fragment = usable.slice(start, end - start)
                if ref.node in query.focus:
                    planned.setdefault(
                        TraceQuery(ref.node, layout.port, fragment)
                    )
                stack.append((PortRef(ref.node, layout.port), fragment))
        else:
            arc = flow.incoming_arc(ref)
            if arc is not None:
                stack.append((arc.source, index))
    return QueryPlan(query, tuple(planned), len(visited))


def _targets(flow) -> List[PortRef]:
    refs = [PortRef(flow.name, port.name) for port in flow.outputs]
    for processor in flow.processors:
        refs.extend(
            PortRef(processor.name, port.name) for port in processor.outputs
        )
    return refs


def _check(analysis: DepthAnalysis, target: PortRef, index, focus) -> None:
    query = LineageQuery.create(target.node, target.port, index, focus)
    plan = build_plan(analysis, query)
    oracle = concrete_plan(analysis, query)
    label = f"{analysis.flow.name} {query}"
    assert plan.trace_queries == oracle.trace_queries, label
    # The compiled program binds the same templates to encoded strings.
    compiled = compile_plan(analysis, query, "fp")
    assert [lookup[:3] for lookup in compiled.bind(query.index)] == [
        (tq.processor, tq.port, tq.fragment.encode())
        for tq in oracle.trace_queries
    ], label
    assert plan.visited_ports >= oracle.visited_ports, label
    if len(set(index)) == len(index):
        # All positions differ, so distinct non-empty ranges differ in
        # value; empty ranges are one canonical state on both sides.
        assert plan.visited_ports == oracle.visited_ports, label


def _sweep(flow, focus) -> None:
    """Every target port × every {0,1} index of length 0..depth+2, plus
    one all-distinct index per length."""
    analysis = propagate_depths(flow)
    for target in _targets(flow):
        depth = analysis.depth_of(target)
        for length in range(depth + 3):
            indices = {
                tuple((bits >> i) & 1 for i in range(length))
                for bits in range(2 ** length)
            }
            indices.add(tuple(range(length)))
            for index in sorted(indices):
                _check(analysis, target, index, focus)


class TestShapeBindEqualsConcreteTraversal:
    @settings(max_examples=60, deadline=None)
    @given(seeds, st.data())
    def test_random_workflows(self, seed, data):
        flow = make_random_workflow(seed).flow
        names = list(flow.processor_names)
        some = data.draw(st.lists(st.sampled_from(names), unique=True))
        for focus in ([], names, some):
            _sweep(flow, focus)

    def test_chain_product(self):
        for length in (1, 3, 28):
            flow = chain_product_workflow(length)
            names = list(flow.processor_names)
            for focus in ([], names, names[::3]):
                _sweep(flow, focus)

    def test_nested_flow_through_flattened(self):
        flow = build_nested().flattened()
        names = list(flow.processor_names)
        assert "stage/clean" in names
        for focus in ([], names, ["stage/clean"]):
            _sweep(flow, focus)


class TestOneResidentPlanServesManyIndices:
    def test_compiled_interpreted_and_naive_agree(self):
        """Two different indices of one length execute against the same
        resident plan and answer exactly as the interpreter and NI do."""
        flow = chain_product_workflow(3)
        focus = list(flow.processor_names)
        with ProvenanceService(cache=False) as service:
            service.register_workflow(flow)
            for _ in range(2):
                service.run(flow.name, {LIST_SIZE_INPUT: 3})
            for index in ([0, 1], [2, 2], [1, 1]):
                query = LineageQuery.create(FINAL_PROCESSOR, "y", index, focus)
                compiled = service.lineage(query)
                interpreted = service.lineage(query, compiled=False)
                naive = service.lineage(query, strategy="naive")
                assert any(r.bindings for r in compiled.per_run.values())
                assert canonical(compiled) == canonical(interpreted), index
                assert canonical(compiled) == canonical(naive), index
            plans = service.cache_stats()["plans"]
            assert (plans["entries"], plans["misses"], plans["hits"]) == (1, 1, 2)
