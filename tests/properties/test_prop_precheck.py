"""Property: pre-checker verdicts agree with ground-truth execution.

The static pre-checker (repro.analysis.precheck) triages queries on the
specification graph alone, so its claims must hold for *every* run:

* **empty** — both strategies return zero bindings when the query is
  actually executed;
* **invalid / index-too-deep** — no value that reached the port in a real
  run carries an index that deep (the propagated depth is exact under the
  paper's Section 3.1 assumptions, which the executor satisfies);
* **viable** — execution proceeds and, whenever it produces bindings, the
  producing processors are within the statically computed reachable focus
  (the contrapositive of the empty proof).

And because the upstream closure is memoized per port on the workflow's
``DepthAnalysis``, a report served from the memo must equal the report a
fresh graph walk yields, in any call order.
"""

import random

from hypothesis import assume, given, settings, strategies as st

from repro.analysis.precheck import precheck_query, upstream_processors
from repro.provenance.store import TraceStore
from repro.query.base import LineageQuery
from repro.query.indexproj import IndexProjEngine
from repro.query.naive import NaiveEngine
from repro.values import nested
from repro.values.index import Index
from repro.workflow.depths import propagate_depths
from repro.workflow.model import PortRef

from tests.conftest import (
    estimated_instances,
    make_random_workflow,
    run_random_case,
)

seeds = st.integers(min_value=0, max_value=10_000)


def random_static_query(case, analysis, rng: random.Random) -> LineageQuery:
    """A random query chosen *statically* — unlike the agreement test's
    generator it does not look at captured values, so it freely produces
    empty-answer, disconnected-focus, and over-deep-index queries."""
    flow = case.flow
    candidates = [
        (processor.name, port.name)
        for processor in flow.processors
        for port in processor.outputs
    ]
    candidates.extend((flow.name, port.name) for port in flow.outputs)
    node, port = rng.choice(candidates)
    depth = analysis.depth_of(PortRef(node, port))
    length = rng.randint(0, depth + 2)
    index = Index.of([rng.randint(0, 2) for _ in range(length)])
    pool = list(flow.processor_names)
    focus = rng.sample(pool, rng.randint(0, len(pool)))
    return LineageQuery.create(node, port, index, focus)


def execute_both(case, captured, query):
    with TraceStore() as store:
        store.insert_trace(captured.trace)
        naive = NaiveEngine(store).lineage(captured.run_id, query)
        indexproj = IndexProjEngine(store, case.flow).lineage(
            captured.run_id, query
        )
    return naive, indexproj


class TestPrecheckAgreement:
    @settings(max_examples=60, deadline=None)
    @given(seeds, st.integers(min_value=0, max_value=99))
    def test_verdicts_agree_with_execution(self, seed, query_seed):
        case = make_random_workflow(seed)
        assume(estimated_instances(case) <= 200)
        analysis = propagate_depths(case.flow)
        rng = random.Random(query_seed * 6151 + seed)
        query = random_static_query(case, analysis, rng)
        report = precheck_query(analysis, query)

        captured = run_random_case(case)

        if report.is_invalid:
            # Statically generated queries always use real names, so the
            # only possible rejection is an over-deep index — and then no
            # value that actually reached the port can be that deep.
            assert all(i.kind == "index-too-deep" for i in report.issues)
            value = captured.result.port_values.get(
                PortRef(query.node, query.port)
            )
            if value is not None:
                deepest = max(
                    (len(leaf) for leaf, _ in nested.enumerate_leaves(value)),
                    default=0,
                )
                assert len(query.index) > deepest, (
                    f"seed={seed} rejected index {query.index.encode()!r} "
                    f"but a {deepest}-deep value reached {query.node}:"
                    f"{query.port}"
                )
            return

        naive, indexproj = execute_both(case, captured, query)
        if report.is_empty:
            assert not naive.bindings and not indexproj.bindings, (
                f"seed={seed} provably-empty {query} returned bindings"
            )
        else:
            # Viable: every produced binding belongs to the statically
            # reachable part of the focus set.  (Full NI/INDEXPROJ answer
            # agreement is only guaranteed for indexes that denote values
            # existing in the run — test_prop_agreement covers that; the
            # static generator also emits depth-legal but out-of-range
            # indexes, where the strategies' answers legitimately differ.)
            produced = {b.node for b in naive.bindings} | {
                b.node for b in indexproj.bindings
            }
            assert produced <= set(report.reachable_focus), (
                f"seed={seed} bindings outside reachable focus on {query}"
            )

    @settings(max_examples=40, deadline=None)
    @given(seeds)
    def test_nonempty_answers_are_never_rejected(self, seed):
        """Contrapositive: a query with actual results is always viable."""
        case = make_random_workflow(seed)
        assume(estimated_instances(case) <= 200)
        analysis = propagate_depths(case.flow)
        captured = run_random_case(case)
        rng = random.Random(seed)

        # Query the workflow output with the full focus set and an index
        # drawn from a real leaf — the best chance of a non-empty answer.
        flow = case.flow
        binding = PortRef(flow.name, flow.outputs[0].name)
        value = captured.result.port_values.get(binding)
        assume(value is not None)
        leaves = list(nested.enumerate_leaves(value))
        assume(leaves)
        leaf_index, _ = rng.choice(leaves)
        cut = rng.randint(0, len(leaf_index))
        query = LineageQuery.create(
            binding.node, binding.port, list(leaf_index)[:cut],
            flow.processor_names,
        )
        naive, _ = execute_both(case, captured, query)
        report = precheck_query(analysis, query)
        if naive.bindings:
            assert report.is_viable
            assert {b.node for b in naive.bindings} <= set(
                report.reachable_focus
            )

    @settings(max_examples=40, deadline=None)
    @given(seeds)
    def test_upstream_closure_is_sound(self, seed):
        """Every processor that ever contributes a binding to the workflow
        output is in the statically computed upstream closure."""
        case = make_random_workflow(seed)
        assume(estimated_instances(case) <= 200)
        captured = run_random_case(case)
        flow = case.flow
        binding = PortRef(flow.name, flow.outputs[0].name)
        closure = upstream_processors(flow, binding)
        query = LineageQuery.create(
            binding.node, binding.port, (), flow.processor_names
        )
        naive, _ = execute_both(case, captured, query)
        assert {b.node for b in naive.bindings} <= closure

    @settings(max_examples=60, deadline=None)
    @given(seeds, st.integers(min_value=0, max_value=99))
    def test_memoized_closure_equals_fresh_walk(self, seed, query_seed):
        """Differential: reports served through the closure memo of a
        shared DepthAnalysis equal those of an analysis that has walked
        nothing yet, whatever was asked before — viable, empty and
        invalid queries, each asked twice, in both orders."""
        case = make_random_workflow(seed)
        flow = case.flow
        out = flow.outputs[0].name
        names = flow.processor_names
        rng = random.Random(query_seed * 7919 + seed)
        probe = propagate_depths(flow)
        queries = [random_static_query(case, probe, rng) for _ in range(6)]
        queries += [
            LineageQuery.create(flow.name, out, (), names),  # viable
            LineageQuery.create(flow.name, out, (), ()),  # empty focus
            LineageQuery.create(flow.name, "no-such-port", (), names),
            LineageQuery.create(flow.name, out, (), ["no-such-processor"]),
        ]

        reference = {}
        for query in queries:
            report = precheck_query(propagate_depths(flow), query)
            reference[query] = report
            if report.is_invalid or not query.focus:
                assert report.reachable_focus == frozenset()
                continue
            # The reference itself is tied to the bare graph walk.
            walked = upstream_processors(
                flow, PortRef(query.node, query.port)
            )
            assert report.reachable_focus == query.focus & walked
            assert report.is_empty == (not query.focus & walked)
        verdicts = {report.verdict for report in reference.values()}
        assert verdicts == {"viable", "empty", "invalid"}

        for order in (queries, queries[::-1]):
            shared = propagate_depths(flow)
            for _ in range(2):
                for query in order:
                    assert precheck_query(shared, query) == reference[query], (
                        f"seed={seed} {query}"
                    )
