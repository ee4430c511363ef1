"""Tests for the INDEXPROJ strategy (repro.query.indexproj)."""

import pytest

from repro.provenance.capture import capture_run
from repro.provenance.store import TraceStore
from repro.query.base import LineageQuery
from repro.query.indexproj import IndexProjEngine, TraceQuery, build_plan
from repro.values.index import Index
from repro.workflow.depths import propagate_depths

from tests.conftest import build_diamond_workflow, build_fig3_workflow


@pytest.fixture
def diamond():
    flow = build_diamond_workflow()
    captured = capture_run(flow, {"size": 3})
    with TraceStore() as store:
        store.insert_trace(captured.trace)
        yield flow, captured, store


class TestPlanning:
    def test_plan_is_store_free(self):
        analysis = propagate_depths(build_diamond_workflow())
        plan = build_plan(
            analysis, LineageQuery.create("F", "y", [1, 2], ["A", "B"])
        )
        assert set(plan.trace_queries) == {
            TraceQuery("A", "x", Index(1)),
            TraceQuery("B", "x", Index(2)),
        }

    def test_plan_covers_only_focus_processors(self):
        analysis = propagate_depths(build_diamond_workflow())
        plan = build_plan(
            analysis, LineageQuery.create("F", "y", [1, 2], ["GEN"])
        )
        assert {tq.processor for tq in plan.trace_queries} == {"GEN"}

    def test_plan_from_workflow_output(self):
        analysis = propagate_depths(build_diamond_workflow())
        plan = build_plan(
            analysis, LineageQuery.create("wf", "out", [0, 1], ["A", "B"])
        )
        assert set(plan.trace_queries) == {
            TraceQuery("A", "x", Index(0)),
            TraceQuery("B", "x", Index(1)),
        }

    def test_plan_index_projected_through_coarse_processor(self):
        analysis = propagate_depths(build_fig3_workflow())
        plan = build_plan(
            analysis, LineageQuery.create("P", "Y", [2, 1], ["Q", "R"])
        )
        assert set(plan.trace_queries) == {
            TraceQuery("Q", "X", Index(2)),   # fine through Q
            TraceQuery("R", "X", Index()),    # whole through R
        }

    def test_empty_focus_plans_no_queries(self):
        analysis = propagate_depths(build_diamond_workflow())
        plan = build_plan(analysis, LineageQuery.create("F", "y", [0, 0], []))
        assert plan.trace_queries == ()
        assert plan.visited_ports > 0  # traversal still walks the graph

    def test_visited_ports_bounded_by_graph(self):
        flow = build_diamond_workflow()
        analysis = propagate_depths(flow)
        plan = build_plan(
            analysis, LineageQuery.create("wf", "out", [0, 0], ["GEN"])
        )
        total_ports = len(list(flow.iter_port_refs()))
        # visited_ports counts (port, index range) states of the shape
        # traversal: at most one per port per range of a 2-position index
        # ([], [0:1], [1:2], [0:2]), and the same for every index value.
        assert 0 < plan.visited_ports <= 4 * total_ports
        other = build_plan(
            analysis, LineageQuery.create("wf", "out", [0, 1], ["GEN"])
        )
        assert other.visited_ports == plan.visited_ports

    def test_plan_len(self):
        analysis = propagate_depths(build_diamond_workflow())
        plan = build_plan(
            analysis, LineageQuery.create("F", "y", [0, 0], ["A", "B"])
        )
        assert len(plan) == 2


class TestExecution:
    def test_lineage_matches_expected(self, diamond):
        flow, captured, store = diamond
        engine = IndexProjEngine(store, flow)
        result = engine.lineage(
            captured.run_id, LineageQuery.create("F", "y", [1, 2], ["A", "B"])
        )
        assert [b.key() for b in result.bindings] == [
            ("A", "x", "1"), ("B", "x", "2"),
        ]
        assert {b.value for b in result.bindings} == {"item-1", "item-2"}

    def test_one_sql_query_per_focus_port(self, diamond):
        flow, captured, store = diamond
        engine = IndexProjEngine(store, flow)
        result = engine.lineage(
            captured.run_id, LineageQuery.create("F", "y", [1, 2], ["A", "B"])
        )
        assert result.stats.queries == 2

    def test_focus_shrinks_trace_access(self, diamond):
        flow, captured, store = diamond
        engine = IndexProjEngine(store, flow)
        focused = engine.lineage(
            captured.run_id, LineageQuery.create("wf", "out", [0, 0], ["GEN"])
        )
        unfocused = engine.lineage(
            captured.run_id,
            LineageQuery.create("wf", "out", [0, 0], ["GEN", "A", "B", "F"]),
        )
        assert focused.stats.queries < unfocused.stats.queries

    def test_timing_split(self, diamond):
        flow, captured, store = diamond
        engine = IndexProjEngine(store, flow, cache_plans=False)
        result = engine.lineage(
            captured.run_id, LineageQuery.create("F", "y", [0, 0], ["A"])
        )
        assert result.traversal_seconds > 0.0
        assert result.lookup_seconds > 0.0
        assert result.total_seconds == pytest.approx(
            result.traversal_seconds + result.lookup_seconds
        )

    def test_unknown_run_returns_nothing(self, diamond):
        flow, _, store = diamond
        engine = IndexProjEngine(store, flow)
        result = engine.lineage(
            "ghost", LineageQuery.create("F", "y", [0, 0], ["A"])
        )
        assert result.bindings == []


class TestPlanCache:
    def test_cache_holds_one_shape_per_query_form(self, diamond):
        """The cache is keyed on (port, |index|, focus) and bound per
        call: 50 distinct indices cost one entry, not 50."""
        flow, _, store = diamond
        engine = IndexProjEngine(store, flow, cache_plans=True)
        analysis = engine.analysis
        for i in range(50):
            query = LineageQuery.create("F", "y", [i, i % 7], ["A"])
            plan, _ = engine.plan(query)
            assert plan.query is query
            assert plan.trace_queries == build_plan(analysis, query).trace_queries
        assert len(engine._plan_cache) == 1

    def test_cache_distinguishes_arity_and_focus(self, diamond):
        flow, _, store = diamond
        engine = IndexProjEngine(store, flow, cache_plans=True)
        base, _ = engine.plan(LineageQuery.create("F", "y", [0, 0], ["A"]))
        other_index, _ = engine.plan(LineageQuery.create("F", "y", [1, 0], ["A"]))
        assert len(engine._plan_cache) == 1
        assert base.trace_queries != other_index.trace_queries
        engine.plan(LineageQuery.create("F", "y", [0], ["A"]))
        engine.plan(LineageQuery.create("F", "y", [0, 0], ["B"]))
        assert len(engine._plan_cache) == 3

    def test_cache_disabled_keeps_nothing(self, diamond):
        flow, _, store = diamond
        engine = IndexProjEngine(store, flow, cache_plans=False)
        query = LineageQuery.create("F", "y", [0, 0], ["A"])
        first, _ = engine.plan(query)
        second, _ = engine.plan(query)
        assert first == second
        assert engine._plan_cache == {}

    def test_prebuilt_analysis_injection(self, diamond):
        flow, captured, store = diamond
        analysis = propagate_depths(flow)
        engine = IndexProjEngine(store, flow, analysis=analysis)
        assert engine.analysis is analysis
        result = engine.lineage(
            captured.run_id, LineageQuery.create("F", "y", [0, 0], ["A"])
        )
        assert result.bindings


class TestMultiRun:
    def test_plan_shared_across_runs(self):
        flow = build_diamond_workflow()
        with TraceStore() as store:
            run_ids = []
            for _ in range(4):
                captured = capture_run(flow, {"size": 2})
                store.insert_trace(captured.trace)
                run_ids.append(captured.run_id)
            engine = IndexProjEngine(store, flow)
            query = LineageQuery.create("F", "y", [0, 1], ["A", "B"])
            multi = engine.lineage_multirun(run_ids, query)
            assert sorted(multi.run_ids) == sorted(run_ids)
            for result in multi.per_run.values():
                assert [b.key() for b in result.bindings] == [
                    ("A", "x", "0"), ("B", "x", "1"),
                ]
                # exactly one lookup per focus input port, per run
                assert result.stats.queries == 2

    def test_multirun_timing_buckets(self):
        flow = build_diamond_workflow()
        with TraceStore() as store:
            captured = capture_run(flow, {"size": 2})
            store.insert_trace(captured.trace)
            engine = IndexProjEngine(store, flow, cache_plans=False)
            multi = engine.lineage_multirun(
                [captured.run_id], LineageQuery.create("F", "y", [0, 0], ["A"])
            )
            assert multi.traversal_seconds > 0.0
            assert multi.lookup_seconds > 0.0
            assert multi.total_seconds == pytest.approx(
                multi.traversal_seconds + multi.lookup_seconds
            )
