"""Compiled-plan registry: reuse, invalidation, statement-cache coherence.

Pins the registry's safety story: a compiled program never survives a
*global* store generation bump — index maintenance (``drop_indexes`` /
``create_indexes``) and ``vacuum`` evict the registry and force a
recompile, and additionally flush the per-connection prepared-statement
accounting epoch — while per-run bumps (ingest, ``delete_run``) change
data, not the specification or the schema, and keep every plan: the next
compiled call is a hit and still answers exactly as the interpreter
does.  Registry mechanics (LRU eviction, hit/miss counters, capacity validation) and
the service/explain surface ride along.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.obs import Observability
from repro.provenance.maintenance import vacuum
from repro.query.base import LineageQuery
from repro.query.compiled import (
    PlanKey,
    PlanRegistry,
    compile_plan,
)
from repro.query.indexproj import IndexProjEngine
from repro.service import ProvenanceService

from tests.conftest import build_diamond_workflow


def _query(index=(1, 1), focus=("GEN", "A", "B")):
    return LineageQuery.create("wf", "out", list(index), focus=list(focus))


@pytest.fixture
def service():
    svc = ProvenanceService(obs=Observability())
    svc.register_workflow(build_diamond_workflow())
    for _ in range(3):
        svc.run("wf", {"size": 2})
    yield svc
    svc.close()


@pytest.fixture
def engine(service):
    return IndexProjEngine(service.store, build_diamond_workflow())


def _scope(service):
    return service.runs_of("wf")


class TestRegistryReuse:
    def test_second_call_is_a_plan_hit(self, service, engine):
        scope = _scope(service)
        first = engine.lineage_multirun_compiled(scope, _query())
        second = engine.lineage_multirun_compiled(scope, _query())
        stats = engine.plan_registry.stats()
        assert (stats["hits"], stats["misses"]) == (1, 1)
        assert second.binding_keys_by_run() == first.binding_keys_by_run()

    def test_distinct_query_shapes_compile_separately(self, service, engine):
        scope = _scope(service)
        engine.lineage_multirun_compiled(scope, _query())
        engine.lineage_multirun_compiled(scope, _query(focus=("GEN", "A")))
        stats = engine.plan_registry.stats()
        assert stats["misses"] == 2
        assert stats["entries"] == 2

    def test_plan_is_scope_independent(self, service, engine):
        scope = _scope(service)
        engine.lineage_multirun_compiled(scope[:1], _query())
        engine.lineage_multirun_compiled(scope, _query())
        assert engine.plan_registry.stats()["hits"] == 1

    def test_one_shape_serves_every_index_of_its_length(self, service):
        from repro.query.indexproj import build_plan

        obs = Observability()
        engine = IndexProjEngine(
            service.store, build_diamond_workflow(), obs=obs
        )
        scope = _scope(service)
        queries = [_query(index=index) for index in [(1, 1), (0, 1), (1, 0)]]
        for query in queries:
            compiled = engine.lineage_multirun_compiled(scope, query)
            assert (
                compiled.binding_keys_by_run()
                == engine.lineage_multirun(scope, query).binding_keys_by_run()
            )
        stats = engine.plan_registry.stats()
        assert (stats["hits"], stats["misses"], stats["entries"]) == (2, 1, 1)
        # The span reports what was bound for *this* index, not the
        # template count ([1.1] collapses coincident fragments).
        spans = [
            s for s in obs.tracer.find("indexproj.plan")
            if s.attributes.get("execution") == "compiled"
        ]
        assert [s.attributes["cache"] for s in spans] == ["miss", "hit", "hit"]
        assert [s.attributes["trace_queries"] for s in spans] == [
            len(build_plan(engine.analysis, query)) for query in queries
        ]

    def test_lru_eviction_at_capacity(self, service):
        registry = PlanRegistry(service.store, max_entries=2)
        flow = build_diamond_workflow()
        engine = IndexProjEngine(
            service.store, flow, plan_registry=registry
        )
        scope = _scope(service)
        queries = [
            _query(focus=("GEN",)),
            _query(focus=("GEN", "A")),
            _query(focus=("GEN", "A", "B")),
        ]
        for q in queries:
            engine.lineage_multirun_compiled(scope, q)
        stats = registry.stats()
        assert stats["entries"] == 2
        assert stats["evictions"] == 1
        # The evicted (oldest) shape recompiles; the newest is still hot.
        engine.lineage_multirun_compiled(scope, queries[0])
        assert registry.stats()["misses"] == 4
        engine.lineage_multirun_compiled(scope, queries[2])
        assert registry.stats()["hits"] == 1

    def test_capacity_must_be_positive(self, service):
        with pytest.raises(ValueError):
            PlanRegistry(service.store, max_entries=0)

    def test_clear_reports_dropped(self, service, engine):
        engine.lineage_multirun_compiled(_scope(service), _query())
        assert len(engine.plan_registry) == 1
        assert engine.plan_registry.clear() == 1
        assert len(engine.plan_registry) == 0


class TestShapeReuseCounts:
    """Count-based guard (no timing): (s1) runs once per query *form*.

    The plan key is (fingerprint, strategy, port, |index|, focus); index
    values are bound at execution, so distinct indices of one form never
    reach the specification graph again.
    """

    def test_fifty_indices_compile_one_plan(self, monkeypatch):
        from repro.testbed.generator import (
            FINAL_PROCESSOR,
            LIST_SIZE_INPUT,
            LISTGEN_PROCESSOR,
            chain_product_workflow,
        )
        from repro.workflow.model import Dataflow

        def query(index, focus=(LISTGEN_PROCESSOR, "CHAIN1_0")):
            return LineageQuery.create(
                FINAL_PROCESSOR, "y", list(index), focus=list(focus)
            )

        calls = []
        original = Dataflow.incoming_arc

        def counting(self, sink):
            calls.append(sink)
            return original(self, sink)

        with ProvenanceService(cache=False) as svc:
            svc.register_workflow(chain_product_workflow(28, name="syn"))
            svc.run("syn", {LIST_SIZE_INPUT: 8})
            monkeypatch.setattr(Dataflow, "incoming_arc", counting)

            def plans():
                stats = svc.cache_stats()["plans"]
                return stats["misses"], stats["hits"]

            indices = [(i, j) for i in range(8) for j in range(8)][:50]
            assert svc.lineage(query(indices[0])).binding_keys_by_run()
            assert calls, "the first query walks the specification graph"
            del calls[:]
            for index in indices[1:]:
                result = svc.lineage(query(index))
                assert all(r.bindings for r in result.per_run.values())
            assert plans() == (1, 49)
            assert calls == []

            # Another |index| and another focus set: one more plan each,
            # and each is again shared by every index of its form.
            for i in range(8):
                svc.lineage(query((i,)))
            assert plans() == (2, 49 + 7)
            for index in indices[:8]:
                svc.lineage(query(index, focus=("CHAIN2_27",)))
            assert plans() == (3, 49 + 7 + 7)

            # Same name, changed definition: the fingerprint in the key
            # changes, so the resident shapes are not served for it.
            svc.register_workflow(chain_product_workflow(27, name="syn"))
            svc.lineage(query(indices[0]))
            assert plans() == (4, 49 + 7 + 7)


class TestGenerationInvalidation:
    def _warm(self, service, engine):
        scope = _scope(service)
        reference = engine.lineage_multirun_compiled(scope, _query())
        assert engine.plan_registry.stats()["misses"] == 1
        return scope, reference

    def _assert_recompiled(self, service, engine, scope, reference):
        assert len(engine.plan_registry) == 0
        assert engine.plan_registry.stats()["invalidations"] >= 1
        again = engine.lineage_multirun_compiled(scope, _query())
        stats = engine.plan_registry.stats()
        assert stats["misses"] == 2 and stats["hits"] == 0
        assert again.binding_keys_by_run() == {
            run: keys
            for run, keys in reference.binding_keys_by_run().items()
            if run in again.per_run
        }

    def test_drop_indexes_evicts_and_recompiles(self, service, engine):
        scope, reference = self._warm(service, engine)
        service.store.drop_indexes()
        self._assert_recompiled(service, engine, scope, reference)

    def test_create_indexes_evicts_and_recompiles(self, service, engine):
        scope, reference = self._warm(service, engine)
        service.store.create_indexes()
        self._assert_recompiled(service, engine, scope, reference)

    def test_vacuum_evicts_and_recompiles(self, service, engine):
        scope, reference = self._warm(service, engine)
        vacuum(service.store)
        self._assert_recompiled(service, engine, scope, reference)

    def test_run_bumps_keep_the_plan(self, service, engine):
        """delete_run and ingest bump per-run generations only: the plan
        survives both, and the kept plan still answers like the
        interpreter — ``[]`` for the deleted run, bindings for the new."""
        scope, _ = self._warm(service, engine)
        victim = scope[-1]
        service.store.delete_run(victim)
        after_delete = engine.lineage_multirun_compiled(scope, _query())
        assert engine.plan_registry.stats()["hits"] == 1
        assert after_delete.per_run[victim].bindings == []
        assert (
            after_delete.binding_keys_by_run()
            == engine.lineage_multirun(scope, _query()).binding_keys_by_run()
        )
        service.run("wf", {"size": 2})
        grown = _scope(service)
        assert grown[-1] not in scope
        after_ingest = engine.lineage_multirun_compiled(grown, _query())
        assert after_ingest.per_run[grown[-1]].bindings
        assert (
            after_ingest.binding_keys_by_run()
            == engine.lineage_multirun(grown, _query()).binding_keys_by_run()
        )
        stats = engine.plan_registry.stats()
        assert (stats["hits"], stats["misses"]) == (2, 1)
        assert stats["invalidations"] == 0

    def test_stale_plan_never_served_without_listener(self, service):
        """Belt and braces: even if eager eviction were skipped, the
        generation check on fetch rejects a stale program."""
        registry = PlanRegistry(service.store)
        flow = build_diamond_workflow()
        engine = IndexProjEngine(service.store, flow, plan_registry=registry)
        engine.lineage_multirun_compiled(_scope(service), _query())
        key = PlanKey.of(engine._workflow_fingerprint(), _query())
        stale = registry._plans[key]
        registry._plans[key] = dataclasses.replace(
            stale, generation=stale.generation - 1
        )
        engine.lineage_multirun_compiled(_scope(service), _query())
        assert registry.stats()["misses"] == 2
        assert registry._plans[key].generation == stale.generation


class TestStatementCacheCoherence:
    def test_warm_execution_hits_statement_cache(self, service, engine):
        scope = _scope(service)
        engine.lineage_multirun_compiled(scope, _query())
        engine.lineage_multirun_compiled(scope, _query())
        stats = service.store.statement_cache_stats()
        assert stats["hits"] >= 1

    def test_global_bump_flushes_statement_epoch(self, service, engine):
        scope = _scope(service)
        engine.lineage_multirun_compiled(scope, _query())
        before = service.store.statement_cache_stats()
        service.store.drop_indexes()
        after = service.store.statement_cache_stats()
        assert after["epoch"] > before["epoch"]
        # The first post-bump execution re-primes: it must record a
        # miss, not a hit against the flushed accounting.
        engine.lineage_multirun_compiled(scope, _query())
        reprimed = service.store.statement_cache_stats()
        assert reprimed["misses"] > before["misses"]


class TestServiceSurface:
    def test_compiled_default_and_opt_out_agree(self, service):
        reference = service.lineage(_query(), compiled=False, cache=False)
        compiled = service.lineage(_query(), cache=False)
        assert (
            compiled.binding_keys_by_run()
            == reference.binding_keys_by_run()
        )

    def test_explicit_compiled_wins_over_workers(self, service):
        result = service.lineage(
            _query(), compiled=True, workers=4, cache=False
        )
        # The compiled path shares one stats object across runs; the
        # parallel path would have per-run stats objects.
        assert len({id(r.stats) for r in result.per_run.values()}) == 1

    def test_obs_counters(self):
        # cache=False end to end: with the trace cache on, the warm
        # repeat never reaches the store, so no statement is re-bound.
        svc = ProvenanceService(obs=Observability(), cache=False)
        svc.register_workflow(build_diamond_workflow())
        for _ in range(3):
            svc.run("wf", {"size": 2})
        svc.lineage(_query())
        svc.lineage(_query())
        counters = svc.metrics_snapshot()["counters"]
        assert counters["compiled.plan_misses"] == 1
        assert counters["compiled.plan_hits"] == 1
        assert counters["store.stmt_cache_hits"] >= 1
        svc.close()

    def test_cache_stats_exposes_registry(self, service):
        service.lineage(_query(), cache=False)
        plans = service.cache_stats()["plans"]
        assert plans["entries"] == 1
        assert plans["capacity"] >= 1

    def test_invalidate_caches_clears_registry(self, service):
        service.lineage(_query(), cache=False)
        dropped = service.invalidate_caches()
        assert dropped["plans"] >= 1
        assert service.cache_stats()["plans"]["entries"] == 0

    def test_explain_plan_reports_compiled_state(self, service):
        cold = service.explain_plan(_query())
        assert cold.execution == "compiled"
        assert cold.plan_state == "cold"
        service.lineage(_query(), cache=False)
        warm = service.explain_plan(_query())
        assert warm.plan_state == "warm"
        # The resident plan is a shape: an index never asked before, of
        # the same length, is already warm; another length is not.
        assert service.explain_plan(_query(index=(0, 1))).plan_state == "warm"
        assert service.explain_plan(_query(index=(1,))).plan_state == "cold"
        assert "execution: compiled (plan warm" in warm.summary()
        # plan_state follows the registry's rule: data bumps keep the
        # plan, a global (maintenance) bump makes it cold again.
        service.run("wf", {"size": 2})
        service.store.delete_run(_scope(service)[0])
        assert service.explain_plan(_query()).plan_state == "warm"
        service.store.create_indexes()
        assert service.explain_plan(_query()).plan_state == "cold"


class TestCompileFunction:
    @staticmethod
    def _analysis():
        from repro.workflow.depths import propagate_depths

        return propagate_depths(build_diamond_workflow().flattened())

    def test_compile_plan_matches_build_plan(self, service, engine):
        from repro.query.indexproj import build_plan

        analysis = self._analysis()
        plan = compile_plan(analysis, _query(), "fp")
        assert plan.key.fingerprint == "fp"
        assert plan.key.arity == 2
        assert len(plan.templates) > 0
        for node, port, lo, hi in plan.templates:
            assert isinstance(node, str) and isinstance(port, str)
            assert 0 <= lo <= hi <= plan.key.arity
        # One shape, two indices: each binding is what build_plan plans.
        for index in [(1, 1), (0, 1)]:
            query = _query(index=index)
            lookups = plan.bind(query.index)
            assert [
                (node, port, encoded) for node, port, encoded, *_ in lookups
            ] == [
                (tq.processor, tq.port, tq.fragment.encode())
                for tq in build_plan(analysis, query).trace_queries
            ]
            for _, _, encoded, prefixes, like, low, high, cost in lookups:
                assert prefixes[-1] == encoded
                assert cost == 5 * len(prefixes) + 6
                assert like.endswith("%")
                assert low < high

    def test_pairs_cross_product(self, service):
        plan = compile_plan(self._analysis(), _query(), "fp")
        index = _query().index
        lookups = plan.bind(index)
        assert plan.pairs(["r1", "r2"], index) == [
            (run, lookup) for run in ("r1", "r2") for lookup in lookups
        ]

    def test_bind_rejects_an_index_of_another_length(self, service):
        plan = compile_plan(self._analysis(), _query(), "fp")
        with pytest.raises(ValueError):
            plan.bind(_query(index=(1,)).index)
