"""Property: compiled execution is byte-identical to interpreted execution.

For random workflows, random queries, random chunk sizes, the cache
stack warm or cold, and single-file or sharded backends, the compiled
path (``repro.query.compiled`` — frozen key grids + prepared SQL
programs, docs/PERFORMANCE.md) must produce exactly the bindings —
keys *and* JSON-encoded values, per run — of the interpreted INDEXPROJ
path.  Registry reuse rides along: within one engine the second
compiled call must be a plan hit, and the answer must not change
between the cold (compile) and warm (registry) executions.
"""

from __future__ import annotations

from hypothesis import assume, given, settings, strategies as st

from repro.provenance.capture import capture_run
from repro.provenance.store import TraceStore
from repro.query.indexproj import IndexProjEngine
from repro.service import ProvenanceService
from repro.storage import ShardedStore

from tests.conftest import estimated_instances, make_random_workflow
from tests.properties.conftest import canonical, query_pool

seeds = st.integers(min_value=0, max_value=10_000)
chunk_sizes = st.integers(min_value=1, max_value=40)
shard_counts = st.sampled_from([1, 2, 4, 7])


def _capture_runs(case, count):
    return [
        capture_run(case.flow, case.inputs, run_id=f"run-{i}")
        for i in range(count)
    ]


def _fill(store, captured):
    for cap in captured:
        store.insert_trace(cap.trace)


class TestCompiledEqualsInterpreted:
    @settings(max_examples=50, deadline=None)
    @given(seeds, st.integers(min_value=0, max_value=2), chunk_sizes)
    def test_differential_engine(self, seed, query_ord, chunk):
        """Engine-level: compiled == interpreted == batched, any chunk
        size, no caches; the warm repeat hits the plan registry."""
        case = make_random_workflow(seed, max_processors=4)
        assume(estimated_instances(case) <= 150)
        query = query_pool(case)[query_ord]

        with ProvenanceService(cache=False) as service:
            service.register_workflow(case.flow)
            for _ in range(3):
                service.run(case.flow.name, case.inputs)
            scope = service.runs_of(case.flow.name)
            engine = IndexProjEngine(service.store, case.flow)
            interpreted = engine.lineage_multirun(scope, query)
            batched = engine.lineage_multirun_batched(
                scope, query, chunk_size=chunk
            )
            cold = engine.lineage_multirun_compiled(
                scope, query, chunk_size=chunk
            )
            warm = engine.lineage_multirun_compiled(
                scope, query, chunk_size=chunk
            )
            label = f"seed={seed} chunk={chunk} query={query}"
            assert canonical(cold) == canonical(interpreted), label
            assert canonical(warm) == canonical(interpreted), label
            assert canonical(batched) == canonical(interpreted), label
            stats = engine.plan_registry.stats()
            assert stats["hits"] >= 1 and stats["misses"] >= 1
            # Compiled collapses round-trips at least as well as batched.
            assert cold.sql_queries <= batched.sql_queries

    @settings(max_examples=25, deadline=None)
    @given(seeds)
    def test_differential_service_with_caches(self, seed):
        """Service-level: compiled default == interpreted opt-out through
        the cache stack, cold and warm; the warm repeat costs zero
        store round-trips."""
        case = make_random_workflow(seed, max_processors=4)
        assume(estimated_instances(case) <= 150)
        query = query_pool(case)[0]

        with ProvenanceService(cache=True) as service:
            service.register_workflow(case.flow)
            for _ in range(2):
                service.run(case.flow.name, case.inputs)
            reference = service.lineage(
                query, compiled=False, precheck=False, cache=False
            )
            cold = service.lineage(query, precheck=False, cache=False)
            assert canonical(cold) == canonical(reference), f"seed={seed}"
            # Warm repeat through the trace cache: the compiled path
            # probes byte-identical cache keys, so it is served without
            # any store round-trip.
            warm = service.lineage(query, precheck=False, cache=False)
            assert canonical(warm) == canonical(reference)
            assert warm.sql_queries == 0
            # And the interpreted path shares that warmth back.
            shared = service.lineage(
                query, compiled=False, precheck=False, cache=False
            )
            assert canonical(shared) == canonical(reference)
            assert shared.sql_queries == 0

    @settings(max_examples=20, deadline=None)
    @given(seeds, shard_counts)
    def test_differential_sharded(self, seed, shards):
        """The scatter-gathered compiled grid over a sharded store equals
        the single-file interpreted reference."""
        case = make_random_workflow(seed, max_processors=4)
        assume(estimated_instances(case) <= 150)
        query = query_pool(case)[0]
        captured = _capture_runs(case, 4)
        scope = [cap.run_id for cap in captured]

        with TraceStore() as single, ShardedStore(num_shards=shards) as shd:
            _fill(single, captured)
            _fill(shd, captured)
            reference = IndexProjEngine(single, case.flow).lineage_multirun(
                scope, query
            )
            compiled = IndexProjEngine(
                shd, case.flow
            ).lineage_multirun_compiled(scope, query)
            assert canonical(compiled) == canonical(reference), (
                f"seed={seed} shards={shards}"
            )

    @settings(max_examples=20, deadline=None)
    @given(seeds)
    def test_chunk_boundary_straddle(self, seed):
        """chunk = pairs - 1 forces a 2-statement split mid-grid; the
        demultiplexed answer must not change."""
        case = make_random_workflow(seed, max_processors=4)
        assume(estimated_instances(case) <= 150)
        query = query_pool(case)[0]

        with ProvenanceService(cache=False) as service:
            service.register_workflow(case.flow)
            for _ in range(4):
                service.run(case.flow.name, case.inputs)
            scope = service.runs_of(case.flow.name)
            engine = IndexProjEngine(service.store, case.flow)
            reference = engine.lineage_multirun(scope, query)
            wide = engine.lineage_multirun_compiled(scope, query)
            keys = wide.aggregate_stats().batch_keys
            assume(keys >= 2)
            straddling = engine.lineage_multirun_compiled(
                scope, query, chunk_size=max(1, keys - 1)
            )
            assert canonical(straddling) == canonical(reference)
            assert canonical(wide) == canonical(reference)

    @settings(max_examples=20, deadline=None)
    @given(seeds)
    def test_deleted_run_in_mixed_scope(self, seed):
        """Pairs of a deleted run inside the compiled grid resolve to
        empty answers without disturbing the surviving runs'.  Neither
        the delete nor a later ingest is a plan invalidation: both
        calls reuse the plan compiled before them."""
        case = make_random_workflow(seed, max_processors=4)
        assume(estimated_instances(case) <= 150)
        query = query_pool(case)[0]

        with ProvenanceService(cache=False) as service:
            service.register_workflow(case.flow)
            for _ in range(3):
                service.run(case.flow.name, case.inputs)
            scope = service.runs_of(case.flow.name)
            engine = IndexProjEngine(service.store, case.flow)
            engine.lineage_multirun_compiled(scope, query)  # warm the plan
            victim = scope[1]
            service.store.delete_run(victim)
            interpreted = engine.lineage_multirun(scope, query)
            compiled = engine.lineage_multirun_compiled(scope, query)
            assert canonical(compiled) == canonical(interpreted)
            assert compiled.per_run[victim].bindings == []
            service.run(case.flow.name, case.inputs)
            grown = scope + [service.runs_of(case.flow.name)[-1]]
            assert canonical(
                engine.lineage_multirun_compiled(grown, query)
            ) == canonical(engine.lineage_multirun(grown, query))
            stats = engine.plan_registry.stats()
            assert (stats["hits"], stats["misses"]) == (2, 1)
            assert stats["invalidations"] == 0
