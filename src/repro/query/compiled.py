"""Compiled INDEXPROJ programs — (s1) baked into reusable plan shapes.

The paper's central observation (Section 3.3, Prop. 1 / Def. 4) is that
the (s1) traversal is a pure function of the workflow *specification*
and only ever slices the query index by static offsets: for a fixed
(workflow, strategy, target port, focus set, ``|index|``) the set of
trace queries is static up to *which positions* of the query index each
one carries.  This module compiles that static part **once** into a
:class:`CompiledPlan`:

* the spec-graph traversal runs at compile time
  (:func:`repro.query.indexproj.build_shape`) and is folded into a tuple
  of ``(processor, port, lo, hi)`` templates — "look up ``q[lo:hi]`` on
  this port";
* the index values and the run ids are **late-bound**: executing the
  plan slices and encodes the query index once per distinct range,
  derives that fragment's matching-rule constants
  (:func:`~repro.provenance.store.compile_fragment` — prefixes, ``LIKE``
  pattern, extension range, chunker cost), and hands the cross product
  ``lookups × runs`` to
  :meth:`~repro.provenance.store.TraceStore.find_xform_inputs_matching_compiled`,
  which binds parameters against pre-rendered (and per-connection
  prepared) SQL text.

Plans live in a :class:`PlanRegistry` — an LRU keyed on workflow
fingerprint + strategy + target port + ``|index|`` + focus.  A program
holds spec-derived constants only — no SQL text, no index values, no
run ids, no trace data — so its validity is the key's workflow
fingerprint plus the store's *global* generation, the counter that index
drops/rebuilds and ``vacuum`` bump.  Per-run bumps (ingest,
``delete_run``) change data, not the specification or the schema, and
leave every plan in place.  Measured on the 58-processor testbed's
deepest shape (59 lookups): ~0.2 ms to compile standalone (~0.4 ms per
registry miss inside the e2e benchmark's traced run), ~20 us to bind;
a one-lookup focused shape binds in ~2 us.  Every distinct index after
the first of its length pays the bind only.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.core import NO_OBS, Observability
from repro.provenance.store import (
    CompiledFragment,
    CompiledLookup,
    CompiledPair,
    compile_fragment,
)
from repro.query.base import LineageQuery
from repro.query.indexproj import PlanTemplate, build_shape
from repro.values.index import Index
from repro.workflow.depths import DepthAnalysis

#: Default capacity of the registry LRU — a plan is a few hundred bytes
#: of templates and there is one per (port, |index|, focus set), not per
#: index value, so this covers every query form a service sees while
#: still bounding adversarial focus sets.
DEFAULT_PLAN_CAPACITY = 256


@dataclass(frozen=True)
class PlanKey:
    """Identity of one compiled program.

    The run- and value-independent part of
    :class:`repro.cache.results.ResultCacheKey`: one compiled program
    serves *every* run scope and *every* index of the same length, so
    the key omits the runs and keeps only ``arity = len(index)``.
    """

    fingerprint: str
    strategy: str
    node: str
    port: str
    arity: int
    focus: frozenset

    @classmethod
    def of(
        cls, fingerprint: str, query: LineageQuery, strategy: str = "indexproj"
    ) -> "PlanKey":
        return cls(
            fingerprint=fingerprint,
            strategy=strategy,
            node=query.node,
            port=query.port,
            arity=len(query.index),
            focus=query.focus,
        )


@dataclass(frozen=True)
class CompiledPlan:
    """One (s1) traversal frozen into an executable program.

    ``generation`` records the store's global (maintenance/schema)
    generation at compile time; the registry revalidates it on every
    fetch, so a plan compiled before index maintenance or a vacuum is
    never executed afterwards.
    """

    key: PlanKey
    templates: Tuple[PlanTemplate, ...]
    visited_ports: int
    generation: int
    compile_seconds: float

    def bind(self, index: Index) -> List[CompiledLookup]:
        """The lookups of this shape for one query index.

        Constants are derived once per distinct range; templates whose
        ranges carry the same value on the same port are one lookup,
        kept at its first position — the order and set
        :func:`repro.query.indexproj.build_plan` plans.
        """
        if len(index) != self.key.arity:
            raise ValueError(
                f"plan compiled for |index| = {self.key.arity}, "
                f"bound to [{index.encode()}]"
            )
        parts = [str(position) for position in index.path]
        fragments: Dict[Tuple[int, int], CompiledFragment] = {}
        seen = set()
        lookups: List[CompiledLookup] = []
        for node, port, lo, hi in self.templates:
            fragment = fragments.get((lo, hi))
            if fragment is None:
                fragment = fragments[(lo, hi)] = compile_fragment(
                    ".".join(parts[lo:hi])
                )
            identity = (node, port, fragment[0])
            if identity not in seen:
                seen.add(identity)
                lookups.append((node, port) + fragment)
        return lookups

    def pairs(self, run_ids: Any, index: Index) -> List[CompiledPair]:
        """The executable key grid: ``run_ids × bind(index)``."""
        lookups = self.bind(index)
        return [(run_id, lookup) for run_id in run_ids for lookup in lookups]


def compile_plan(
    analysis: DepthAnalysis,
    query: LineageQuery,
    fingerprint: str,
    strategy: str = "indexproj",
    generation: int = 0,
) -> CompiledPlan:
    """Run (s1) once for the query's form.

    Pure apart from the clock: traverses the specification graph via
    :func:`repro.query.indexproj.build_shape`; only ``len(query.index)``
    of the index is read.
    """
    started = time.perf_counter()
    key = PlanKey.of(fingerprint, query, strategy)
    shape = build_shape(analysis, key.node, key.port, key.arity, key.focus)
    return CompiledPlan(
        key=key,
        templates=shape.templates,
        visited_ports=shape.visited_ports,
        generation=generation,
        compile_seconds=time.perf_counter() - started,
    )


class PlanRegistry:
    """Generation-aware LRU of compiled programs.

    Shares the coherence protocol of :mod:`repro.cache`, restricted to
    what a plan depends on: entries carry the store's *global*
    generation from compile time and are served only while the current
    one compares equal; the store's invalidation listener additionally
    evicts eagerly on a global bump, so maintenance empties the registry
    the moment it happens (no stale program can survive a schema change
    even if the generation check were skipped).  Per-run bumps are not
    invalidations.  Thread-safe; counters mirror into
    ``compiled.plan_hits`` / ``compiled.plan_misses`` when observability
    is enabled.
    """

    def __init__(
        self,
        store: Any,
        max_entries: int = DEFAULT_PLAN_CAPACITY,
        obs: Optional[Observability] = None,
    ) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.store = store
        self.max_entries = max_entries
        self.obs = obs if obs is not None else NO_OBS
        self._lock = threading.Lock()
        self._plans: "OrderedDict[PlanKey, CompiledPlan]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        store.add_invalidation_listener(self._on_generation_bump)

    # ------------------------------------------------------------------

    def _on_generation_bump(self, run_id: Optional[str]) -> None:
        # The listener channel carries data bumps (a run id: ingest,
        # delete_run) and global bumps (None: index maintenance, vacuum).
        # A program binds run ids late and holds nothing read from any
        # run, so only the second kind can make it stale.
        if run_id is not None:
            return
        with self._lock:
            if self._plans:
                self.invalidations += len(self._plans)
                self._plans.clear()

    # ------------------------------------------------------------------

    def get_or_compile(
        self,
        analysis: DepthAnalysis,
        query: LineageQuery,
        fingerprint: str,
        strategy: str = "indexproj",
    ) -> CompiledPlan:
        """Fetch the program for a query, compiling on miss/stale."""
        key = PlanKey.of(fingerprint, query, strategy)
        current = self.store.global_generation
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None and plan.generation == current:
                self._plans.move_to_end(key)
                self.hits += 1
                hit = True
            else:
                self.misses += 1
                hit = False
        if hit:
            if self.obs.enabled:
                self.obs.inc("compiled.plan_hits")
            return plan
        if self.obs.enabled:
            self.obs.inc("compiled.plan_misses")
        plan = compile_plan(
            analysis, query, fingerprint, strategy, generation=current
        )
        with self._lock:
            self._plans[key] = plan
            self._plans.move_to_end(key)
            while len(self._plans) > self.max_entries:
                self._plans.popitem(last=False)
                self.evictions += 1
        return plan

    def probe(
        self,
        fingerprint: str,
        query: LineageQuery,
        strategy: str = "indexproj",
    ) -> str:
        """``"warm"``/``"cold"`` without compiling (explain support)."""
        key = PlanKey.of(fingerprint, query, strategy)
        current = self.store.global_generation
        with self._lock:
            plan = self._plans.get(key)
            return (
                "warm"
                if plan is not None and plan.generation == current
                else "cold"
            )

    def clear(self) -> int:
        """Drop every plan; returns how many were evicted."""
        with self._lock:
            dropped = len(self._plans)
            self._plans.clear()
        return dropped

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._plans),
                "capacity": self.max_entries,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
            }
