"""Seeded corpora: the trace stores the workloads read.

A corpus is one store filled through ``ProvenanceService.run`` — the
shipped ingest path — with per-run inputs drawn from the benchmark seed,
so two seeds never produce byte-identical stores.  Run ids are explicit
(``<tag>-00042``) so the single-file and the sharded copy of the
synthetic corpus hold the same runs and one op stream serves both.

Sizes are the ISSUE's corpora scaled by the time cap of the benchmark
contract (a whole invocation, three set-ups included, must fit in about
twenty seconds); the scale lives in :data:`SIZES` and nowhere else.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro import ProvenanceService
from repro.testbed.generator import chain_product_workflow
from repro.testbed.workloads import (
    genes2kegg_workload,
    protein_discovery_workload,
)

#: Chain length of the synthetic workflow (58 processors, as in the ISSUE).
SYN_CHAIN = 28
#: ``ListSize`` of every corpus run of the synthetic workflow (625 outputs).
SYN_LIST_SIZE = 25

#: Runs per corpus.  ISSUE sizes: gk 10 000, gk-wide 200, pd 50, syn 40.
SIZES = {
    "gk": 600,
    "pd": 40,
    "gk-wide": 150,
    "pd-wide": 20,
    "syn": 10,
    "mixed": 6,
}


@dataclass
class Workflow:
    """What a service needs registered to answer for one corpus."""

    name: str
    flow: Any
    registry: Any
    make_inputs: Callable[[random.Random], Dict[str, Any]]


def _gk() -> Workflow:
    bundle = genes2kegg_workload()

    def inputs(rng: random.Random) -> Dict[str, Any]:
        def gene() -> str:
            return f"mmu:{rng.randrange(10000, 99999)}"

        # Fixed shape [[g, g], [g]]: every run answers the same indices.
        return {"list_of_geneIDList": [[gene(), gene()], [gene()]]}

    return Workflow(bundle.name, bundle.flow, bundle.registry, inputs)


def _pd() -> Workflow:
    bundle = protein_discovery_workload()

    def inputs(rng: random.Random) -> Dict[str, Any]:
        return {
            "pubmed_ids": [
                f"pmid:{rng.randrange(1000, 999999)}" for _ in range(8)
            ]
        }

    return Workflow(bundle.name, bundle.flow, bundle.registry, inputs)


def _syn() -> Workflow:
    flow = chain_product_workflow(SYN_CHAIN)
    # ListSize is the workflow's only input, and it fixes which output
    # indices exist, so synthetic runs differ by id only.
    return Workflow(
        flow.name, flow, None, lambda _rng: {"ListSize": SYN_LIST_SIZE}
    )


WORKFLOWS: Dict[str, Callable[[], Workflow]] = {
    "gk": _gk, "pd": _pd, "syn": _syn,
}


@dataclass
class Corpus:
    tag: str
    kind: str
    path: str
    workflow: Workflow
    run_ids: List[str] = field(default_factory=list)
    records: int = 0
    #: Per-``run()`` wall seconds of the build, in order.
    ingest_seconds: List[float] = field(default_factory=list)

    def open(self) -> ProvenanceService:
        """A default service over this corpus, workflows registered."""
        service = ProvenanceService(self.path)
        service.register_workflow(self.workflow.flow, self.workflow.registry)
        return service

    def stored_records(self) -> int:
        """Records in the store now (the build's count, plus later ingest)."""
        service = self.open()
        try:
            return int(service.statistics()["records"])
        finally:
            service.close()

    def disk_bytes(self) -> int:
        """Database + WAL bytes on disk (call after every handle closed)."""
        if os.path.isdir(self.path):
            names = [os.path.join(self.path, n) for n in os.listdir(self.path)]
        else:
            names = [self.path, self.path + "-wal"]
        return sum(
            os.path.getsize(n) for n in names
            if os.path.exists(n) and (n.endswith(".db") or n.endswith("-wal"))
        )


def build_corpus(
    tag: str,
    kind: str,
    path: str,
    runs: int,
    rng: random.Random,
    shards: Optional[int] = None,
) -> Corpus:
    """Fill a fresh store with ``runs`` seeded runs; closes it again."""
    workflow = WORKFLOWS[kind]()
    corpus = Corpus(tag=tag, kind=kind, path=path, workflow=workflow)
    service = (
        ProvenanceService(path, shards=shards)
        if shards is not None
        else ProvenanceService(path)
    )
    try:
        service.register_workflow(workflow.flow, workflow.registry)
        for i in range(runs):
            inputs = workflow.make_inputs(rng)
            run_id = f"{tag}-{i:05d}"
            t0 = time.perf_counter()
            service.run(workflow.name, inputs, run_id=run_id)
            corpus.ingest_seconds.append(time.perf_counter() - t0)
            corpus.run_ids.append(run_id)
        corpus.records = int(service.statistics()["records"])
    finally:
        service.close()
    return corpus
