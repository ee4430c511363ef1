"""Per-layer metrics, computed from outside the program.

Two sources, both taken around the *traced* slice of a run:

* public counters — ``cache_stats()`` / ``/v1/cache-stats`` /
  ``/v1/metrics`` deltas and the ``meta`` of sampled answers;
* span self times from :mod:`spans` (``*_us_per_op`` = self time summed
  over the slice / end-to-end ops of the slice).

A layer that does not exist in the running program (no such cache tier,
no such boundary, not an HTTP workload) has no value here; the caller
prints it as absent and the driver line carries 0 for it.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

import spans as span_mod
from stats import percentile

#: name -> unit, in README order.  Direction is in BENCHMARK.json.
PER_LAYER_UNITS: Dict[str, str] = {
    "server.http.parse_us_per_op": "us",
    "server.http.serialize_us_per_op": "us",
    "server.http.response_bytes_per_op": "bytes",
    "server.runtime.residual_us_per_op": "us",
    "server.app.self_us_per_op": "us",
    "server.registry.get_us_per_op": "us",
    "query.parser.us_per_op": "us",
    "server.admission.wait_us_p50": "us",
    "server.admission.wait_us_p99": "us",
    "server.admission.rejected_ratio": "ratio",
    "server.codec.encode_us_per_op": "us",
    "server.codec.bindings_per_op": "count",
    "service.self_us_per_op": "us",
    "analysis.precheck.us_per_op": "us",
    "cache.results.hit_ratio": "ratio",
    "cache.results.get_us_per_op": "us",
    "cache.results.put_us_per_op": "us",
    "cache.results.evictions_per_kop": "1/kop",
    "cache.results.invalidations_per_kop": "1/kop",
    "cache.results.bytes": "bytes",
    "query.compiled.plan_hit_ratio": "ratio",
    "query.compiled.compile_us_per_op": "us",
    "query.compiled.plan_evictions_per_kop": "1/kop",
    "query.compiled.stmt_cache_hit_ratio": "ratio",
    "query.indexproj.s1_us_per_op": "us",
    "query.indexproj.s2_us_per_op": "us",
    "query.naive.us_per_op": "us",
    "query.naive.sql_per_op": "count",
    "cache.trace.hit_ratio": "ratio",
    "cache.trace.evictions_per_kop": "1/kop",
    "cache.trace.bytes": "bytes",
    "cache.trace.put_us_per_op": "us",
    "provenance.store.sql_per_read": "count",
    "provenance.store.rows_per_read": "count",
    "provenance.store.rows_per_binding": "ratio",
    "provenance.store.read_us_per_op": "us",
    "provenance.store.generation_vector_us_per_op": "us",
    "provenance.store.busy_retries": "count",
    "provenance.store.insert_us_per_run": "us",
    "provenance.capture.us_per_run": "us",
    "storage.sharded.self_us_per_op": "us",
    "storage.sharded.shards_touched_per_op": "count",
    "obs.overhead_ratio": "ratio",
    "loadgen.sched_lag_p99_ms": "ms",
    "loadgen.client_us_per_op": "us",
    "loadgen.open_p99_ms.r300": "ms",
    "loadgen.open_p99_ms.r900": "ms",
    "loadgen.max_rate_ok_rps": "1/s",
    "trace.overhead_ratio": "ratio",
    "trace.coverage_ratio": "ratio",
    "trace.boundaries_missing": "count",
}


def _ratio(hits: float, misses: float) -> Optional[float]:
    return hits / (hits + misses) if hits + misses > 0 else None


class SpanTable:
    """Self and inclusive nanoseconds of one slice's spans, by span name."""

    def __init__(self, spans: Sequence[span_mod.Span]) -> None:
        self.spans = spans
        self.by_id = {s[0]: s for s in spans}
        selfs = self._selfs = span_mod.self_times(spans)
        self.self_ns: Dict[str, int] = {}
        self.total_ns: Dict[str, int] = {}
        for sid, _parent, _req, name, start, end in spans:
            self.self_ns[name] = self.self_ns.get(name, 0) + selfs[sid]
            self.total_ns[name] = self.total_ns.get(name, 0) + (end - start)

    def self_us(self, *prefixes: str) -> Optional[float]:
        """Summed self microseconds of spans whose name has a prefix."""
        names = [n for n in self.self_ns if n.startswith(prefixes)]
        if not names:
            return None
        return sum(self.self_ns[n] for n in names) / 1000.0

    def total_us(self, name: str) -> Optional[float]:
        return self.total_ns[name] / 1000.0 if name in self.total_ns else None

    def read_self_us(self) -> Dict[str, float]:
        """Self microseconds by span name, read requests only.

        A request is a read when its root is a lineage call or an HTTP
        request; the writer thread's ``service.run`` trees are left out.
        """
        reads = {
            s[2] for s in self.spans
            if s[1] is None and s[3] in ("service.lineage", "server.app.handle")
        }
        out: Dict[str, float] = {}
        for sid, _parent, request, name, _start, _end in self.spans:
            if request in reads:
                out[name] = out.get(name, 0.0) + self._selfs[sid] / 1000.0
        return out

    def root_us(self, name: str) -> float:
        """Inclusive microseconds of parentless spans called ``name``."""
        return sum(
            s[5] - s[4] for s in self.spans if s[3] == name and s[1] is None
        ) / 1000.0

    def child_total_us(self, child: str, parent: str) -> float:
        """Inclusive time of ``child`` spans directly under a ``parent``."""
        total = 0
        for s in self.spans:
            if s[3] == child and s[1] in self.by_id and self.by_id[s[1]][3] == parent:
                total += s[5] - s[4]
        return total / 1000.0

    def admission_waits_us(self) -> List[float]:
        waits = []
        for s in self.spans:
            if s[3] == span_mod.ADMITTED_WORK and s[1] in self.by_id:
                waits.append((s[4] - self.by_id[s[1]][4]) / 1000.0)
        return sorted(waits)

    def children_count(self, child_prefix: str, parent_prefix: str) -> int:
        return sum(
            1 for s in self.spans
            if s[3].startswith(child_prefix) and s[1] in self.by_id
            and self.by_id[s[1]][3].startswith(parent_prefix)
        )


def sample_means(metas: Sequence[Dict[str, Any]], bindings: Sequence[int]):
    """(sql per read, rows per read, rows per binding, busy retries)."""
    if not metas:
        return None, None, None, None
    sql = sum(m.get("sql_queries", 0) for m in metas)
    rows = sum(m.get("rows", 0) for m in metas)
    bound = sum(bindings)
    return (
        sql / len(metas), rows / len(metas),
        rows / bound if bound else 0.0,
        sum(m.get("busy_retries", 0) for m in metas),
    )


def compute(
    *, http: bool, naive: bool, table: SpanTable, ops: int, wall_us: float,
    counters: Dict[str, float], gauges: Dict[str, float],
    metas: Sequence[Dict[str, Any]], bindings: Sequence[int],
    ingested_runs: int, parse_us: Optional[float],
) -> Dict[str, float]:
    """Every per-layer metric the slice supports (absent = no such layer)."""
    out: Dict[str, Optional[float]] = {}
    ops = max(ops, 1)

    def per_op(value: Optional[float]) -> Optional[float]:
        return None if value is None else value / ops

    out["service.self_us_per_op"] = per_op(table.self_us("service.lineage"))
    out["analysis.precheck.us_per_op"] = per_op(table.self_us("analysis.precheck."))
    out["query.parser.us_per_op"] = per_op(table.self_us("query.parser."))
    out["cache.results.get_us_per_op"] = per_op(table.self_us("cache.results.get"))
    out["cache.results.put_us_per_op"] = per_op(table.self_us("cache.results.put"))
    out["query.compiled.compile_us_per_op"] = per_op(table.self_us("query.compiled."))
    out["cache.trace.put_us_per_op"] = per_op(table.self_us("cache.trace.put"))
    out["provenance.store.read_us_per_op"] = per_op(
        table.self_us("provenance.store.read")
    )
    out["provenance.store.generation_vector_us_per_op"] = per_op(
        table.self_us("provenance.store.generation_vector")
    )
    out["storage.sharded.self_us_per_op"] = per_op(table.self_us("storage.sharded."))
    if out["storage.sharded.self_us_per_op"] is not None:
        out["storage.sharded.shards_touched_per_op"] = table.children_count(
            "provenance.store.read", "storage.sharded.read"
        ) / ops
    # s1/s2 are the paper's t1/t2, so inclusive: plan fetch-or-compile,
    # then everything else the INDEXPROJ entry point does (lookups).
    run_us = table.total_us("query.indexproj.run")
    if run_us is not None:
        s1 = table.child_total_us("query.compiled.plan", "query.indexproj.run")
        out["query.indexproj.s1_us_per_op"] = s1 / ops
        out["query.indexproj.s2_us_per_op"] = (run_us - s1) / ops
    naive_us = table.total_us("query.naive.run")
    if naive_us is not None:
        out["query.naive.us_per_op"] = naive_us / ops
    if ingested_runs:
        insert = table.self_us("provenance.store.insert", "storage.sharded.insert")
        capture = table.self_us("provenance.capture.")
        if insert is not None:
            out["provenance.store.insert_us_per_run"] = insert / ingested_runs
        if capture is not None:
            out["provenance.capture.us_per_run"] = capture / ingested_runs

    for tier, metric in (("result", "cache.results"), ("trace", "cache.trace")):
        if f"{tier}.hits" not in counters:
            continue  # no such tier in this program
        out[f"{metric}.hit_ratio"] = _ratio(
            counters[f"{tier}.hits"], counters[f"{tier}.misses"]
        )
        out[f"{metric}.evictions_per_kop"] = counters[f"{tier}.evictions"] / ops * 1000
        out[f"{metric}.bytes"] = gauges.get(f"{tier}.bytes")
    if "result.invalidations" in counters:
        out["cache.results.invalidations_per_kop"] = (
            counters["result.invalidations"] / ops * 1000
        )
    if "plans.hits" in counters:
        out["query.compiled.plan_hit_ratio"] = _ratio(
            counters["plans.hits"], counters["plans.misses"]
        )
        out["query.compiled.plan_evictions_per_kop"] = (
            counters["plans.evictions"] + counters["plans.invalidations"]
        ) / ops * 1000
    if "stmt.hits" in counters:
        out["query.compiled.stmt_cache_hit_ratio"] = _ratio(
            counters["stmt.hits"], counters["stmt.misses"]
        )

    sql, rows, per_binding, retries = sample_means(metas, bindings)
    out["provenance.store.sql_per_read"] = sql
    if naive:
        out["query.naive.sql_per_op"] = sql
    out["provenance.store.rows_per_read"] = rows
    out["provenance.store.rows_per_binding"] = per_binding
    out["provenance.store.busy_retries"] = counters.get("store.busy_retries", retries)

    # Coverage: the share of the client's wall clock that lies inside a
    # span tree of a read request.  Measured on root durations, not on
    # summed self times, so parallel shard reads and the writer thread's
    # spans cannot push it past 1.
    if http:
        out["server.http.serialize_us_per_op"] = per_op(
            table.self_us("server.http.serialize.")
        )
        out["server.app.self_us_per_op"] = per_op(table.self_us("server.app."))
        out["server.registry.get_us_per_op"] = per_op(table.self_us("server.registry."))
        out["server.codec.encode_us_per_op"] = per_op(table.self_us("server.codec."))
        if bindings:
            out["server.codec.bindings_per_op"] = sum(bindings) / len(bindings)
        waits = table.admission_waits_us()
        if waits:
            out["server.admission.wait_us_p50"] = percentile(waits, 50)
            out["server.admission.wait_us_p99"] = percentile(waits, 99)
        out["server.http.parse_us_per_op"] = parse_us
        covered_us = (
            table.root_us("server.app.handle")
            + table.root_us("server.http.serialize.bytes")
            + (parse_us or 0.0) * ops
        )
        # What no span covers: event loop, sockets, kernel, the client.
        out["server.runtime.residual_us_per_op"] = (wall_us - covered_us) / ops
    else:
        covered_us = table.root_us("service.lineage")
    out["trace.coverage_ratio"] = covered_us / wall_us if wall_us else None
    return {k: v for k, v in out.items() if v is not None}


def waterfall(
    table: SpanTable, ops: int, wall_us: float, values: Dict[str, float]
) -> Dict[str, Any]:
    """The complete decomposition of the slice's mean read, for the README.

    Every span name's self time per op — the declared per-layer metrics are
    the subset of these most likely to move — plus, over HTTP, the two
    parts no span covers.
    """
    ops = max(ops, 1)
    parts = {name: us / ops for name, us in table.read_self_us().items()}
    for name, metric in (
        ("server.http.parse (replayed)", "server.http.parse_us_per_op"),
        ("server.runtime.residual", "server.runtime.residual_us_per_op"),
    ):
        if metric in values:
            parts[name] = values[metric]
    return {"wall_us_per_op": wall_us / ops, "layers_us_per_op": parts}
