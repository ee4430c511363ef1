"""Process plumbing around the system under test.

The server child, resident-set reads, public-stats snapshots (in-process
and over HTTP, same flat shape), cold open cycles, the HTTP parser
replay, and the oracle check of sampled answers.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import subprocess
import sys
import time
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro import ProvenanceService
from repro.server.client import ServerClient
from repro.server.codec import canonical_bytes, encode_answer

from corpora import Corpus
from loadgen import Outcome
from opstream import Op

HERE = os.path.dirname(os.path.abspath(__file__))

#: At most this many distinct keys per run are re-answered by the oracle
#: (NI on the 58-processor workflow costs ~15 ms a key).
MAX_ORACLE_KEYS = 96


# -- the server child ----------------------------------------------------------


class ServerProcess:
    """``server_child.py`` as a child process; stopped with SIGTERM."""

    def __init__(
        self, tenant_root: str, workloads: Sequence[str],
        no_obs: bool = False, spans_out: Optional[str] = None,
    ) -> None:
        argv = [sys.executable, os.path.join(HERE, "server_child.py"),
                "--tenant-root", tenant_root]
        for name in workloads:
            argv += ["--workload", name]
        if no_obs:
            argv.append("--no-obs")
        if spans_out:
            argv += ["--spans-out", spans_out]
        self.host = "127.0.0.1"
        self.proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True
        )
        try:
            line = self.proc.stdout.readline()
            if not line.startswith("PORT "):
                raise RuntimeError(f"server child did not start: {line!r}")
            self.port = int(line.split()[1])
        except BaseException:
            self.stop()
            raise

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def rss_mb(self) -> float:
        return rss_mb(self.proc.pid)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()


def rss_mb(pid: Optional[int] = None) -> float:
    """VmRSS of a process (default: this one), in MiB."""
    with open(f"/proc/{pid or os.getpid()}/status", "r", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmRSS line")


# -- public stats, one flat shape --------------------------------------------


def _flatten_cache_stats(stats: Dict[str, Any], into: Dict[str, float]) -> None:
    # A tier that is absent (or empty: disabled) is "no such layer": its
    # keys are simply not there and its metrics are omitted downstream.
    for tier in ("result", "trace", "plans"):
        for key, value in (stats.get(tier) or {}).items():
            if isinstance(value, (int, float)):
                name = f"{tier}.{key}"
                into[name] = into.get(name, 0) + value


def service_counters(service: ProvenanceService) -> Dict[str, float]:
    """Cumulative counters of an in-process service, by public calls."""
    out: Dict[str, float] = {}
    _flatten_cache_stats(service.cache_stats(), out)
    stmt = getattr(service.store, "statement_cache_stats", None)
    if stmt is not None:
        for key, value in stmt().items():
            out[f"stmt.{key}"] = value
    return out


def server_counters(url: str, tenants: Iterable[str]) -> Dict[str, float]:
    """The same counters over HTTP, summed across tenants."""
    out: Dict[str, float] = {}
    for tenant in tenants:
        with ServerClient(url, tenant=tenant) as client:
            response = client.get("/v1/cache-stats")
            if response.ok:
                _flatten_cache_stats(response.body, out)
    with ServerClient(url) as client:
        text = client.get("/v1/metrics").body
    for line in str(text).splitlines():
        if line.startswith("#") or " " not in line:
            continue
        name, value = line.rsplit(" ", 1)
        for suffix, key in (
            ("store_stmt_cache_hits_total", "stmt.hits"),
            ("store_stmt_cache_misses_total", "stmt.misses"),
            ("store_busy_retries_total", "store.busy_retries"),
        ):
            if name.endswith(suffix):
                out[key] = float(value)
    return out


def delta(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {k: v - before.get(k, 0) for k, v in after.items()}


# -- cold cycles and parser replay -------------------------------------------


def cold_cycles(corpus: Corpus, op: Op, seconds: float) -> List[float]:
    """open -> register_workflow -> first lineage -> close, repeated."""
    latencies: List[float] = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(latencies) < 3:
        t0 = time.perf_counter()
        service = corpus.open()
        try:
            service.lineage(op.query, runs=op.runs)
        finally:
            service.close()
        latencies.append(time.perf_counter() - t0)
    return latencies


def replay_parse_us(requests: Sequence[bytes]) -> Optional[float]:
    """Microseconds per request through the server's own ``read_request``.

    The recorded request bytes are preloaded into a ``StreamReader`` so
    the measurement has no socket and no idle wait in it.
    """
    try:
        from repro.server.http import read_request
    except ImportError:
        return None

    async def run() -> float:
        reader = asyncio.StreamReader()
        reader.feed_data(b"".join(requests))
        reader.feed_eof()
        t0 = time.perf_counter()
        for _ in requests:
            await read_request(reader, None)
        return (time.perf_counter() - t0) / len(requests) * 1e6

    return asyncio.run(run())


# -- oracle ---------------------------------------------------------------------


def decode(raw: Any) -> Tuple[Optional[Tuple[str, ...]], bytes, Dict[str, Any], int]:
    """(resolved runs, canonical answer bytes, meta, bindings) of a sample."""
    if isinstance(raw[1], (bytes, bytearray)):  # HTTP: (status, body)
        body = json.loads(raw[1])
        answer = body["answer"]
        bindings = sum(len(b) for b in answer["bindings"].values())
        return None, canonical_bytes(answer), body["meta"], bindings
    runs, result = raw  # in-process: (runs, MultiRunResult)
    stats = result.aggregate_stats()
    meta = {
        "sql_queries": stats.queries, "rows": stats.rows,
        "busy_retries": stats.busy_retries, "from_cache": result.from_cache,
    }
    bindings = sum(len(r.bindings) for r in result.per_run.values())
    return runs, canonical_bytes(encode_answer(result)), meta, bindings


def verify(
    outcomes: Sequence[Outcome], corpora: Dict[str, Corpus], seed: int,
) -> Tuple[int, List[str]]:
    """Check sampled answers against NI on separately opened services.

    Returns (answers checked, mismatching keys).  The oracle services are
    opened here, after the timed windows, and share no cache with the
    system under test.
    """
    sampled = [item for outcome in outcomes for item in outcome.sampled]
    decoded = []
    for op, _strategy, raw in sampled:
        runs, got, _meta, _bindings = decode(raw)
        decoded.append((op.tenant, op.query, runs if runs is not None else op.runs, got))
    keys = sorted({(tenant, query, runs) for tenant, query, runs, _ in decoded})
    random.Random(f"oracle-{seed}").shuffle(keys)
    chosen = set(keys[:MAX_ORACLE_KEYS])
    oracles = {tag: corpus.open() for tag, corpus in corpora.items()}
    try:
        expected = {
            (tenant, query, runs): canonical_bytes(encode_answer(
                oracles[tenant].lineage(query, runs=runs, strategy="naive")
            ))
            for tenant, query, runs in chosen
        }
    finally:
        for service in oracles.values():
            service.close()
    checked, wrong = 0, []
    for tenant, query, runs, got in decoded:
        key = (tenant, query, runs)
        if key in expected:
            checked += 1
            if expected[key] != got:
                wrong.append(f"{tenant} {query} runs={runs}")
    return checked, wrong
