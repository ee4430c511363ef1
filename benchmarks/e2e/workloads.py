"""The six workloads and the two kinds of run (untraced, traced).

Every workload has the same anatomy, so every workload reports the same
end-to-end vector:

set-up (x3, median reported)
    build the corpus through ``ProvenanceService.run`` (ingest rate and
    per-run latency come from here), open the store or start the server
    child, send a fixed number of warm-up ops.
timed run (``--seconds`` S, split 0.85 / 0.15)
    *main*: the workload's own traffic;
    *cold*: open -> register -> first lineage -> close cycles.
afterwards
    stop the program, check sampled answers against the oracle, measure
    bytes on disk.

What differs between workloads is the entry point (HTTP child or
in-process), the loop (closed, open, or open beside a paced writer), the
strategy asked for (INDEXPROJ, or NI on ``engine-naive``) and the key
distribution of the op stream — nothing else, and no flags.
"""

from __future__ import annotations

import os
import random
import shutil
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import ProvenanceService

import harness
import layers
import opstream
import spans as span_mod
from corpora import SIZES, Corpus, build_corpus
from loadgen import (
    HttpTarget, Outcome, PacedWriter, ServiceTarget, WriterLog, closed_loop,
    open_loop, render_request,
)
from stats import (
    highest_supported_percentile, percentile, split_windows, summarize,
    window_range, window_rates,
)

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Shares of ``--seconds`` in an untraced run.
MAIN_SHARE, COLD_SHARE = 0.85, 0.15
#: Shares of ``--seconds`` in a traced run; the rest goes to the
#: workload's extra (obs A/B on http-point, rate ladder on http-open).
BASE_SHARE, TRACED_SHARE, EXTRA_SHARE = 0.25, 0.35, 0.40

#: Open loop: the gated rate, the ladder around it, the latency limit.
OPEN_RATE = 600
OPEN_LADDER = (300, 600, 900, 1200)
OPEN_LIMIT_P99_MS = 10.0
#: Mixed phase: reads per second (Poisson) and small runs per second from
#: the paced writer.  The reader is not a closed loop: over its fully
#: cached key set a closed loop never releases the GIL, the writer then
#: pays a 5 ms switch interval per row it binds, and one ingest takes
#: seconds (README, "Writer starvation") - a bistable state, not a number.
MIXED_READ_RATE = 300
WRITE_RATE = 20
#: Interleaved obs on/off pairs on http-point (alternating order).
OBS_PAIRS = 6


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    entry: str  # "http" | "service"
    loop: str  # "closed" | "open" | "mixed" (open-loop reads + paced writer)
    #: (corpus tag, workflow kind, SIZES key, shards)
    corpora: Tuple[Tuple[str, str, str, Optional[int]], ...]
    stream: Callable[[int, Dict[str, Corpus]], List[opstream.Op]]
    clients: int
    strategy: str = "indexproj"
    #: Warm-up ops per client, sent inside set-up: a count, not a duration,
    #: so set-up time measures work.
    warmup_ops: int = 200


def _point(seed: int, corpora: Dict[str, Corpus]) -> List[opstream.Op]:
    return opstream.point_stream(
        seed, {tag: (c.kind, c.run_ids) for tag, c in corpora.items()}
    )


def _wide(seed: int, corpora: Dict[str, Corpus]) -> List[opstream.Op]:
    return opstream.wide_stream(seed, {tag: c.kind for tag, c in corpora.items()})


def _unique(seed: int, corpora: Dict[str, Corpus]) -> List[opstream.Op]:
    return opstream.unique_stream(seed, corpora["syn"].run_ids)


def _mixed(seed: int, corpora: Dict[str, Corpus]) -> List[opstream.Op]:
    return opstream.mixed_stream(seed, corpora["syn"].run_ids)


_POINT_CORPORA = (("gk", "gk", "gk", None), ("pd", "pd", "pd", None))

WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "http-point",
        "small answers, mostly cache hits: socket, HTTP parse, routing, "
        "admission hop, registry, precheck and obs do the work; engine and "
        "storage almost none",
        "http", "closed", _POINT_CORPORA, _point, 2,
    ),
    Workload(
        "http-open",
        "same keys on a Poisson schedule that does not slow with the server: "
        "shows admission wait and queueing a 2-client closed loop hides",
        "http", "open", _POINT_CORPORA, _point, 2,
    ),
    Workload(
        "http-wide",
        "all-runs answers, always cached: codec, JSON serialisation and the "
        "socket write carry the request; an engine change must not show",
        "http", "closed",
        (("gk-wide", "gk", "gk-wide", None), ("pd-wide", "pd", "pd-wide", None)),
        _wide, 2,
    ),
    Workload(
        "engine-unique",
        "in-process, ~20k distinct keys and 1250 plan shapes: caches and plan "
        "registry miss, so plan compile, key grid, SQL and row decode do the work",
        "service", "closed", (("syn", "syn", "syn", None),), _unique, 1,
    ),
    Workload(
        "engine-sharded",
        "the identical op stream on a 4-shard copy: every difference from "
        "engine-unique is scatter-gather, manifest and generation summing",
        "service", "closed", (("syn", "syn", "syn", 4),), _unique, 1,
    ),
    Workload(
        "engine-naive",
        "the engine-unique op stream answered by strategy=naive, the paper's "
        "baseline: moves with the NI executor and the store's read primitives only",
        "service", "closed", (("syn", "syn", "syn", None),), _unique, 1, "naive",
        warmup_ops=20,  # NI warms nothing but the trace cache, at ~25 ms an op
    ),
    Workload(
        "mixed-ingest",
        "paced reads beside a paced writer: each ingest bumps generations, so "
        "invalidation cost, GIL and writer-lock contention and read-side taxes show",
        "service", "mixed", (("syn", "syn", "mixed", None),), _mixed, 1,
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}

#: Registered on the server child for every tenant (``--workload`` keys).
SERVER_WORKLOADS = ("gk", "pd")


# -- environment -----------------------------------------------------------------


@dataclass
class Env:
    """One set-up: corpora built, program running, warm."""

    workload: Workload
    root: str
    corpora: Dict[str, Corpus]
    ops: List[opstream.Op]
    target: Any = None
    service: Any = None
    server: Optional[harness.ServerProcess] = None
    latest: List[str] = field(default_factory=lambda: [""])

    def rss_mb(self) -> float:
        return self.server.rss_mb() if self.server else harness.rss_mb()

    def counters(self) -> Dict[str, float]:
        if self.server is not None:
            return harness.server_counters(self.server.url, sorted(self.corpora))
        return harness.service_counters(self.service)

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None
        if self.service is not None:
            self.service.close()
            self.service = None


def _corpus_path(root: str, tag: str, shards: Optional[int]) -> str:
    # The server's path-mode registry wants <root>/<tenant>.db; a sharded
    # store is a directory and takes the bare tag.
    return os.path.join(root, tag if shards is not None else f"{tag}.db")


def set_up(workload: Workload, root: str, seed: int) -> Env:
    """Build, open/start, warm.  Everything ``setup_s`` charges for."""
    os.makedirs(root)
    rng = random.Random(f"corpus-{seed}")
    corpora = {
        tag: build_corpus(
            tag, kind, _corpus_path(root, tag, shards), SIZES[size], rng, shards
        )
        for tag, kind, size, shards in workload.corpora
    }
    env = Env(workload, root, corpora, workload.stream(seed, corpora))
    try:
        _start(env)
        warm_up(env)
    except BaseException:
        env.close()
        raise
    return env


def warm_up(env: Env) -> None:
    """A fixed number of ops of the workload's own stream, untimed."""
    w = env.workload
    closed_loop(env.target, env.ops, w.strategy, w.clients, count=w.warmup_ops)


def _start(env: Env, **server_options: Any) -> None:
    if env.workload.entry == "http":
        env.server = harness.ServerProcess(
            env.root, SERVER_WORKLOADS, **server_options
        )
        env.target = HttpTarget(env.server.host, env.server.port)
    else:
        corpus = env.corpora["syn"]
        env.service = corpus.open()
        env.latest[0] = corpus.run_ids[-1]
        env.target = ServiceTarget(env.service, env.latest)


# -- phases ------------------------------------------------------------------------


@dataclass
class MainPhase:
    reads: Outcome
    writer: Optional[WriterLog] = None


def run_main(env: Env, seconds: float, seed: int, offset: int) -> MainPhase:
    """The workload's own traffic for ``seconds``."""
    w = env.workload
    if w.loop == "open":
        return MainPhase(open_loop(
            env.target, env.ops, w.strategy, w.clients, OPEN_RATE, seconds,
            seed=seed, offset=offset,
        ))
    if w.loop == "mixed":
        syn = env.corpora["syn"].workflow
        writer = PacedWriter(
            env.service, syn.name,
            {"ListSize": opstream.MIXED_WRITE_LIST_SIZE}, WRITE_RATE,
            env.latest, prefix=f"w{offset}",
        )
        with writer:
            reads = open_loop(
                env.target, env.ops, w.strategy, w.clients, MIXED_READ_RATE,
                seconds, seed=seed, offset=offset,
            )
        return MainPhase(reads, writer.log)
    return MainPhase(closed_loop(
        env.target, env.ops, w.strategy, w.clients, seconds=seconds,
        seed=seed, offset=offset,
    ))


def cold_target(env: Env) -> Tuple[Corpus, opstream.Op]:
    """What the cold cycle opens and asks: the first corpus, one fixed query
    (its first run, or every run where the workload's own ops ask that)."""
    corpus = next(iter(env.corpora.values()))
    runs = None if env.ops[0].runs is None else (corpus.run_ids[0],)
    return corpus, opstream.canonical_op(corpus.kind, corpus.tag, runs)


def check_acknowledged(env: Env, logs: Sequence[WriterLog]) -> Tuple[int, List[str]]:
    """After close: reopen, every acknowledged run present with its records."""
    acked = [run_id for log in logs for run_id, _when, _lat in log.acked]
    if not acked:
        return 0, []
    corpus = env.corpora["syn"]
    # What one writer run must hold, from a store of its own.
    with ProvenanceService() as reference:
        reference.register_workflow(corpus.workflow.flow)
        reference.run(
            corpus.workflow.name, {"ListSize": opstream.MIXED_WRITE_LIST_SIZE}
        )
        expected = reference.store.record_count()
    service = corpus.open()
    try:
        stored = set(service.runs_of(corpus.workflow.name))
        missing = [
            run_id for run_id in acked
            if run_id not in stored
            or service.store.record_count(run_id) != expected
        ]
    finally:
        service.close()
    return len(acked), [f"acknowledged run missing after reopen: {r}" for r in missing]


# -- the untraced run: end-to-end metrics -----------------------------------------


def _ms(seconds: float) -> float:
    return seconds * 1000.0


def _latency_detail(outcome: Outcome, pct: float) -> Dict[str, Any]:
    window = window_range(outcome.stamped, outcome.started, outcome.ended, pct)
    highest = highest_supported_percentile(outcome.completed)
    detail: Dict[str, Any] = {
        "samples": outcome.completed,
        "window_min_max_ms": [_ms(window[0]), _ms(window[1])] if window else None,
        "highest_supported_percentile": highest,
    }
    if highest is not None and highest > 95:
        # Informational: the tail beyond the gated p95 that this run's
        # sample count supports.
        detail[f"p{highest:g}_ms"] = _ms(
            percentile(sorted(outcome.latencies), highest)
        )
    return detail


def _tally(
    outcomes: Sequence[Outcome], logs: Sequence[WriterLog], wrong: Sequence[str],
    lost: Sequence[str], extra_attempted: int = 0,
) -> Tuple[int, int, List[str]]:
    """(attempted, failed, failures listed by key) of one whole run.

    Failed = non-200 + refused + raised + wrong answers + runs that were
    acknowledged and are gone after reopen.
    """
    attempted = (
        sum(o.attempted for o in outcomes) + sum(log.attempted for log in logs)
        + extra_attempted
    )
    failures = (
        [f for o in outcomes for f in o.failures] + list(wrong) + list(lost)
        + [f for log in logs for f in log.failures]
    )
    failed = (
        sum(o.failed for o in outcomes) + len(wrong) + len(lost)
        + sum(len(log.failures) for log in logs)
    )
    return attempted, failed, failures[:20]


def run_untraced(
    workload: Workload, workdir: str, seed: int, seconds: float,
    setup_repeats: int = SETUP_REPEATS,
) -> Dict[str, Any]:
    """Set up (several times), run the timed phases, verify; end-to-end only."""
    setup_times: List[float] = []
    ingest_lat: List[float] = []
    records = 0
    env: Optional[Env] = None
    for rep in range(setup_repeats):
        if env is not None:
            env.close()
            shutil.rmtree(env.root)
        t0 = time.perf_counter()
        env = set_up(workload, os.path.join(workdir, f"setup{rep}"), seed)
        setup_times.append(time.perf_counter() - t0)
        for corpus in env.corpora.values():
            ingest_lat.extend(corpus.ingest_seconds)
            records += corpus.records
    assert env is not None
    ingest_rate = records / sum(ingest_lat)
    try:
        main = run_main(env, seconds * MAIN_SHARE, seed, offset=workload.warmup_ops)
        rss = env.rss_mb()
        cold = harness.cold_cycles(*cold_target(env), seconds * COLD_SHARE)
    finally:
        env.close()

    reads = main.reads
    checked, wrong = harness.verify([reads], env.corpora, seed)
    logs = [main.writer] if main.writer is not None else []
    acked, lost = check_acknowledged(env, logs)
    if main.writer is not None:
        ingest_lat = [lat for _run, _when, lat in main.writer.acked]
    stored = sum(c.stored_records() for c in env.corpora.values())
    disk = sum(c.disk_bytes() for c in env.corpora.values())
    attempted, failed, failures = _tally([reads], logs, wrong, lost, len(cold))

    lat = sorted(reads.latencies)
    ingest_sorted = sorted(ingest_lat)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "read_ops_s": reads.completed / reads.seconds,
        "read_p50_ms": _ms(percentile(lat, 50)),
        "read_p95_ms": _ms(percentile(lat, 95)),
        "cold_read_p50_ms": _ms(statistics.median(cold)),
        "ingest_records_s": ingest_rate,
        "ingest_p50_ms": _ms(percentile(ingest_sorted, 50)),
        "rss_mb": rss,
        "db_bytes_per_record": disk / stored,
    }
    detail = {
        "op_stream_digest": opstream.digest(env.ops),
        "setup_s_each": setup_times,
        "phase_seconds": {"main": reads.seconds, "cold": seconds * COLD_SHARE},
        "read_ops_s": {"window_min_max": list(
            window_rates(reads.stamped, reads.started, reads.ended)
        )},
        "read_p50_ms": _latency_detail(reads, 50),
        "read_p95_ms": _latency_detail(reads, 95),
        "cold_read_p50_ms": {"samples": len(cold)},
        "ingest_p50_ms": {
            "samples": len(ingest_sorted),
            "measured_in": "mixed phase" if main.writer else "corpus build",
            # Informational: too few samples to gate on (README).
            "p95_ms": _ms(percentile(ingest_sorted, 95)),
        },
        "answers_checked": checked,
        "acknowledged_runs_checked": acked,
        "failed_ratio": failed / max(attempted, 1),
        "failures": failures,
    }
    if reads.sched_lag:
        detail["sched_lag_p99_ms"] = _ms(percentile(sorted(reads.sched_lag), 99))
    return {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": metrics, "detail": detail,
    }


# -- the traced run: per-layer metrics ---------------------------------------------


def obs_overhead(env: Env, seconds: float, seed: int) -> Dict[str, Any]:
    """Interleaved A/B: shipped server (obs on) vs the same server on NO_OBS.

    Alternating-order pairs of equal slices against two live children, so
    drift and neighbour noise hit both sides alike.
    """
    w = env.workload
    plain = harness.ServerProcess(env.root, SERVER_WORKLOADS, no_obs=True)
    try:
        sides = {"on": env.target, "off": HttpTarget(plain.host, plain.port)}
        closed_loop(sides["off"], env.ops, w.strategy, w.clients, count=w.warmup_ops)
        slice_seconds = seconds / (2 * OBS_PAIRS)
        p50s: Dict[str, List[float]] = {"on": [], "off": []}
        failed = 0
        for pair in range(OBS_PAIRS):
            for side in (("on", "off") if pair % 2 == 0 else ("off", "on")):
                outcome = closed_loop(
                    sides[side], env.ops, w.strategy, w.clients,
                    seconds=slice_seconds, seed=seed, offset=(pair + 2) * 997,
                )
                p50s[side].append(_ms(statistics.median(outcome.latencies)))
                failed += outcome.failed
    finally:
        plain.stop()
    return {
        "ratio": statistics.median(p50s["on"]) / statistics.median(p50s["off"]),
        "obs_on_p50_ms": summarize(p50s["on"]),
        "obs_off_p50_ms": summarize(p50s["off"]),
        "pairs": OBS_PAIRS, "slice_seconds": slice_seconds, "failed": failed,
    }


def rate_ladder(
    env: Env, seconds: float, seed: int, known: Dict[int, Outcome]
) -> Tuple[Dict[int, Dict[str, Any]], int]:
    """Open-loop rungs around the gated rate; the highest one that holds."""
    w = env.workload
    rungs = dict(known)
    extra = [rate for rate in OPEN_LADDER if rate not in rungs]
    for rate in extra:
        rungs[rate] = open_loop(
            env.target, env.ops, w.strategy, w.clients, rate,
            seconds / len(extra), seed=seed, offset=rate,
        )
    report: Dict[int, Dict[str, Any]] = {}
    best = 0
    for rate in sorted(rungs):
        outcome = rungs[rate]
        lat = sorted(outcome.latencies)
        p99 = _ms(percentile(lat, 99)) if lat else float("inf")
        medians = [
            statistics.median(chunk) for chunk in
            split_windows(outcome.stamped, outcome.started, outcome.ended)
            if chunk
        ]
        # A queue that keeps growing shows as latency-from-due climbing
        # from the first window of the rung to the last.
        growing = len(medians) > 1 and medians[-1] > max(2 * medians[0], 0.001)
        ok = outcome.failed == 0 and p99 <= OPEN_LIMIT_P99_MS and not growing
        report[rate] = {
            "p50_ms": _ms(percentile(lat, 50)) if lat else None, "p99_ms": p99,
            "samples": outcome.completed, "failed": outcome.failed,
            "backlog_growing": growing, "meets_limit": ok,
        }
        if ok:
            best = rate
    return report, best


def _sample_stats(outcome: Outcome) -> Tuple[List[Dict[str, Any]], List[int]]:
    metas, bindings = [], []
    for _op, _strategy, raw in outcome.sampled:
        _runs, _bytes, meta, bound = harness.decode(raw)
        metas.append(meta)
        bindings.append(bound)
    return metas, bindings


def run_traced(
    workload: Workload, workdir: str, seed: int, seconds: float
) -> Dict[str, Any]:
    """One set-up; an untraced baseline slice, then the traced slice.

    Nothing here feeds an end-to-end metric: the traced program is slower
    by ``trace.overhead_ratio`` and only lends its span self times.
    """
    http = workload.entry == "http"
    env = set_up(workload, os.path.join(workdir, "traced"), seed)
    recorder: Optional[span_mod.Recorder] = None
    spans_path = os.path.join(workdir, "spans.jsonl")
    extras: Dict[str, Any] = {}
    values: Dict[str, float] = {}
    try:
        base = run_main(env, seconds * BASE_SHARE, seed, offset=workload.warmup_ops)
        if workload.name == "http-point":
            extras["obs"] = obs_overhead(env, seconds * EXTRA_SHARE, seed)
            values["obs.overhead_ratio"] = extras["obs"]["ratio"]
        if workload.loop == "open":
            extras["ladder"], best = rate_ladder(
                env, seconds * EXTRA_SHARE, seed, {OPEN_RATE: base.reads}
            )
            values["loadgen.max_rate_ok_rps"] = float(best)
            for rate in (300, 900):
                values[f"loadgen.open_p99_ms.r{rate}"] = (
                    extras["ladder"][rate]["p99_ms"]
                )
        # Switch to the traced program: a second child with the recorder
        # installed (HTTP), or the recorder installed right here.
        if http:
            env.close()
            _start(env, spans_out=spans_path)
            warm_up(env)
        else:
            recorder = span_mod.Recorder()
            recorder.install()
        before = env.counters()
        t_lo = time.perf_counter_ns()
        traced = run_main(env, seconds * TRACED_SHARE, seed, offset=2 * workload.warmup_ops)
        t_hi = time.perf_counter_ns()
        after = env.counters()
    finally:
        if recorder is not None:
            recorder.uninstall()
        env.close()
    if recorder is not None:
        all_spans, missing = recorder.spans, recorder.missing
    else:
        all_spans, missing = span_mod.load(spans_path)

    reads = traced.reads
    metas, bindings = _sample_stats(reads)
    parse_us = None
    if http:
        host = f"{env.target.host}:{env.target.port}"
        parse_us = harness.replay_parse_us(
            [render_request(op, workload.strategy, host) for op in env.ops[:2000]]
        )
    logs = [log for log in (base.writer, traced.writer) if log is not None]
    table = layers.SpanTable(span_mod.within(all_spans, t_lo, t_hi))
    values.update(layers.compute(
        http=http, naive=workload.strategy == "naive",
        table=table, ops=reads.completed, wall_us=sum(reads.latencies) * 1e6,
        counters=harness.delta(after, before), gauges=after,
        metas=metas, bindings=bindings,
        ingested_runs=len(traced.writer.acked) if traced.writer else 0,
        parse_us=parse_us,
    ))
    base_p50 = statistics.median(base.reads.latencies)
    traced_p50 = statistics.median(reads.latencies)
    values["trace.overhead_ratio"] = traced_p50 / base_p50
    values["trace.boundaries_missing"] = float(len(missing))
    if http:
        # CPU the generator's own threads burned per request.
        values["loadgen.client_us_per_op"] = (
            reads.client_cpu_seconds / max(reads.completed, 1) * 1e6
        )
        values["server.http.response_bytes_per_op"] = (
            reads.response_bytes / max(reads.completed, 1)
        )
        values["server.admission.rejected_ratio"] = (
            reads.rejected / max(reads.attempted, 1)
        )
    if reads.sched_lag:
        values["loadgen.sched_lag_p99_ms"] = _ms(
            percentile(sorted(reads.sched_lag), 99)
        )

    checked, wrong = harness.verify([reads], env.corpora, seed)
    acked, lost = check_acknowledged(env, logs)
    attempted, failed, failures = _tally([base.reads, reads], logs, wrong, lost)
    if "obs" in extras:
        failed += extras["obs"]["failed"]
    detail = {
        "op_stream_digest": opstream.digest(env.ops),
        "phase_seconds": {"baseline": base.reads.seconds, "traced": reads.seconds},
        "samples": {"baseline": base.reads.completed, "traced": reads.completed,
                    "spans": len(all_spans)},
        "read_p50_ms": {"untraced": _ms(base_p50), "traced": _ms(traced_p50)},
        "boundaries_missing": missing,
        "waterfall": layers.waterfall(
            table, reads.completed, sum(reads.latencies) * 1e6, values
        ),
        "answers_checked": checked,
        "acknowledged_runs_checked": acked,
        "failures": failures,
        **extras,
    }
    return {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": values, "detail": detail,
    }
