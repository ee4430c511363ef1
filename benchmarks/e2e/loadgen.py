"""Load generation: closed and open loops over HTTP or in-process.

One process, a few threads.  A request is timed from send — in the open
loop from when it was *due* — to the last body byte (HTTP) or to the
return of ``lineage()`` (in-process).  JSON decoding and answer checking
never happen inside the timed window: the loops keep raw outcomes for a
seeded 1-in-16 sample and everything else is decided afterwards.

HTTP requests are pre-rendered bytes written to a plain keep-alive
socket, so the generator's own cost per request stays a few tens of
microseconds and the same bytes can be replayed through the server's
parser for ``server.http.parse_us_per_op``.
"""

from __future__ import annotations

import random
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence, Tuple
from urllib.parse import quote

from opstream import LATEST, Op

#: One answer in this many is kept for checking against the oracle.
SAMPLE_EVERY = 16


@dataclass
class Outcome:
    """What one phase of one worker set produced."""

    #: (completion time, latency seconds) per successful op, any order.
    stamped: List[Tuple[float, float]] = field(default_factory=list)
    #: Kept sample: (op, strategy, raw outcome of the target's ``call``).
    sampled: List[Tuple[Op, str, Any]] = field(default_factory=list)
    #: Human-readable failures (non-200, refused, raised), capped.
    failures: List[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    rejected: int = 0
    started: float = 0.0
    ended: float = 0.0
    response_bytes: int = 0
    #: CPU seconds the generator threads burned (``loadgen.client_us``).
    client_cpu_seconds: float = 0.0
    #: Open loop only: actual send time minus due time, seconds.
    sched_lag: List[float] = field(default_factory=list)

    @property
    def latencies(self) -> List[float]:
        return [latency for _when, latency in self.stamped]

    @property
    def completed(self) -> int:
        return len(self.stamped)

    @property
    def seconds(self) -> float:
        return max(self.ended - self.started, 1e-9)

    def merge(self, other: "Outcome") -> None:
        self.stamped.extend(other.stamped)
        self.sampled.extend(other.sampled)
        self.failures.extend(other.failures[: 20 - len(self.failures)])
        self.attempted += other.attempted
        self.failed += other.failed
        self.rejected += other.rejected
        self.response_bytes += other.response_bytes
        self.client_cpu_seconds += other.client_cpu_seconds
        self.sched_lag.extend(other.sched_lag)


# -- targets ---------------------------------------------------------------


class _Target:
    """Shared by both entry points: each op prepared once per strategy."""

    def prepared(self, ops: Sequence[Op], strategy: str) -> List[Any]:
        # Rendering 24 000 requests costs as much as a short slice lasts;
        # every loop over the same stream reuses one rendering.
        cache = self.__dict__.setdefault("_prepared", {})
        key = (id(ops), strategy)
        if key not in cache:
            # The entry keeps ``ops`` alive, so its id cannot be reused.
            cache[key] = (ops, [self.prepare(op, strategy) for op in ops])
        return cache[key][1]


class ServiceTarget(_Target):
    """In-process entry point: ``ProvenanceService.lineage``."""

    def __init__(self, service: Any, latest: Optional[List[str]] = None):
        self.service = service
        #: One-element holder of the run the writer acknowledged last.
        self.latest = latest

    def connect(self) -> "ServiceTarget":
        return self

    def close(self) -> None:
        pass

    def prepare(self, op: Op, strategy: str) -> Tuple[Op, str]:
        return (op, strategy)

    def call(self, prepared: Tuple[Op, str]):
        """(ok, 0, (resolved runs, MultiRunResult))."""
        op, strategy = prepared
        runs = op.runs
        if runs is not None and runs[0] == LATEST:
            runs = (self.latest[0],)
        result = self.service.lineage(op.query, runs=runs, strategy=strategy)
        return True, 0, (runs, result)


def render_request(op: Op, strategy: str, host: str) -> bytes:
    """The exact bytes of one lineage GET."""
    run = "-" if op.runs is None else quote(op.runs[0], safe="")
    target = f"/v1/lineage/{run}?q={quote(op.query, safe='')}"
    if strategy != "indexproj":
        target += f"&strategy={strategy}"
    return (
        f"GET {target} HTTP/1.1\r\n"
        f"Host: {host}\r\n"
        f"X-Repro-Tenant: {op.tenant}\r\n"
        "Accept: application/json\r\n"
        "\r\n"
    ).encode("latin-1")


class HttpConnection:
    """One keep-alive socket; ``call`` is one request/response round trip."""

    def __init__(self, host: str, port: int, timeout: float = 30.0) -> None:
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buffer = b""

    def close(self) -> None:
        self.sock.close()

    def call(self, request: bytes):
        """(ok, response bytes, (status, body)) — body read to its end."""
        self.sock.sendall(request)
        buffer = self.buffer
        while True:
            end = buffer.find(b"\r\n\r\n")
            if end >= 0:
                break
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection")
            buffer += chunk
        head = buffer[:end]
        status = int(head[9:12])
        lowered = head.lower()
        at = lowered.find(b"content-length:")
        if at < 0:
            raise ConnectionError("response without Content-Length")
        stop = lowered.find(b"\r\n", at)
        length = int(lowered[at + 15: stop if stop >= 0 else None])
        total = end + 4 + length
        while len(buffer) < total:
            chunk = self.sock.recv(max(65536, total - len(buffer)))
            if not chunk:
                raise ConnectionError("server closed mid-body")
            buffer += chunk
        body = buffer[end + 4: total]
        self.buffer = buffer[total:]
        return status == 200, total, (status, body)


class HttpTarget(_Target):
    """HTTP entry point: ``GET /v1/lineage/{run}?q=lin(...)``."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port

    def connect(self) -> HttpConnection:
        return HttpConnection(self.host, self.port)

    def prepare(self, op: Op, strategy: str) -> bytes:
        return render_request(op, strategy, f"{self.host}:{self.port}")


# -- loops -----------------------------------------------------------------


class _Worker:
    """One generator thread's connection, cursor into the stream, outcome."""

    def __init__(
        self, target: Any, ops: Sequence[Op], prepared: Sequence[Any],
        strategy: str, offset: int, sample_phase: int,
    ) -> None:
        self.target = target
        self.ops = ops
        self.prepared = prepared
        self.strategy = strategy
        self.offset = offset
        self.sample_phase = sample_phase
        self.out = Outcome()

    def _fail(self, slot: int, why: str) -> None:
        self.out.failed += 1
        if len(self.out.failures) < 20:
            self.out.failures.append(f"{self.ops[slot]}: {why}")

    def issue(self, conn: Any, i: int, due: Optional[float] = None) -> Any:
        """Send op ``i``; time it from ``due`` (open loop) or from send."""
        out = self.out
        slot = (self.offset + i) % len(self.ops)
        out.attempted += 1
        t0 = time.perf_counter()
        try:
            ok, nbytes, raw = conn.call(self.prepared[slot])
        except Exception as exc:  # noqa: BLE001 - counted, listed, kept going
            self._fail(slot, repr(exc))
            if isinstance(exc, OSError):
                conn.close()
                conn = self.target.connect()
            return conn
        t1 = time.perf_counter()
        if ok:
            out.stamped.append((t1, t1 - (t0 if due is None else due)))
            out.response_bytes += nbytes
            if (i & (SAMPLE_EVERY - 1)) == self.sample_phase:
                out.sampled.append((self.ops[slot], self.strategy, raw))
        else:
            out.rejected += raw[0] == 429
            self._fail(slot, f"status {raw[0]}")
        return conn

    def run_closed(self, stop_at: Callable[[int], bool]) -> None:
        conn = self.target.connect()
        cpu0 = time.thread_time()
        i = 0
        try:
            while not stop_at(i):
                conn = self.issue(conn, i)
                i += 1
        finally:
            self.out.client_cpu_seconds = time.thread_time() - cpu0
            conn.close()

    def run_open(self, start: float, schedule: Sequence[float]) -> None:
        conn = self.target.connect()
        cpu0 = time.thread_time()
        try:
            for i, due_offset in enumerate(schedule):
                due = start + due_offset
                wait = due - time.perf_counter()
                if wait > 0:
                    # No spinning: on two cores a spinning generator would
                    # take its cycles from the server.  sleep() overshoots
                    # by tens of microseconds; sched_lag reports it.
                    time.sleep(wait)
                self.out.sched_lag.append(time.perf_counter() - due)
                # From when the request was due: a stall is charged to
                # every request it delayed, not only to the one it hit.
                conn = self.issue(conn, i, due=due)
        finally:
            self.out.client_cpu_seconds = time.thread_time() - cpu0
            conn.close()


def _run_workers(
    workers: Sequence[_Worker], calls: Sequence[Callable[[], None]],
    started: float, min_end: float = 0.0,
) -> Outcome:
    if len(calls) == 1:
        calls[0]()  # the in-process reader runs on the calling thread
    else:
        threads = [
            threading.Thread(target=call, name=f"loadgen-{w}")
            for w, call in enumerate(calls)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    total = Outcome(started=started, ended=max(time.perf_counter(), min_end))
    for worker in workers:
        total.merge(worker.out)
    return total


def _make_workers(
    target: Any, ops: Sequence[Op], strategy: str, n: int, seed: int,
    offset: int,
) -> List[_Worker]:
    prepared = target.prepared(ops, strategy)
    sample_phase = random.Random(f"sample-{seed}").randrange(SAMPLE_EVERY)
    stride = max(1, len(ops) // n)
    return [
        _Worker(target, ops, prepared, strategy, offset + w * stride,
                sample_phase)
        for w in range(n)
    ]


def closed_loop(
    target: Any, ops: Sequence[Op], strategy: str, clients: int,
    seconds: Optional[float] = None, count: Optional[int] = None,
    seed: int = 0, offset: int = 0,
) -> Outcome:
    """``clients`` workers, each sending its next op when the last returned.

    Runs for ``seconds`` of wall time, or until each worker has sent
    ``count`` ops (warm-up uses the count so set-up time measures work,
    not a fixed sleep).
    """
    workers = _make_workers(target, ops, strategy, clients, seed, offset)
    started = time.perf_counter()
    if count is not None:
        def stop_at(i: int) -> bool:
            return i >= count
    else:
        deadline = started + float(seconds)

        def stop_at(i: int) -> bool:
            return time.perf_counter() >= deadline
    calls = [lambda w=w: w.run_closed(stop_at) for w in workers]
    return _run_workers(workers, calls, started)


def poisson_schedule(
    rng: random.Random, rate: float, seconds: float
) -> List[float]:
    """Arrival offsets (seconds from phase start) of a Poisson process."""
    at, out = 0.0, []
    while True:
        at += rng.expovariate(rate)
        if at >= seconds:
            return out
        out.append(at)


def open_loop(
    target: Any, ops: Sequence[Op], strategy: str, connections: int,
    rate: float, seconds: float, seed: int = 0, offset: int = 0,
) -> Outcome:
    """Poisson arrivals at ``rate``/s split over ``connections`` sockets.

    The schedule does not slow down with the server.  A connection whose
    previous response is still outstanding sends late, and the lateness
    is part of the measured latency.
    """
    workers = _make_workers(target, ops, strategy, connections, seed, offset)
    schedules = [
        poisson_schedule(
            random.Random(f"open-{seed}-{rate}-{w}"), rate / connections, seconds
        )
        for w in range(connections)
    ]
    start = time.perf_counter() + 0.01
    calls = [
        lambda w=w, s=s: w.run_open(start, s)
        for w, s in zip(workers, schedules)
    ]
    return _run_workers(workers, calls, start, min_end=start + seconds)


# -- ingest beside reads -----------------------------------------------------


@dataclass
class WriterLog:
    #: (run id, completion time, latency seconds) per acknowledged run.
    acked: List[Tuple[str, float, float]] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    attempted: int = 0


class PacedWriter:
    """One writer thread ingesting small runs on a fixed schedule."""

    def __init__(
        self, service: Any, workflow: str, inputs: dict, rate: float,
        latest: List[str], prefix: str = "w",
    ) -> None:
        self.service = service
        self.workflow = workflow
        self.inputs = inputs
        self.rate = rate
        self.latest = latest
        self.prefix = prefix
        self.log = WriterLog()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="writer")

    def _run(self) -> None:
        start = time.perf_counter()
        i = 0
        while not self._stop.is_set():
            due = start + i / self.rate
            wait = due - time.perf_counter()
            if wait > 0 and self._stop.wait(wait):
                break
            run_id = f"{self.prefix}-{i:05d}"
            self.log.attempted += 1
            t0 = time.perf_counter()
            try:
                self.service.run(self.workflow, self.inputs, run_id=run_id)
            except Exception as exc:  # noqa: BLE001 - counted and listed
                self.log.failures.append(f"run {run_id}: {exc!r}")
            else:
                t1 = time.perf_counter()
                self.log.acked.append((run_id, t1, t1 - t0))
                self.latest[0] = run_id
            i += 1

    def __enter__(self) -> "PacedWriter":
        self._thread.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._stop.set()
        self._thread.join()
