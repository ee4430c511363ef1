"""Open-loop latency is taken from when a request was due."""

import socket
import threading
import time

import loadgen
from opstream import Op

STALL = 0.05


class StallingServer:
    """Answers every request 200 with an empty JSON object, 50 ms late."""

    def __init__(self):
        self.sock = socket.socket()
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen(4)
        self.port = self.sock.getsockname()[1]
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        while True:
            try:
                conn, _ = self.sock.accept()
            except OSError:
                return
            threading.Thread(target=self._talk, args=(conn,), daemon=True).start()

    def _talk(self, conn):
        buffer = b""
        with conn:
            while True:
                while b"\r\n\r\n" not in buffer:
                    chunk = conn.recv(65536)
                    if not chunk:
                        return
                    buffer += chunk
                _request, _, buffer = buffer.partition(b"\r\n\r\n")
                time.sleep(STALL)
                conn.sendall(
                    b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                    b"Content-Length: 2\r\nConnection: keep-alive\r\n\r\n{}"
                )

    def close(self):
        self.sock.close()


def test_open_loop_charges_the_stall_to_every_request_it_delays():
    server = StallingServer()
    try:
        target = loadgen.HttpTarget("127.0.0.1", server.port)
        ops = [Op("t", "lin(<a:b[0]>, {c})", ("r",))] * 64
        # 100 requests/s on one connection, each stalled 50 ms: the server
        # can only do 20/s, so the queue grows for the whole phase.
        outcome = loadgen.open_loop(target, ops, "indexproj", 1, 100.0, 0.5, seed=3)
    finally:
        server.close()
    assert outcome.failed == 0 and outcome.completed >= 20
    latencies = sorted(outcome.latencies)
    # Timed from send, every request would read ~50 ms.  From due time the
    # k-th one has also waited for the k before it.
    assert latencies[0] >= STALL * 0.9
    assert latencies[-1] > 10 * STALL
    assert max(outcome.sched_lag) > 5 * STALL


def test_closed_loop_times_from_send():
    server = StallingServer()
    try:
        target = loadgen.HttpTarget("127.0.0.1", server.port)
        ops = [Op("t", "lin(<a:b[0]>, {c})", ("r",))] * 8
        outcome = loadgen.closed_loop(target, ops, "indexproj", 1, count=5)
    finally:
        server.close()
    assert outcome.completed == 5 and outcome.failed == 0
    assert all(STALL * 0.9 <= lat < 3 * STALL for lat in outcome.latencies)


def test_poisson_schedule_is_seeded_and_has_the_asked_rate():
    import random

    first = loadgen.poisson_schedule(random.Random(5), 500.0, 4.0)
    again = loadgen.poisson_schedule(random.Random(5), 500.0, 4.0)
    assert first == again
    assert 1800 < len(first) < 2200
    assert all(b > a for a, b in zip(first, first[1:]))
