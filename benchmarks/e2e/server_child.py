"""Benchmark-owned launcher for the server under test (a child process).

Builds the server exactly as ``repro-prov serve --tenant-root DIR
--workload gk --workload pd --port 0`` would (``repro.cli.build_server``:
obs on, 4 workers, queue 16), binds, prints ``PORT <n>`` on stdout, and
serves until SIGTERM.  Two benchmark-only switches:

``--spans-out FILE``  install the span recorder before the server is
                      built and dump the spans to FILE on SIGTERM;
``--no-obs``          rebuild the same server around ``NO_OBS`` — the B
                      side of the interleaved obs-overhead measurement.
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))
sys.path.insert(0, HERE)


def build(tenant_root: str, workloads: list, no_obs: bool):
    from repro.cli import build_parser, build_server

    argv = ["serve", "--tenant-root", tenant_root, "--port", "0"]
    for name in workloads:
        argv += ["--workload", name]
    server = build_server(build_parser().parse_args(argv))
    if not no_obs:
        return server
    from repro.obs.core import NO_OBS
    from repro.server import ProvenanceServer, TenantRegistry

    shipped = server.registry
    registry = TenantRegistry(
        root=shipped.root, setup=shipped.setup, max_open=shipped.max_open,
        create=shipped.create, obs=NO_OBS,
        slowlog_threshold_ms=shipped.slowlog_threshold_ms,
        slowlog_ring=shipped.slowlog_ring, shards=shipped.shards,
    )
    server.admission.close()
    return ProvenanceServer(
        config=dataclasses.replace(server.config, obs=NO_OBS),
        registry=registry,
    )


async def serve(server) -> None:
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    loop.add_signal_handler(signal.SIGTERM, stop.set)
    loop.add_signal_handler(signal.SIGINT, stop.set)
    await server.start()
    print(f"PORT {server.port}", flush=True)
    try:
        await stop.wait()
    finally:
        await server.stop()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tenant-root", required=True)
    parser.add_argument("--workload", action="append", default=[])
    parser.add_argument("--no-obs", action="store_true")
    parser.add_argument("--spans-out")
    args = parser.parse_args()
    recorder = None
    if args.spans_out:
        from spans import Recorder

        recorder = Recorder()
        recorder.install()
    try:
        asyncio.run(serve(build(args.tenant_root, args.workload, args.no_obs)))
    finally:
        if recorder is not None:
            recorder.dump(args.spans_out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
