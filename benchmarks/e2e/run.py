#!/usr/bin/env python3
"""The request waterfall: one end-to-end, layered benchmark.

    python3 benchmarks/e2e/run.py                      # six workloads, untraced
    python3 benchmarks/e2e/run.py --trace              # ... plus the traced runs
    python3 benchmarks/e2e/run.py --smoke              # everything, tiny phases
    python3 benchmarks/e2e/run.py --workload http-wide --seed 3 --out r.json
    python3 benchmarks/e2e/run.py compare A.json B.json
    python3 benchmarks/e2e/run.py waterfall r.json     # layer shares, Markdown

Driver form (one workload, one run, result object on the last line):

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import sqlite3
import subprocess
import sys
import time
from typing import Any, Dict, Iterator, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
if not os.path.isdir(os.path.join(SRC, "repro")):
    sys.exit(f"run.py: no program to measure: {SRC}/repro is missing")
sys.path.insert(0, SRC)
sys.path.insert(0, HERE)

import compare  # noqa: E402
import waterfall  # noqa: E402
import workloads  # noqa: E402

#: Scratch space: inside the checkout, ignored by git, removed on exit.
WORK_ROOT = os.path.join(ROOT, ".bench_work")

SMOKE_SECONDS = 1.5


def load_contract() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def stamp(seed: int, seconds: float) -> Dict[str, Any]:
    try:
        sha = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    return {
        "commit": sha, "seed": seed, "seconds": seconds,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "sqlite": sqlite3.sqlite_version, "platform": platform.platform(),
        "corpus_runs": dict(workloads.SIZES),
        "phase_shares": {
            "untraced": [workloads.MAIN_SHARE, workloads.COLD_SHARE],
            "traced": [workloads.BASE_SHARE, workloads.TRACED_SHARE,
                       workloads.EXTRA_SHARE],
        },
    }


def units(contract: Dict[str, Any]) -> Dict[str, str]:
    return {
        m["name"]: m["unit"]
        for m in contract["end_to_end"] + contract["per_layer"]
    }


@contextlib.contextmanager
def scratch(name: str) -> Iterator[str]:
    """A directory under ``.bench_work/`` that is gone afterwards."""
    path = os.path.join(WORK_ROOT, f"{os.getpid()}-{name}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass  # another invocation is using it


def run_one(
    name: str, seed: int, seconds: float, trace: bool, setup_repeats: int,
) -> Dict[str, Any]:
    """One run of one workload in a scratch directory of its own."""
    started = time.perf_counter()
    with scratch(f"{name}-{int(trace)}") as workdir:
        if trace:
            result = workloads.run_traced(
                workloads.BY_NAME[name], workdir, seed, seconds
            )
        else:
            result = workloads.run_untraced(
                workloads.BY_NAME[name], workdir, seed, seconds, setup_repeats
            )
    result.update(
        workload=name, trace=int(trace), seed=seed, seconds=seconds,
        wall_seconds=time.perf_counter() - started,
    )
    return result


def show(result: Dict[str, Any], unit_of: Dict[str, str]) -> None:
    kind = "per-layer (traced run)" if result["trace"] else "end-to-end"
    print(f"\n== {result['workload']}: {kind}, seed {result['seed']}, "
          f"{result['seconds']} s, took {result['wall_seconds']:.1f} s ==")
    detail = result["detail"]
    for name, value in result["metrics"].items():
        extra = detail.get(name) if isinstance(detail.get(name), dict) else None
        note = ""
        if extra:
            parts = []
            if "samples" in extra:
                parts.append(f"n={extra['samples']}")
            for key in ("window_min_max_ms", "window_min_max"):
                if extra.get(key):
                    low, high = extra[key]
                    parts.append(f"windows {low:.4g}..{high:.4g}")
            # Informational tails the sample count supports (p99_ms, ...).
            parts += [
                f"{key[:-3]} {extra[key]:.4g}" for key in sorted(extra)
                if key.startswith("p") and key.endswith("_ms")
            ]
            note = "  (" + ", ".join(parts) + ")" if parts else ""
        print(f"  {name:<46s} {value:>14.6g} {unit_of.get(name, ''):<6s}{note}")
    print(f"  attempted {result['attempted']}, failed {result['failed']}, "
          f"answers checked {detail.get('answers_checked')}, "
          f"op stream {detail['op_stream_digest'][:12]}")
    for failure in detail.get("failures", []):
        print(f"  FAILED: {failure}")
    for missing in detail.get("boundaries_missing", []):
        print(f"  boundary missing: {missing}")


def driver_line(result: Dict[str, Any], contract: Dict[str, Any]) -> str:
    """The contract's result object: every declared metric of the mode."""
    declared = contract["per_layer"] if result["trace"] else contract["end_to_end"]
    metrics = {
        m["name"]: {
            # A layer this program or workload does not have reports 0.
            "value": float(result["metrics"].get(m["name"], 0.0)),
            "unit": m["unit"],
        }
        for m in declared
    }
    return json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    })


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "compare":
        return compare.main(argv[1:], load_contract())
    if argv and argv[0] == "waterfall":
        return waterfall.main(argv[1:])
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=contract["run_seconds"])
    parser.add_argument(
        "--trace", nargs="?", type=int, choices=(0, 1), const=1, default=None,
        help="driver form: 0 = untraced run, 1 = traced run; as a bare flag "
        "in suite form: add the traced run after each untraced one",
    )
    parser.add_argument("--smoke", action="store_true",
                        help="all workloads, untraced and traced, tiny phases")
    parser.add_argument("--out", help="write the result file (JSON) here")
    args = parser.parse_args(argv)

    unit_of = units(contract)
    seconds = SMOKE_SECONDS if args.smoke else args.seconds
    if args.workload and args.trace is not None:
        # The driver form: one workload, one run, in this process.
        result = run_one(
            args.workload, args.seed, seconds, bool(args.trace),
            1 if args.smoke else workloads.SETUP_REPEATS,
        )
        show(result, unit_of)
        write_results(args.out, [result], args.seed, seconds)
        # The result object says whether the run was correct; the exit
        # status only says that there is a result.
        print(driver_line(result, contract))
        return 0
    # The suite form: every run is the driver form in a process of its own,
    # so a workload's numbers (rss_mb above all) do not depend on which
    # workloads ran before it.
    modes = (0, 1) if args.smoke or args.trace else (0,)
    results: List[Dict[str, Any]] = []
    with scratch("suite") as tmp:
        for name in ([args.workload] if args.workload else names):
            for mode in modes:
                out = os.path.join(tmp, "run.json")
                argv_one = [
                    sys.executable, os.path.abspath(__file__), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(mode), "--out", out,
                ] + (["--smoke"] if args.smoke else [])
                proc = subprocess.run(argv_one, capture_output=True, text=True)
                print("\n".join(proc.stdout.splitlines()[:-1]))  # not the object
                if proc.returncode != 0:
                    sys.stderr.write(proc.stderr)
                    return proc.returncode
                with open(out, "r", encoding="utf-8") as fh:
                    results.extend(json.load(fh)["runs"])
    write_results(args.out, results, args.seed, seconds)
    return 0 if all(r["correct"] for r in results) else 1


def write_results(
    path: Optional[str], results: List[Dict[str, Any]], seed: int, seconds: float
) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"stamp": stamp(seed, seconds), "runs": results},
                fh, indent=1, sort_keys=True,
            )
            fh.write("\n")


if __name__ == "__main__":
    raise SystemExit(main())
