"""``run.py compare``: two sets of result files, one verdict per pair.

One row per (workload, end-to-end metric): both medians, the ratio *and
its base*, the metric's bound, and a verdict —

``ok``          the new median is no worse than the base by more than
                the bound;
``regressed``   it is worse by more than the bound;
``unresolved``  a side's own run-to-run spread, (Q3-Q1)/median, is wider
                than the bound, so the comparison cannot tell.

Exit status is non-zero when any row regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
from typing import Any, Dict, List, Sequence, Tuple

from stats import quartile_spread


def load_side(paths: Sequence[str]) -> Tuple[Dict[Tuple[str, str], List[float]], List[Dict[str, Any]]]:
    """(workload, metric) -> values over every untraced run in the files."""
    values: Dict[Tuple[str, str], List[float]] = {}
    stamps = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        stamps.append(doc["stamp"])
        for run in doc["runs"]:
            if run["trace"]:
                continue  # end-to-end numbers never come from a traced run
            for name, value in run["metrics"].items():
                values.setdefault((run["workload"], name), []).append(value)
    return values, stamps


def worse_by(base: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``."""
    if base == 0:
        return 0.0 if new == 0 else float("inf")
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def judge(base: List[float], new: List[float], better: str, bound: float) -> Dict[str, Any]:
    base_median, new_median = statistics.median(base), statistics.median(new)
    spread = max(quartile_spread(base), quartile_spread(new))
    worse = worse_by(base_median, new_median, better)
    if spread > bound:
        verdict = "unresolved"
    elif worse > bound:
        verdict = "regressed"
    else:
        verdict = "ok"
    return {
        "base": base_median, "new": new_median,
        "ratio": new_median / base_median if base_median else float("nan"),
        "spread": spread, "worse_by": worse, "verdict": verdict,
    }


def main(argv: Sequence[str], contract: Dict[str, Any]) -> int:
    parser = argparse.ArgumentParser(prog="run.py compare", description=__doc__)
    parser.add_argument("files", nargs="*", help="BASE.json NEW.json")
    parser.add_argument("--base", nargs="+", default=[], help="base result files")
    parser.add_argument("--new", nargs="+", default=[], help="new result files")
    args = parser.parse_args(argv)
    if args.files:
        if len(args.files) != 2 or args.base or args.new:
            parser.error("give BASE.json NEW.json, or --base ... --new ...")
        args.base, args.new = [args.files[0]], [args.files[1]]
    if not args.base or not args.new:
        parser.error("both sides need at least one result file")
    base, base_stamps = load_side(args.base)
    new, new_stamps = load_side(args.new)
    machines = {
        (s["nproc"], s["python"], s["sqlite"], s["seconds"])
        for s in base_stamps + new_stamps
    }
    if len(machines) > 1:
        print(f"WARNING: sides differ in (nproc, python, sqlite, seconds): "
              f"{sorted(machines)} — these numbers are not comparable")
    print(f"{'workload':<15s} {'metric':<20s} {'base':>12s} {'new':>12s} "
          f"{'new/base':>9s} {'spread':>7s} {'bound':>6s}  verdict")
    regressed = 0
    for workload in [w["name"] for w in contract["workloads"]]:
        for metric in contract["end_to_end"]:
            key = (workload, metric["name"])
            if key not in base or key not in new:
                continue
            row = judge(base[key], new[key], metric["better"], metric["bound"])
            regressed += row["verdict"] == "regressed"
            print(
                f"{workload:<15s} {metric['name']:<20s} {row['base']:>12.5g} "
                f"{row['new']:>12.5g} {row['ratio']:>8.3f}x {row['spread']:>6.1%} "
                f"{metric['bound']:>6.0%}  {row['verdict']}"
                f"  (base n={len(base[key])}, new n={len(new[key])})"
            )
    return 1 if regressed else 0
