"""``run.py waterfall RESULT.json``: where a read's wall clock goes.

Renders, per workload, the traced run's complete decomposition — every
span name's self time per op, plus (over HTTP) the replayed parse cost
and the residual no span covers — as a Markdown table of shares.  The
README's "first waterfall" section is this output for the first
committed run.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Sequence

#: Rows below this share of the wall clock are folded into "(other)".
FOLD_BELOW = 0.01


def render(doc: Dict[str, Any]) -> str:
    stamp = doc["stamp"]
    lines: List[str] = [
        f"Commit `{stamp['commit'][:12]}`, seed {stamp['seed']}, "
        f"{stamp['seconds']} s runs, {stamp['nproc']} cores, Python "
        f"{stamp['python']}, SQLite {stamp['sqlite']}.  Traced runs are "
        "slower than untraced ones by `trace.overhead_ratio`; shares are of "
        "the traced run's own mean read.",
        "",
    ]
    for run in doc["runs"]:
        fall = run["detail"].get("waterfall")
        if not run["trace"] or not fall:
            continue
        wall = fall["wall_us_per_op"]
        rows = sorted(fall["layers_us_per_op"].items(), key=lambda kv: -kv[1])
        shown = [(name, us) for name, us in rows if us / wall >= FOLD_BELOW]
        other = sum(us for _name, us in rows) - sum(us for _name, us in shown)
        overhead = run["metrics"].get("trace.overhead_ratio", float("nan"))
        lines += [
            f"**{run['workload']}** — mean read {wall:.0f} us traced "
            f"(p50 {run['detail']['read_p50_ms']['untraced']:.3f} ms untraced, "
            f"trace overhead x{overhead:.2f})",
            "",
            "| layer (span) | self us/op | share |",
            "|---|---:|---:|",
        ]
        for name, us in shown + [("(other)", other)]:
            lines.append(f"| `{name}` | {us:.1f} | {us / wall:.1%} |")
        lines.append("")
    return "\n".join(lines)


def main(argv: Sequence[str]) -> int:
    if len(argv) != 1:
        print("usage: run.py waterfall RESULT.json")
        return 2
    with open(argv[0], "r", encoding="utf-8") as fh:
        print(render(json.load(fh)))
    return 0
