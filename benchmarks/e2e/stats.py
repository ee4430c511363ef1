"""Order statistics for the benchmark: percentiles, windows, spreads.

Everything here is a pure function of its inputs, so the tests can pin
the rules the numbers are reported under (see README, "How numbers are
reported").
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Sequence, Tuple

#: Percentiles a latency may be reported at, highest first.
PERCENTILE_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: A percentile is reported only with at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10

#: Each timed phase is cut into this many equal consecutive windows.
WINDOWS = 4


def percentile(sorted_values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile of already sorted values."""
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    if len(sorted_values) == 1:
        return float(sorted_values[0])
    rank = (pct / 100.0) * (len(sorted_values) - 1)
    low = int(rank)
    high = min(low + 1, len(sorted_values) - 1)
    fraction = rank - low
    return float(
        sorted_values[low] + (sorted_values[high] - sorted_values[low]) * fraction
    )


def samples_beyond(count: int, pct: float) -> int:
    """How many of ``count`` samples lie above the ``pct`` percentile."""
    return int(count * (100.0 - pct) / 100.0 + 1e-9)


def highest_supported_percentile(
    count: int, ladder: Sequence[float] = PERCENTILE_LADDER
) -> Optional[float]:
    """The highest ladder percentile with >= 10 samples beyond it."""
    for pct in ladder:
        if samples_beyond(count, pct) >= MIN_SAMPLES_BEYOND:
            return pct
    return None


def split_windows(
    stamped: Sequence[Tuple[float, float]], start: float, end: float,
    windows: int = WINDOWS,
) -> List[List[float]]:
    """Cut ``(completion time, value)`` samples into equal time windows."""
    span = max(end - start, 1e-12)
    out: List[List[float]] = [[] for _ in range(windows)]
    for when, value in stamped:
        slot = int((when - start) / span * windows)
        out[min(max(slot, 0), windows - 1)].append(value)
    return out


def window_range(
    stamped: Sequence[Tuple[float, float]], start: float, end: float,
    pct: float,
) -> Optional[Tuple[float, float]]:
    """(min, max) of the per-window ``pct`` percentile — within-run spread."""
    values = [
        percentile(sorted(chunk), pct)
        for chunk in split_windows(stamped, start, end)
        if chunk
    ]
    return (min(values), max(values)) if values else None


def window_rates(
    stamped: Sequence[Tuple[float, float]], start: float, end: float,
) -> Tuple[float, float]:
    """(min, max) completions per second over the phase's windows."""
    width = max(end - start, 1e-12) / WINDOWS
    counts = [len(chunk) for chunk in split_windows(stamped, start, end)]
    return (min(counts) / width, max(counts) / width)


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median — the run-to-run spread the contract gates on."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return abs(q3 - q1) / abs(middle) if middle else float("inf")


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median + quartiles of a handful of per-run values."""
    ordered = sorted(values)
    if len(ordered) >= 2:
        q1, _q2, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = q3 = ordered[0]
    return {
        "median": statistics.median(ordered), "q1": q1, "q3": q3,
        "n": len(ordered),
    }
