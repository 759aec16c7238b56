"""Order statistics used by the benchmark's end-to-end metrics."""

from __future__ import annotations

import math

# Percentiles a tail may be reported at, lowest first.  A coarse ladder keeps
# the reported percentile the same across runs whose sample counts differ by a
# deck or two.  It stops at p95: above it, millisecond requests on a shared
# machine read the machine's momentary noise (query-mix p99 moved between 13
# and 21 ms over three consecutive runs of the same code), not the program.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0)
TAIL_MIN_BEYOND = 10


def nearest_rank(sorted_values: list[float], pct: float) -> tuple[float, int]:
    """(value at the nearest-rank percentile, number of samples above its rank)."""
    n = len(sorted_values)
    if n == 0:
        raise ValueError("no samples")
    rank = max(1, math.ceil(pct / 100.0 * n))
    return sorted_values[rank - 1], n - rank


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest ladder percentile with at least TAIL_MIN_BEYOND samples beyond it.

    Returns (value, percentile, sample count).  With too few samples for even
    the median to have TAIL_MIN_BEYOND samples above it, the median is returned.
    """
    ordered = sorted(values)
    best_pct = TAIL_LADDER[0]
    best_val, _ = nearest_rank(ordered, best_pct)
    for pct in TAIL_LADDER[1:]:
        val, beyond = nearest_rank(ordered, pct)
        if beyond < TAIL_MIN_BEYOND:
            break
        best_pct, best_val = pct, val
    return best_val, best_pct, len(ordered)

