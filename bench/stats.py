"""The tail rule and the golden-fidelity comparator."""

from __future__ import annotations

import math

# Percentile levels a tail may be reported at, lowest first.
TAIL_LEVELS = (50.0, 90.0, 95.0, 99.0)
# A percentile is supported only when at least this many samples lie beyond it.
SAMPLES_BEYOND = 10

# Accuracy rule: a final fidelity may differ from the recorded one by this much.
GOLDEN_TOL = 1e-12


def supported_level(n: int) -> float | None:
    """Highest level in TAIL_LEVELS with SAMPLES_BEYOND samples above it.

    p is supported by n samples when n * (1 - p/100) >= SAMPLES_BEYOND, so the
    median needs 20 samples, p90 needs 100, p95 200 and p99 1000. Returns None
    when n supports none of them.
    """
    best = None
    for level in TAIL_LEVELS:
        if n * (100.0 - level) >= SAMPLES_BEYOND * 100.0:
            best = level
    return best


def tail(values) -> tuple[str, float]:
    """(label, value) of the highest supported percentile, else the maximum.

    Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it.
    """
    ordered = sorted(values)
    level = supported_level(len(ordered))
    if level is None:
        return "max", float(ordered[-1])
    rank = math.ceil(len(ordered) * level / 100.0)
    return f"p{level:g}", float(ordered[rank - 1])


def golden_mismatch(value: float, golden: float, tol: float = GOLDEN_TOL) -> bool:
    return not abs(value - golden) <= tol
