"""Arithmetic of the benchmark: percentiles, geometric mean and doubling ratios.

Kept apart from the measuring code so that the tests can check each rule on
made-up samples.
"""

from __future__ import annotations

import math

# A percentile is reported only when at least this many samples rank above it.
MIN_BEYOND = 10


def samples_needed(q: int, min_beyond: int = MIN_BEYOND) -> int:
    """Smallest sample count whose q-th percentile has ``min_beyond`` samples above it."""
    n = 1
    while n - _rank(q, n) < min_beyond:
        n += 1
    return n


def _rank(q: int, n: int) -> int:
    # Nearest rank, ceil(q * n / 100), in integers so that 90 * 100 / 100 is exactly 90.
    return (q * n + 99) // 100


def percentile(samples, q: int, min_beyond: int = MIN_BEYOND) -> tuple[float, int]:
    """Nearest-rank q-th percentile and the number of samples ranked above it.

    Raises ValueError when fewer than ``min_beyond`` samples rank above the
    percentile, since its value would then rest on a handful of samples.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must lie strictly between 0 and 100, got {q}")
    ordered = sorted(samples)
    rank = _rank(q, len(ordered))
    beyond = len(ordered) - rank
    if rank < 1 or beyond < min_beyond:
        raise ValueError(
            f"p{q} of {len(ordered)} samples has {max(beyond, 0)} beyond it; "
            f"need {min_beyond} (at least {samples_needed(q, min_beyond)} samples)"
        )
    return ordered[rank - 1], beyond


def geomean(values) -> float:
    """Geometric mean of positive values."""
    values = list(values)
    if not values:
        raise ValueError("geometric mean of no values")
    if min(values) <= 0:
        raise ValueError(f"geometric mean needs positive values, got {min(values)}")
    return math.exp(math.fsum(math.log(v) for v in values) / len(values))


def doubling_ratios(medians: dict) -> dict:
    """Map {(label, n): median} to {label: median(2n) / median(n)}.

    Every label must come at exactly two sizes, one double the other.
    """
    sizes: dict = {}
    for label, n in medians:
        sizes.setdefault(label, []).append(n)
    ratios = {}
    for label, ns in sizes.items():
        ns.sort()
        if len(ns) != 2 or ns[1] != 2 * ns[0]:
            raise ValueError(f"{label}: sizes {ns} are not one size and its double")
        ratios[label] = medians[(label, ns[1])] / medians[(label, ns[0])]
    return ratios
