"""Truthful percentiles and the quartile spread the driver computes.

Every latency any workload reports goes through :func:`percentile` — one
nearest-rank helper over the raw client-side samples, never over histogram
buckets (the defect in ``BENCH_service.json``: p95 = 2500 ms above a max of
1784 ms came from reporting bucket upper bounds).
"""

from __future__ import annotations

import math
import statistics
from statistics import median  # noqa: F401 - re-exported beside percentile
from typing import Dict, Sequence

#: A tail percentile is trustworthy only with this many samples beyond it.
MIN_SAMPLES_BEYOND_TAIL = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0 < q <= 100) of the raw ``samples``.

    Always returns one of the samples, so it can never exceed their maximum.
    """
    if not samples:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile rank {q} outside (0, 100]")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    value = ordered[rank - 1]
    if value > ordered[-1]:
        raise AssertionError("percentile above the sample maximum")
    return value


def p50(samples: Sequence[float]) -> float:
    return percentile(samples, 50)


def p90(samples: Sequence[float]) -> float:
    return percentile(samples, 90)


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie strictly beyond nearest-rank ``q``."""
    return count - max(1, math.ceil(q / 100.0 * count)) if count else 0


def tail_supported(count: int, q: float) -> bool:
    """Whether ``count`` samples support reporting percentile ``q``."""
    return samples_beyond(count, q) >= MIN_SAMPLES_BEYOND_TAIL


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """Median and quartiles of per-run values, as the driver computes them."""
    if len(values) < 2:
        only = float(values[0])
        return {"q1": only, "median": only, "q3": only, "spread": 0.0}
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(median) if median else float("inf")
    return {"q1": q1, "median": median, "q3": q3, "spread": spread}

