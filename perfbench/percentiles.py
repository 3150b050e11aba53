"""Latency percentiles that refuse to report a tail they cannot support.

A percentile is only reported when at least ``MIN_ABOVE`` samples lie above
it; p90 therefore needs 100 samples and p99 needs 1000.  The nearest-rank
definition is used, so the reported value is always one of the samples.
"""

from __future__ import annotations

import math
from typing import Sequence

MIN_ABOVE = 10


class TooFewSamples(ValueError):
    """The sample cannot support the requested percentile."""


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank ``pct``-th percentile of ``values``.

    Raises TooFewSamples when fewer than MIN_ABOVE samples lie above the
    rank that would be reported.
    """
    if not 0 < pct < 100:
        raise ValueError(f"percentile must lie strictly between 0 and 100: {pct}")
    n = len(values)
    rank = max(1, math.ceil(pct / 100 * n))
    above = n - rank
    if above < MIN_ABOVE:
        raise TooFewSamples(
            f"p{pct:g} of {n} samples has {above} samples above it; "
            f"need at least {MIN_ABOVE}"
        )
    return sorted(values)[rank - 1]


def min_samples(pct: float) -> int:
    """Smallest sample count for which ``percentile(values, pct)`` answers."""
    n = 1
    while n - max(1, math.ceil(pct / 100 * n)) < MIN_ABOVE:
        n += 1
    return n
