"""Small statistical helpers used by the estimators."""
from __future__ import annotations

import numpy as np

Z95 = 1.96

# smallest sample budget the decay, verdict, entropy, diagonal and
# generator estimators take; at 100 samples a Wilson interval around 1/2
# is still about +-0.1 wide
MIN_SAMPLES = 100
# largest budget they take: a one-center decay walks about 5M samples in
# 0.5 s on a 2-vCPU machine, so 10^9 already runs for minutes and a larger
# budget would only start a block loop that does not finish
MAX_SAMPLES = 10**9


def check_samples(samples: int) -> None:
    """Refuse a sample budget outside [MIN_SAMPLES, MAX_SAMPLES], in the
    same words for each of those estimators."""
    if samples < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples, got {samples!r}")
    if samples > MAX_SAMPLES:
        raise ValueError(f"need at most {MAX_SAMPLES} samples, got {samples!r}")


def wilson_interval(successes, trials):
    """Wilson 95% score interval for a binomial proportion.

    Vectorized over ``successes``; returns (low, high) arrays (or floats
    for scalar input).  Behaves sanely at 0 and ``trials`` successes,
    which matters here because dynamical-ball survival counts routinely
    hit zero.
    """
    k = np.asarray(successes, dtype=float)
    n = float(trials)
    if n <= 0:
        raise ValueError("trials must be positive")
    p = k / n
    z = Z95
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = (z / denom) * np.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
    lo = np.clip(center - half, 0.0, 1.0)
    hi = np.clip(center + half, 0.0, 1.0)
    if np.isscalar(successes):
        return float(lo), float(hi)
    return lo, hi
