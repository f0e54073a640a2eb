"""Small statistical helpers used by the estimators."""
from __future__ import annotations

import numpy as np

Z95 = 1.96

# smallest sample budget the decay, verdict, entropy, diagonal and
# generator estimators take; at 100 samples a Wilson interval around 1/2
# is still about +-0.1 wide
MIN_SAMPLES = 100


def check_samples(samples: int) -> None:
    """Refuse a sample budget below MIN_SAMPLES, in the same words for
    each of those estimators."""
    if samples < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples, got {samples!r}")


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
