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
# longest orbit window (n_max, entropy's n_hi) they take: the battery,
# tests and demos use at most 40, a default verdict or generator check
# 1,000 windows long takes 6 s on a 2-vCPU machine, and the (probe,
# window) count array at MAX_PROBES probes is 80 MB per radius
MAX_WINDOW = 1_000
# most probe centers (x_probes, fubini_probes) or cover sequences they
# take: a default verdict at 2,000 probes takes 23 s, so one at the
# ceiling runs for minutes; a memory test walks 8,192 sequences
MAX_PROBES = 10_000


def check_samples(samples: int) -> None:
    """Refuse a sample budget outside [MIN_SAMPLES, MAX_SAMPLES], in the
    same words for each of those estimators."""
    if samples < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples, got {samples!r}")
    if samples > MAX_SAMPLES:
        raise ValueError(f"need at most {MAX_SAMPLES} samples, got {samples!r}")


def check_at_most(name: str, value: int, ceiling: int) -> None:
    """Refuse a window length above MAX_WINDOW or a count above MAX_PROBES
    before anything of that size is allocated."""
    if value > ceiling:
        raise ValueError(f"{name} must be <= {ceiling}, got {value!r}")


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
