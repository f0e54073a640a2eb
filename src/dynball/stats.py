"""Small statistical helpers, and the input contract of the estimators.

Every public estimator checks its inputs through these before it draws a
sample or sizes an array by them, each rule in one wording that ends in
", got {value!r}":

- ``check_samples``: a sample budget in [MIN_SAMPLES, MAX_SAMPLES];
- ``check_count``: a count in [floor, ceiling], the ceiling MAX_WINDOW for
  orbit windows and MAX_PROBES for probe centers and cover sequences;
- ``check_length``: a finite positive radius, tolerance or step;
- ``check_threshold``: a mass threshold in (0, 1);
- ``expansiveness.sided_for``: a system and a measure on one space.
"""
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
    """Refuse a sample budget outside [MIN_SAMPLES, MAX_SAMPLES]."""
    if not samples >= MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples, got {samples!r}")
    if samples > MAX_SAMPLES:
        raise ValueError(f"need at most {MAX_SAMPLES} samples, got {samples!r}")


def check_count(name: str, value: int, floor: int, ceiling: int | None = None) -> None:
    """Refuse a count outside [floor, ceiling], or NaN."""
    if not value >= floor:
        raise ValueError(f"{name} must be >= {floor}, got {value!r}")
    if ceiling is not None and not value <= ceiling:
        raise ValueError(f"{name} must be <= {ceiling}, got {value!r}")


def check_length(name: str, value: float) -> None:
    """Refuse a length that is NaN, infinite, zero or negative."""
    if not (np.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


def check_threshold(threshold: float) -> None:
    """A window mass is at most 1, so a threshold lies in (0, 1)."""
    if not 0 < threshold < 1:
        raise ValueError(f"threshold must lie in (0, 1), got {threshold!r}")


def wilson_interval(successes, trials):
    """Wilson 95% score interval for a binomial proportion.

    Vectorized over ``successes``; returns (low, high) arrays (or floats
    for scalar input).  Behaves sanely at 0 and ``trials`` successes,
    which matters here because dynamical-ball survival counts routinely
    hit zero.
    """
    check_count("trials", trials, 1)
    k = np.asarray(successes, dtype=float)
    n = float(trials)
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
