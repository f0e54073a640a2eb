"""Small statistical helpers, and the input contract of the estimators.

Every public estimator checks its inputs through these before it draws a
sample or sizes an array by them, each rule in one wording that ends in
", got {value!r}" with the value as a Python number:

- ``check_samples``: an integer sample budget in [MIN_SAMPLES, MAX_SAMPLES];
- ``check_count``: an integer in [floor, ceiling], the ceiling MAX_WINDOW
  for orbit windows, MAX_PROBES for probe centers and cover sequences and
  2**64 - 1 for a seed (``rng``);
- ``check_cells``: a count array of at most MAX_CELLS cells;
- ``check_length``: a finite positive radius, tolerance or step, where a
  value that is not a real number (the text ``'0.1'``) is refused as
  "must be a number" before any arithmetic on it;
- ``check_grid``: a sequence of such radii, none repeated, at least
  ``floor``;
- ``check_threshold``: a number, a mass threshold in (0, 1);
- ``expansiveness.sided_for``: a system and a measure on one space;
- ``read_integer``: integer text, for the CLI and ``systems.system_params``.
"""
from __future__ import annotations

import math
import numbers
from decimal import Decimal, InvalidOperation

import numpy as np

Z95 = 1.96

# smallest sample budget the decay, verdict, entropy, diagonal and
# generator estimators take; at 100 samples a Wilson interval around 1/2
# is still about +-0.1 wide
MIN_SAMPLES = 100
# largest budget they take: a one-center decay walks 5M samples in 0.20 s
# over the CLI's 20 windows and 0.24 s over decay_series' default 30 on a
# 2-vCPU machine (medians of 5 fresh processes), so 10^9 already runs for
# most of a minute and a larger budget would only start a block loop that
# does not finish
MAX_SAMPLES = 10**9
# longest orbit window (n_max, entropy's n_hi) they take: the battery,
# tests and demos use at most 40, a default verdict 1,000 windows long
# takes 2.6 s and a generator check 0.08 s on a 2-vCPU machine (5.8 s on
# the rotation, whose pairs never die)
MAX_WINDOW = 1_000
# most probe centers (x_probes, fubini_probes) or cover sequences they
# take: a default verdict at 2,000 probes takes 8 s and one at the
# ceiling about a minute; a memory test walks 8,192 sequences
MAX_PROBES = 10_000
# most cells in a (radius, center, window) count array: a verdict at
# MAX_PROBES probes and MAX_WINDOW windows holds this many, 80 MB of int64
MAX_CELLS = MAX_PROBES * MAX_WINDOW


def _py(value):  # a numpy scalar echoes as np.float64(nan); its item as nan
    return value.item() if isinstance(value, np.generic) else value


def _check_integer(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {_py(value)!r}")


def check_samples(samples: int) -> None:
    """Refuse a sample budget outside [MIN_SAMPLES, MAX_SAMPLES]."""
    _check_integer("samples", samples)
    if samples < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples, got {_py(samples)!r}")
    if samples > MAX_SAMPLES:
        raise ValueError(f"need at most {MAX_SAMPLES} samples, got {_py(samples)!r}")


def check_count(name: str, value: int, floor: int, ceiling: int | None = None) -> None:
    """Refuse a count that is not an integer or lies outside [floor, ceiling]."""
    _check_integer(name, value)
    if value < floor:
        raise ValueError(f"{name} must be >= {floor}, got {_py(value)!r}")
    if ceiling is not None and value > ceiling:
        raise ValueError(f"{name} must be <= {ceiling}, got {_py(value)!r}")


def check_cells(*shape: int) -> None:
    """Refuse a count array of more than MAX_CELLS cells, before it is allocated."""
    shape = tuple(map(int, shape))  # echoed as (1, 2, 3), not with np.int64(3)
    check_count(f"cells in a {shape} count array", math.prod(shape), 0, MAX_CELLS)


def _check_number(name: str, value) -> None:
    if not isinstance(value, numbers.Real):  # numpy's scalars are registered too
        raise ValueError(f"{name} must be a number, got {_py(value)!r}")


def check_length(name: str, value: float) -> None:
    """Refuse a length that is not a number, or is NaN, infinite, zero or negative."""
    _check_number(name, value)
    if not (np.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {_py(value)!r}")


def check_grid(grid, floor: int = 1) -> None:
    """Refuse a grid of fewer than ``floor`` distinct, finite, positive radii."""
    try:
        radii = list(grid)
    except TypeError:  # one radius, not a sequence of them
        raise ValueError(f"delta_grid must be a sequence of radii, got {_py(grid)!r}") from None
    for radius in radii:
        check_length("delta", radius)
    check_count("distinct radii in delta_grid", len(set(radii)), max(floor, len(radii)))


def check_threshold(threshold: float) -> None:
    """A window mass is at most 1, so a threshold lies in (0, 1)."""
    _check_number("threshold", threshold)
    if not 0 < threshold < 1:
        raise ValueError(f"threshold must lie in (0, 1), got {_py(threshold)!r}")


def read_integer(text: str) -> int:
    """Integer text such as 20000 or 2e4, read as a decimal so no digit is
    rounded away; ValueError on other text and on 10^309 or more (1e400)."""
    try:
        value = Decimal(text)
    except InvalidOperation:
        raise ValueError(text) from None
    if not value.is_finite() or value.adjusted() > 308 \
            or value != value.to_integral_value():  # inf, nan, 1e999999999, 2.5
        raise ValueError(text)
    return int(value)


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
