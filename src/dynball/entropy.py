"""Local entropy rates from forward dynamical-ball decay.

The per-center rate at radius delta is the exponential decay slope of
the forward window masses, fitted by weighted least squares on the
log-survival increments log(c_n / c_{n+1}); the increment variance for
a nested survival chain is 1/c_{n+1} - 1/c_n (delta method on the
conditional binomial), so weights are its reciprocal and the slope
standard error is (sum of weights)^(-1/2).  Cells with counts below 30
(``_MIN_COUNT``) are censored: their log-ratios are too noisy for the
variance model, and a zero cell has no log at all, so both only bound
the slope from below.

The per-delta entropy is the minimum fitted rate over measure-sampled
probe centers, and the radius limit is read off a plateau: the reported
value sits at the second-smallest grid radius once its confidence
interval overlaps the smallest's, otherwise the smallest-radius value is
reported with a nonconvergence flag.

Benchmark radius grids used by the battery and the demos: doubling and
identity (0.1, 0.05, 0.02); cat map (0.2, 0.1, 0.05).  Both benchmark
maps decay at a radius-free rate at these scales, so the plateau is
immediate; much smaller radii just cost samples.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import geometry as geo
from .errors import CapabilityError, InsufficientSamplesError, SpaceMismatchError
from .measures import MeasureSpec, make_lebesgue
from .rng import derive_seed
from .systems import SystemSpec, compose_power
from .expansiveness import ONE_SIDED, expansiveness_verdict, survival_counts

# weight floor for exactly-equal consecutive counts (observed exit
# probability zero); keeps identity-like series at slope exactly 0
_VAR_FLOOR = 1e-12

# survival counts below this are censored from the slope fits
_MIN_COUNT = 30

# volume_expanding_check reports growth when the worst per-step rate
# lambda reaches this bar
_DETECT_AT = 1.05


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    se: float
    n_used: int
    censored: bool           # true when the fit window hit the count floor
    max_residual: float


def fit_decay_slope(counts: np.ndarray) -> SlopeFit:
    """Weighted-increment slope of -log(survival) per step for one center."""
    c = np.asarray(counts, dtype=np.int64)
    if c[0] == 0:
        raise InsufficientSamplesError(
            "no sample survived the first window; radius too small for the budget")
    usable = c >= _MIN_COUNT
    k = int(np.argmin(usable)) if not usable.all() else len(c)
    censored = k < len(c)
    if k < 2:
        pos = c > 0
        k = int(np.argmin(pos)) if not pos.all() else len(c)
        censored = True
    if k < 2:
        # single positive cell: only a lower bound, as if the next count were 1
        return SlopeFit(slope=float(np.log(c[0])), se=float("nan"),
                        n_used=1, censored=True, max_residual=float("nan"))
    cf = c[:k].astype(float)
    inc = np.log(cf[:-1] / cf[1:])
    var = np.maximum(1.0 / cf[1:] - 1.0 / cf[:-1], _VAR_FLOOR)
    w = 1.0 / var
    slope = float(np.sum(w * inc) / np.sum(w))
    se = float(1.0 / np.sqrt(np.sum(w)))
    resid = float(np.max(np.abs(inc - slope))) if len(inc) else 0.0
    return SlopeFit(slope=slope, se=se, n_used=k, censored=censored,
                    max_residual=resid)


def local_entropy(f: SystemSpec, mu: MeasureSpec, x: geo.Point,
                  delta_grid: Sequence[float], n_range: tuple[int, int] = (1, 14),
                  samples: int = 100_000, seed: int = 0) -> dict[float, SlopeFit]:
    """Per-radius decay slope at a single center."""
    if not isinstance(x, geo.Point):
        x = geo.Point(f.space, x)
    if x.space != f.space or mu.space != f.space:
        raise SpaceMismatchError("system, measure, and center must share a space")
    n_lo, n_hi = n_range
    if not 1 <= n_lo < n_hi:
        raise ValueError("need 1 <= n_lo < n_hi")
    counts = survival_counts(f, mu, seed, samples, x.array[None, :],
                             list(delta_grid), ONE_SIDED, n_hi)
    return {float(d): fit_decay_slope(counts[i, 0, n_lo - 1:])
            for i, d in enumerate(delta_grid)}


@dataclass(frozen=True)
class EntropyEstimate:
    delta_grid: tuple[float, ...]
    e_of_delta: tuple[float, ...]
    se_of_delta: tuple[float, ...]
    extrapolated_e: float
    extrapolated_se: float
    converged: bool
    x_probes: int
    samples: int
    n_range: tuple[int, int]
    seed: int
    per_x_rates: tuple[tuple[float, ...], ...] = field(repr=False, default=())
    fit_diagnostics: tuple[dict, ...] = field(repr=False, default=())


def bk_entropy(f: SystemSpec, mu: MeasureSpec, delta_grid: Sequence[float],
               n_range: tuple[int, int] = (1, 14), x_probes: int = 30,
               samples: int = 100_000, seed: int = 0) -> EntropyEstimate:
    """Entropy rate: min over probes of per-center slopes, per radius,
    then the plateau value across the radius grid."""
    if x_probes < 20:
        raise ValueError("x_probes must be >= 20")
    if mu.space != f.space:
        raise SpaceMismatchError("system and measure must share a space")
    grid = sorted((float(d) for d in delta_grid), reverse=True)
    if len(grid) < 2:
        raise ValueError("delta_grid needs at least two radii for the plateau check")
    n_lo, n_hi = n_range
    if not 1 <= n_lo < n_hi:
        raise ValueError("need 1 <= n_lo < n_hi")
    probes = mu.sample_coords(derive_seed(seed, "probes"), x_probes)
    counts = survival_counts(f, mu, derive_seed(seed, "batch"), samples, probes,
                             grid, ONE_SIDED, n_hi)

    e, se, rates, diags = [], [], [], []
    for i in range(len(grid)):
        fits = [fit_decay_slope(row) for row in counts[i, :, n_lo - 1:]]
        slopes = np.array([ft.slope for ft in fits])
        ses = np.array([ft.se for ft in fits])
        finite = np.isfinite(ses)
        if not finite.any():
            raise InsufficientSamplesError(
                f"no probe produced a fittable decay at delta={grid[i]}")
        idx = int(np.argmin(np.where(finite, slopes, np.inf)))
        e.append(max(0.0, float(slopes[idx])))
        se.append(float(ses[idx]))
        rates.append(tuple(float(s) for s in slopes))
        diags.append({"delta": grid[i], "argmin_probe": idx,
                      "censored_probes": int(sum(ft.censored for ft in fits)),
                      "max_residual": float(np.nanmax([ft.max_residual for ft in fits]))})

    # plateau: does the second-smallest radius agree with the smallest?
    lo1, hi1 = e[-1] - 2 * se[-1], e[-1] + 2 * se[-1]
    lo2, hi2 = e[-2] - 2 * se[-2], e[-2] + 2 * se[-2]
    converged = (lo2 <= hi1) and (lo1 <= hi2)
    pick = -2 if converged else -1
    return EntropyEstimate(
        delta_grid=tuple(grid), e_of_delta=tuple(e), se_of_delta=tuple(se),
        extrapolated_e=e[pick], extrapolated_se=se[pick], converged=converged,
        x_probes=int(x_probes), samples=int(samples),
        n_range=(int(n_lo), int(n_hi)), seed=int(seed),
        per_x_rates=tuple(rates), fit_diagnostics=tuple(diags))


@dataclass(frozen=True)
class PowerLawReport:
    k: int
    e_base: float
    e_power: float
    se_base: float
    se_power: float
    tolerance: float
    holds: bool
    inconclusive: bool


def power_law_check(f: SystemSpec, mu: MeasureSpec, k: int,
                    delta_grid: Sequence[float], n_range: tuple[int, int] = (1, 14),
                    x_probes: int = 30, samples: int = 100_000,
                    seed: int = 0) -> PowerLawReport:
    """Checks that the rate of f^k is k times the rate of f, within
    2*(se_power + k*se_base) + 0.05."""
    if k not in (2, 3):
        raise ValueError("k must be 2 or 3")
    base = bk_entropy(f, mu, delta_grid, n_range, x_probes, samples, seed)
    power = bk_entropy(compose_power(f, k), mu, delta_grid, n_range,
                       x_probes, samples, seed)
    tol = 2.0 * (power.extrapolated_se + k * base.extrapolated_se) + 0.05
    gap = abs(power.extrapolated_e - k * base.extrapolated_e)
    inconclusive = not (base.converged and power.converged)
    return PowerLawReport(k=int(k), e_base=base.extrapolated_e,
                          e_power=power.extrapolated_e,
                          se_base=base.extrapolated_se,
                          se_power=power.extrapolated_se,
                          tolerance=float(tol), holds=bool(gap <= tol),
                          inconclusive=inconclusive)


@dataclass(frozen=True)
class EntropyExpansiveReport:
    rows: tuple[dict, ...]
    holds: bool
    vacuous: bool


def entropy_implies_expansive_check(f: SystemSpec, mu: MeasureSpec,
                                    delta_grid: Sequence[float],
                                    n_range: tuple[int, int] = (1, 14),
                                    x_probes: int = 30, samples: int = 100_000,
                                    verdict_n_max: int = 20,
                                    threshold: float = 0.01,
                                    seed: int = 0) -> EntropyExpansiveReport:
    """Positive entropy rate at some radius must not coexist with a
    non-expansive one-sided verdict at that radius."""
    est = bk_entropy(f, mu, delta_grid, n_range, x_probes, samples, seed)
    rows = []
    holds, any_positive = True, False
    for i, d in enumerate(est.delta_grid):
        lower = est.e_of_delta[i] - 2 * est.se_of_delta[i]
        row = {"delta": d, "e": est.e_of_delta[i], "e_lower_ci": lower}
        if lower > 0:
            any_positive = True
            v = expansiveness_verdict(
                f, mu, d, n_max=verdict_n_max, samples=samples,
                x_probes=max(20, x_probes), threshold=threshold,
                seed=derive_seed(seed, "verdict", repr(d)), sided=ONE_SIDED)
            row["verdict"] = v.verdict
            row["ok"] = v.verdict != "evidence_not_expansive"
            holds &= row["ok"]
        else:
            row["verdict"] = None
            row["ok"] = True
        rows.append(row)
    return EntropyExpansiveReport(rows=tuple(rows), holds=bool(holds),
                                  vacuous=not any_positive)


@dataclass(frozen=True)
class VolumeExpandingReport:
    detected: bool
    lambda_est: float
    k_est: float
    horizon: int
    probes: int


def volume_expanding_check(f: SystemSpec, horizon: int = 10, probes: int = 100,
                           seed: int = 0) -> VolumeExpandingReport:
    """Detects uniform volume growth: the worst n-step Jacobian determinant
    must satisfy |det Df^n| >= K * lambda^n with lambda above the detection
    bar at every probe and horizon step."""
    if f.jacobian is None:
        raise CapabilityError(f"{f.name} carries no jacobian; volume check unavailable")
    if horizon < 1 or probes < 1:
        raise ValueError("need horizon >= 1 and probes >= 1")
    pts = make_lebesgue(f.space).sample_coords(derive_seed(seed, "volume-probes"),
                                               probes)
    det_prods = []  # |det Df^n| at each probe, n = 1..horizon
    det_prod = np.ones(probes)
    lam = np.inf
    cur = pts
    for n in range(1, horizon + 1):
        det_prod = det_prod * np.abs(np.linalg.det(f.jacobian(cur)))
        lam = min(lam, float(np.min(det_prod ** (1.0 / n))))
        det_prods.append(det_prod)
        cur = f.forward(cur)
    detected = lam >= _DETECT_AT
    # smallest multiplicative constant consistent with the detected rate
    k_est = 1.0
    if detected:
        k_est = min(k_est, *(float(np.min(p / lam ** n))
                             for n, p in enumerate(det_prods, 1)))
    return VolumeExpandingReport(detected=bool(detected), lambda_est=float(lam),
                                 k_est=float(k_est), horizon=int(horizon),
                                 probes=int(probes))
