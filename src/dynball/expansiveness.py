"""Dynamical-ball survival estimators and expansiveness verdicts.

A point y survives window n around a center x when every orbit
comparison d(f^i(x), f^i(y)) <= delta holds for i in the window:
one_sided uses 0 <= i < n, two_sided uses -n <= i < n.  Windows are
nested, so survival counts from a single sample batch are exactly
nonincreasing in n, and the terminal count estimates the measure of the
infinite-window set (the liminf of the window measures).

``survival_counts`` and ``product_diagonal_test`` share one pair
kernel, ``_advance_pairs``.  It keeps only the (center, sample) pairs
still alive, each with its running maximum distance, so all radii are
read from one array and a pair is dropped once it exceeds the largest
radius; only the points some alive pair references are advanced.  For a
measure-expansive map the alive set shrinks geometrically, and even for
an isometry it is about 2*delta of the pairs from window 1 on.
``survival_counts`` and ``generator_check`` draw their sample batch
themselves, in fixed blocks of indices (``_blocks``), so neither the
batch nor the working memory grows with the sample count.  The kernel
sums the blocks' counts, which equal a dense (radius, center, sample)
mask's exactly; the generator walks each block through the orbit window
once (``_window``), ANDing a (sequence, sample) ball-membership mask.

A verdict at radius delta is Monte-Carlo evidence, never proof:
``evidence_expansive`` when even the worst probe's terminal upper
confidence bound is at or below the threshold, ``evidence_not_expansive``
when some probe's lower bound stays at or above it (that probe is the
witness), ``inconclusive`` otherwise.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from numpy.random import Generator, Philox

from . import geometry as geo
from .errors import CapabilityError, SpaceMismatchError
from .measures import MeasureSpec, make_dirac
from .rng import derive_seed
from .stats import wilson_interval
from .systems import SystemSpec, compose_power

ONE_SIDED = "one_sided"
TWO_SIDED = "two_sided"

# Sample indices per block drawn by _blocks: bounds survival_counts' window-1
# distance matrix at len(centers) * _BLOCK entries and the generator's
# membership mask at sequences * _BLOCK, whatever the sample count.
_BLOCK = 1 << 16


def resolve_sided(f: SystemSpec, sided: str | None) -> str:
    """Default: bi-infinite windows for invertible systems, forward otherwise."""
    if sided is None:
        return TWO_SIDED if f.invertible else ONE_SIDED
    alias = {"one": ONE_SIDED, "two": TWO_SIDED, ONE_SIDED: ONE_SIDED, TWO_SIDED: TWO_SIDED}
    if sided not in alias:
        raise ValueError(f"sided must be one_sided or two_sided, got {sided!r}")
    sided = alias[sided]
    if sided == TWO_SIDED and not f.invertible:
        raise CapabilityError(f"{f.name} has no inverse; two_sided windows unavailable")
    return sided


def _blocks(mu: MeasureSpec, key: int, samples: int):
    """Yield mu.sample_coords(key, samples) in blocks of ``_BLOCK`` rows; draws
    are counter-based, so the rows equal the one-shot draw."""
    for lo in range(0, samples, _BLOCK):
        yield mu.sample_coords(key, min(_BLOCK, samples - lo), start=lo)


def survival_counts(f: SystemSpec, mu: MeasureSpec, key: int, samples: int,
                    centers: np.ndarray, deltas: Sequence[float], sided: str,
                    n_max: int) -> np.ndarray:
    """counts[d, p, n-1] = samples within deltas[d] of center p's orbit
    through window n.  One batch, mu.sample_coords(key, samples), serves
    every (delta, center) cell.

    The batch is drawn and counted in blocks (``_blocks``) whose counts
    are summed, so working memory does not grow with ``samples``.  Within
    a block, window 1 is one dense (center, sample) distance matrix; after
    that only the alive (center, sample) pairs are kept, each with its
    running maximum distance, and only the points they reference are
    advanced (see ``_advance_pairs``).
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    deltas_arr = np.asarray(list(deltas), dtype=float)
    if np.any(deltas_arr <= 0):
        raise ValueError("deltas must be positive")
    two = sided == TWO_SIDED
    if two and not f.invertible:
        raise CapabilityError(f"{f.name} has no inverse; two_sided windows unavailable")

    counts = np.zeros((len(deltas_arr), len(centers), n_max), dtype=np.int64)
    dmax = deltas_arr.max(initial=0.0)
    xb = f.inverse(centers) if two else None
    for yf in _blocks(mu, key, samples):
        dist = geo.distance(f.space, centers[:, None], yf[None])
        yb = None
        if two:
            yb = f.inverse(yf)
            dist = np.maximum(dist, geo.distance(f.space, xb[:, None], yb[None]))
        xi, yi = np.nonzero(dist <= dmax)
        _advance_pairs(f, deltas_arr, counts, centers, xb, yf, yb,
                       xi, yi, xi, dist[xi, yi])
    return counts


def _advance_pairs(f: SystemSpec, deltas: np.ndarray, counts: np.ndarray,
                   xf, xb, yf, yb, xi, yi, label, m) -> None:
    """Add the survivors of the alive pairs (xf[xi], yf[yi]) to counts.

    On entry the pairs are the survivors of window 1 at the largest
    radius: xf, yf hold the window-1 forward points, xb, yb their inverse
    images (None when one-sided), and m each pair's largest distance so
    far.  Window n adds the comparisons at f^(n-1) and, two-sided, f^-n;
    m keeps the maximum, so counts[d, label, n-1] counts the pairs with
    m <= deltas[d], and a pair is dropped once m exceeds every radius.
    Each window first compacts both sides to the rows a pair still
    references, then advances only those rows.
    """
    dmax = deltas.max(initial=0.0)
    dropped = True  # window 1 left rows no pair references
    for n in range(1, counts.shape[2] + 1):
        if n > 1:
            if not len(m):
                break
            if dropped:
                xi, (xf, xb) = _compact(xi, xf, xb)
                yi, (yf, yb) = _compact(yi, yf, yb)
            xf, yf = f.forward(xf), f.forward(yf)
            m = np.maximum(m, geo.distance(f.space, xf[xi], yf[yi]))
            if xb is not None:
                xb, yb = f.inverse(xb), f.inverse(yb)
                m = np.maximum(m, geo.distance(f.space, xb[xi], yb[yi]))
            keep = m <= dmax
            dropped = not keep.all()
            if dropped:
                xi, yi, label, m = xi[keep], yi[keep], label[keep], m[keep]
        for d, delta in enumerate(deltas):
            counts[d, :, n - 1] += np.bincount(label[m <= delta], minlength=counts.shape[1])


def _compact(idx: np.ndarray, *rows):
    """Keep only the rows idx references; return idx renumbered to them."""
    mark = np.zeros(len(rows[0]), dtype=bool)
    mark[idx] = True
    live = np.flatnonzero(mark)  # np.unique(idx) sorts and is far slower
    if len(live) == len(mark):
        return idx, rows
    return (np.cumsum(mark)[idx] - 1,
            tuple(None if r is None else r[live] for r in rows))


def _window(f: SystemSpec, coords: np.ndarray, n_max: int, two: bool):
    """Yield (n, f^n(coords)) for n = 0, 1, -1, 2, -2, ... up to |n| = n_max;
    negative n only when the window is two-sided."""
    fwd = bwd = coords
    yield 0, coords
    for n in range(1, n_max + 1):
        fwd = f.forward(fwd)
        yield n, fwd
        if two:
            bwd = f.inverse(bwd)
            yield -n, bwd


def dyn_ball_contains(f: SystemSpec, x, y, delta: float, n: int,
                      sided: str | None = None):
    """Membership of y in the window-n set of radius delta around x.

    y may be a Point or a 1-D coordinate vector (returns a bool) or a
    (count, dim) array (returns a bool vector).  ``sided`` defaults as in
    ``resolve_sided``: two-sided windows only for an invertible f."""
    if delta <= 0 or n < 1:
        raise ValueError("need delta > 0 and n >= 1")
    if not isinstance(x, geo.Point):
        x = geo.Point(f.space, x)
    if x.space != f.space:
        raise SpaceMismatchError("query center must live on the system's space")
    single = isinstance(y, geo.Point) or np.asarray(y).ndim == 1
    if isinstance(y, geo.Point):
        if y.space != f.space:
            raise SpaceMismatchError("point must live on the system's space")
        ys = y.array[None, :]
    else:
        ys = np.atleast_2d(np.asarray(y, dtype=float))
    sided = resolve_sided(f, sided)
    # the distance condition is symmetric in (x, y): treat each y as a
    # center and the single x, drawn from its Dirac measure, as the batch
    counts = survival_counts(f, make_dirac(x), 0, 1, ys, [delta], sided, n)
    hits = counts[0, :, -1] == 1
    return bool(hits[0]) if single else hits


@dataclass(frozen=True)
class DecaySeries:
    x: Optional[tuple]
    delta: float
    sided: str
    n: tuple[int, ...]
    counts: tuple[int, ...]
    estimate: tuple[float, ...]
    ci_low: tuple[float, ...]
    ci_high: tuple[float, ...]
    samples: int
    seed: int

    @property
    def terminal(self) -> float:
        return self.estimate[-1]


def _series_from_counts(x, delta, sided, counts_1d, samples, seed) -> DecaySeries:
    est = counts_1d / samples
    lo, hi = wilson_interval(counts_1d, samples)
    return DecaySeries(
        x=tuple(x) if x is not None else None, delta=float(delta), sided=sided,
        n=tuple(range(1, len(counts_1d) + 1)),
        counts=tuple(int(c) for c in counts_1d),
        estimate=tuple(float(v) for v in est),
        ci_low=tuple(float(v) for v in lo), ci_high=tuple(float(v) for v in hi),
        samples=int(samples), seed=int(seed))


def decay_series(f: SystemSpec, mu: MeasureSpec, x: geo.Point, delta: float,
                 sided: str | None = None, n_max: int = 30,
                 samples: int = 100_000, seed: int = 0) -> DecaySeries:
    """Window-measure estimates at a single center from one sample batch."""
    if samples < 100:
        raise ValueError("samples must be >= 100")
    if not isinstance(x, geo.Point):
        x = geo.Point(f.space, x)
    if mu.space != f.space or x.space != f.space:
        raise SpaceMismatchError("system, measure, and center must share a space")
    sided = resolve_sided(f, sided)
    counts = survival_counts(f, mu, seed, samples, x.array[None, :], [delta],
                             sided, n_max)
    return _series_from_counts(x.coords, delta, sided, counts[0, 0], samples, seed)


@dataclass(frozen=True)
class ExpansivenessVerdict:
    verdict: str
    delta: float
    threshold: float
    sided: str
    x_probes: int
    worst_upper_bound: float
    witness: Optional[tuple]
    witness_lower_bound: float
    n_max: int
    samples: int
    seed: int
    per_probe_terminal: tuple[float, ...] = field(repr=False, default=())
    per_probe_upper: tuple[float, ...] = field(repr=False, default=())
    per_probe_lower: tuple[float, ...] = field(repr=False, default=())


def expansiveness_verdict(f: SystemSpec, mu: MeasureSpec, delta: float,
                          n_max: int = 30, samples: int = 100_000,
                          x_probes: int = 20, threshold: float = 0.01,
                          seed: int = 0, sided: str | None = None) -> ExpansivenessVerdict:
    """Three-valued verdict from terminal window masses at measure-sampled probes."""
    if not 0 < threshold < 1:  # a window mass is at most 1
        raise ValueError(f"threshold must lie in (0, 1), got {threshold!r}")
    if x_probes < 20:
        raise ValueError("x_probes must be >= 20")
    if mu.space != f.space:
        raise SpaceMismatchError("system and measure must share a space")
    sided = resolve_sided(f, sided)
    probes = mu.sample_coords(derive_seed(seed, "probes"), x_probes)
    counts = survival_counts(f, mu, derive_seed(seed, "batch"), samples, probes,
                             [delta], sided, n_max)
    terminal = counts[0, :, -1]
    lo, hi = wilson_interval(terminal, samples)
    worst_upper = float(hi.max())
    wit_idx = int(np.argmax(lo))
    witness_lower = float(lo[wit_idx])
    if worst_upper <= threshold:
        verdict, witness = "evidence_expansive", None
    elif witness_lower >= threshold:
        verdict, witness = "evidence_not_expansive", tuple(probes[wit_idx])
    else:
        verdict, witness = "inconclusive", None
    return ExpansivenessVerdict(
        verdict=verdict, delta=float(delta), threshold=float(threshold),
        sided=sided, x_probes=int(x_probes), worst_upper_bound=worst_upper,
        witness=witness, witness_lower_bound=witness_lower,
        n_max=int(n_max), samples=int(samples), seed=int(seed),
        per_probe_terminal=tuple(float(v) for v in terminal / samples),
        per_probe_upper=tuple(float(v) for v in hi),
        per_probe_lower=tuple(float(v) for v in lo))


@dataclass(frozen=True)
class PowerConsistencyReport:
    k: int
    delta_grid: tuple[float, ...]
    verdicts_base: tuple[str, ...]
    verdicts_power: tuple[str, ...]
    matched_pairs: tuple[tuple[float, float], ...]
    consistent: bool


def power_consistency_check(f: SystemSpec, mu: MeasureSpec, k: int,
                            delta_grid: Sequence[float], n_max: int = 20,
                            samples: int = 30_000, x_probes: int = 20,
                            threshold: float = 0.01, seed: int = 0,
                            sided: str | None = None) -> PowerConsistencyReport:
    """Same-verdict evidence for f and f^k over a radius grid.

    A contradiction means one map looks expansive at every tested radius
    while the other looks non-expansive at every tested radius; anything
    short of that is consistent with expansiveness transferring between
    f and its powers at adjusted radii.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    fk = compose_power(f, k)
    vb, vp = [], []
    for d in delta_grid:
        vb.append(expansiveness_verdict(
            f, mu, d, n_max=n_max, samples=samples, x_probes=x_probes,
            threshold=threshold, seed=derive_seed(seed, "base", repr(d)),
            sided=sided).verdict)
        vp.append(expansiveness_verdict(
            fk, mu, d, n_max=n_max, samples=samples, x_probes=x_probes,
            threshold=threshold, seed=derive_seed(seed, "power", repr(d)),
            sided=sided).verdict)
    matched = tuple(
        (db, dp)
        for db, b in zip(delta_grid, vb) if b == "evidence_expansive"
        for dp, p in zip(delta_grid, vp) if p == "evidence_expansive")
    exp, not_exp = "evidence_expansive", "evidence_not_expansive"
    contradiction = (all(v == exp for v in vb) and all(v == not_exp for v in vp)) or \
                    (all(v == not_exp for v in vb) and all(v == exp for v in vp))
    return PowerConsistencyReport(
        k=int(k), delta_grid=tuple(float(d) for d in delta_grid),
        verdicts_base=tuple(vb), verdicts_power=tuple(vp),
        matched_pairs=matched, consistent=not contradiction)


@dataclass(frozen=True)
class DiagonalReport:
    pair_series: DecaySeries
    fubini_mean: float
    fubini_ci: tuple[float, float]
    fubini_probes: int
    agree: bool


def product_diagonal_test(f: SystemSpec, mu: MeasureSpec, delta: float,
                          n_max: int = 12, pair_samples: int = 100_000,
                          seed: int = 0, sided: str | None = None,
                          fubini_probes: int = 40) -> DiagonalReport:
    """Mass of pairs staying within delta of the diagonal along the window.

    Independent pairs (x, y) ~ mu x mu survive window n when every orbit
    comparison stays within delta; this equals the product-measure mass
    of the diagonal tube intersected over iterates.  Cross-check: by
    Fubini the same number is the mu-average over centers x of the
    window mass at x, estimated from probe-averaged decay terminals.
    """
    if mu.space != f.space:
        raise SpaceMismatchError("system and measure must share a space")
    sided = resolve_sided(f, sided)
    two = sided == TWO_SIDED
    xs = mu.sample_coords(derive_seed(seed, "pair-left"), pair_samples)
    ys = mu.sample_coords(derive_seed(seed, "pair-right"), pair_samples)

    xb, yb = (f.inverse(xs), f.inverse(ys)) if two else (None, None)
    dist = geo.distance(f.space, xs, ys)
    if two:
        dist = np.maximum(dist, geo.distance(f.space, xb, yb))
    i = np.flatnonzero(dist <= delta)
    counts = np.zeros((1, 1, n_max), dtype=np.int64)
    _advance_pairs(f, np.array([delta], dtype=float), counts, xs, xb, ys, yb,
                   i, i, np.zeros_like(i), dist[i])
    series = _series_from_counts(None, delta, sided, counts[0, 0], pair_samples, seed)

    probes = mu.sample_coords(derive_seed(seed, "fubini-probes"), fubini_probes)
    pc = survival_counts(f, mu, derive_seed(seed, "fubini-batch"), pair_samples,
                         probes, [delta], sided, n_max)
    terminals = pc[0, :, -1] / pair_samples
    mean = float(terminals.mean())
    se = float(terminals.std(ddof=1) / np.sqrt(fubini_probes))
    lo, hi = mean - 1.96 * se, mean + 1.96 * se
    agree = (series.ci_low[-1] <= hi) and (lo <= series.ci_high[-1])
    return DiagonalReport(pair_series=series, fubini_mean=mean, fubini_ci=(lo, hi),
                          fubini_probes=int(fubini_probes), agree=agree)


@dataclass(frozen=True)
class GeneratorReport:
    cover_size: int
    lebesgue_delta: float
    sequences_tested: int
    max_intersection_estimate: float
    max_upper_ci: float
    is_generator_evidence: bool
    threshold: float
    sided: str
    n_max: int
    per_sequence: tuple[float, ...] = field(repr=False, default=())


def generator_check(f: SystemSpec, mu: MeasureSpec, cover: list[geo.Ball],
                    n_max: int = 10, sequence_samples: int = 32,
                    mc_samples: int = 100_000, seed: int = 0,
                    threshold: float = 0.01, sided: str | None = None) -> GeneratorReport:
    """Worst-case mass of orbit-constrained intersections over a ball cover.

    For each tested sequence (A_n) of cover elements the estimator
    measures the set of y whose iterate f^n(y) lies in Cl(A_n) for every
    n in the window.  Sequences come in two flavors: uniformly random
    indices, and adversarial sequences that follow a measure-sampled
    pilot orbit, always picking the element holding that iterate deepest.
    Evidence for a generator means even the worst sequence's upper CI
    stays at or below the threshold.

    The batch is drawn and walked in blocks of ``_BLOCK`` sample indices,
    so working memory does not grow with ``mc_samples``.
    """
    if n_max < 0 or sequence_samples < 1 or mc_samples < 1 or not 0 < threshold < 1:
        raise ValueError("need n_max >= 0, sequence_samples >= 1, mc_samples >= 1 "
                         "and 0 < threshold < 1")
    if mu.space != f.space:
        raise SpaceMismatchError("system and measure must share a space")
    sided = resolve_sided(f, sided)
    two = sided == TWO_SIDED
    leb_delta = geo.lebesgue_number(cover, f.space)  # checks cover and space
    centers = np.stack([b.center.array for b in cover])
    radii = np.array([b.radius for b in cover])
    col = n_max if two else 0  # seq[:, col + n] is the element for iterate n

    n_adv = sequence_samples // 2
    n_rand = sequence_samples - n_adv
    rng = Generator(Philox(key=derive_seed(seed, "random-sequences")))
    seq = np.empty((sequence_samples, col + n_max + 1), dtype=np.int64)
    seq[n_adv:] = rng.integers(0, len(cover), size=(n_rand, seq.shape[1]))
    # adversarial: deepest-containment element along each pilot orbit
    pilots = mu.sample_coords(derive_seed(seed, "pilots"), max(n_adv, 1))
    for n, cur in _window(f, pilots, n_max, two):
        slack = radii[None, :] - geo.distance(f.space, cur[:, None], centers[None])
        seq[:n_adv, col + n] = np.argmax(slack[:n_adv], axis=1)

    per_seq = np.zeros(sequence_samples, dtype=np.int64)
    for block in _blocks(mu, derive_seed(seed, "batch"), mc_samples):
        alive = np.ones((sequence_samples, len(block)), dtype=bool)
        for n, cur in _window(f, block, n_max, two):
            used, remap = np.unique(seq[:, col + n], return_inverse=True)
            dist = geo.distance(f.space, centers[used][:, None], cur[None])
            alive &= (dist <= radii[used, None])[remap]
        per_seq += alive.sum(axis=1)
    est = per_seq / mc_samples
    _, hi = wilson_interval(per_seq, mc_samples)
    max_upper = float(np.max(hi))
    return GeneratorReport(
        cover_size=len(cover), lebesgue_delta=float(leb_delta),
        sequences_tested=int(sequence_samples),
        max_intersection_estimate=float(est.max()),
        max_upper_ci=max_upper,
        is_generator_evidence=bool(max_upper <= threshold),
        threshold=float(threshold), sided=sided, n_max=int(n_max),
        per_sequence=tuple(float(v) for v in est))


@dataclass(frozen=True)
class FractionEstimate:
    fraction: float
    ci_low: float
    ci_high: float
    hits: int
    samples: int
    seed: int


def _tail_spread(space: geo.SpaceDescriptor, tail: list[np.ndarray]) -> np.ndarray:
    """Max pairwise distance within each sample's tail segment."""
    spread = np.zeros(len(tail[0]))
    for i in range(len(tail)):
        for j in range(i + 1, len(tail)):
            spread = np.maximum(spread, geo.distance(space, tail[i], tail[j]))
    return spread


def converging_semiorbit_fraction(f: SystemSpec, mu: MeasureSpec, w: int = 8,
                                  tol: float = 1e-6, n_max: int = 40,
                                  samples: int = 100_000, seed: int = 0) -> FractionEstimate:
    """Fraction of samples whose forward AND backward orbits look Cauchy
    over the final w iterates (tail spread <= tol).

    Finite-horizon convergence is necessary, not sufficient, so the
    estimate is biased toward detection; it is used as a one-sided
    consistency check.
    """
    if not f.invertible:
        raise CapabilityError(f"{f.name} has no inverse; backward limit sets unavailable")
    if w < 2 or n_max <= w:
        raise ValueError("need w >= 2 and n_max > w")
    if tol <= 0:
        raise ValueError("tol must be positive")
    batch = mu.sample_coords(seed, samples)
    fwd: list[np.ndarray] = []
    bwd: list[np.ndarray] = []
    for n, cur in _window(f, batch, n_max, True):
        if abs(n) > n_max - w:
            (fwd if n > 0 else bwd).append(cur)
    converged = ((_tail_spread(f.space, fwd) <= tol)
                 & (_tail_spread(f.space, bwd) <= tol))
    hits = int(converged.sum())
    lo, hi = wilson_interval(hits, samples)
    return FractionEstimate(fraction=hits / samples, ci_low=lo, ci_high=hi,
                            hits=hits, samples=int(samples), seed=int(seed))


def periodic_fraction(f: SystemSpec, mu: MeasureSpec, max_period: int = 6,
                      eps: float = 1e-4, samples: int = 100_000,
                      seed: int = 0) -> FractionEstimate:
    """Fraction of samples within eps of closing up at some period <= max_period."""
    if max_period < 1 or eps <= 0:
        raise ValueError("need max_period >= 1 and eps > 0")
    batch = mu.sample_coords(seed, samples)
    near = np.zeros(samples, dtype=bool)
    cur = batch
    for _ in range(max_period):
        cur = f.forward(cur)
        near |= geo.distance(f.space, cur, batch) <= eps
    hits = int(near.sum())
    lo, hi = wilson_interval(hits, samples)
    return FractionEstimate(fraction=hits / samples, ci_low=lo, ci_high=hi,
                            hits=hits, samples=int(samples), seed=int(seed))
