"""Piecewise-affine Denjoy-type circle homeomorphism, built by gap insertion.

The construction blows up the orbit ``theta_k = frac(k * alpha)`` of an
irrational rotation: at each orbit point with ``|k| <= N`` an open gap of
length ``l_k ~ 1/((|k|+2)(|k|+3))`` is inserted, lengths normalized so the
gaps carry total length 1/2.  In the new circle coordinates

    psi(theta) = theta/2 + sum of gap lengths inserted strictly below theta

the map sends gap ``I_k`` affinely onto ``I_{k+1}`` for ``k < N`` and acts
on the remainder (a Cantor set of length 1/2) like the rotation seen
through psi.  Collapsing every gap with the monotone staircase ``h``
(piecewise constant on gaps, slope 2 on the remainder) semiconjugates the
map back to the rotation.

Truncation details that keep the map an honest homeomorphism:

* gap ``I_N`` has no inserted successor, so it is squeezed affinely onto a
  ``2 * SQUEEZE`` interval centered at ``psi(theta_{N+1})``; the staircase
  conjugacy defect at gap endpoints is then at most ``2 * SQUEEZE``;
* between gaps the map is the exact translation ``psi(t) -> psi(t + alpha)``,
  which breaks at only two points: ``theta_N`` (the squeezed gap) and
  ``theta_{-N-1}``, whose image is where the orbit enters ``I_{-N}`` (the
  stretched piece).  Each is bracketed by two pins at the centers of the
  width ``2**-21`` cells on either side, so the map is stored as
  ``2 * (2N + 1) + 4`` knots plus a wrap knot (263 for ``N = 64``) and the
  rotation-number drift of the interpolation is bounded by one such cell.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import geometry as geo
from .errors import ConstructionError

GOLDEN_CONJUGATE = (np.sqrt(5.0) - 1.0) / 2.0

# bracket pins sit at cell centers (j + 0.5) / _CELLS
_CELLS = 1 << 21

# half-width of the interval the truncated gap I_N is squeezed onto
SQUEEZE = 2.5e-10


def _insertion(orbit_sorted: np.ndarray, gap_cumsum: np.ndarray, t) -> np.ndarray:
    """psi: old circle -> new circle (left endpoint on orbit points)."""
    t = geo.wrap01(np.array(t, dtype=float))
    idx = np.searchsorted(orbit_sorted, t, side="left")
    return t / 2.0 + gap_cumsum[idx]


@dataclass(eq=False)
class DenjoyConstruction:
    alpha: float
    N: int
    gap_lengths: np.ndarray        # l_k for k = -N..N
    left_endpoints: np.ndarray     # a_k = psi(theta_k), same indexing
    right_endpoints: np.ndarray    # b_k = a_k + l_k
    map_x: np.ndarray              # pin abscissae on [0,1) plus wrap knot
    map_y: np.ndarray              # lifted pin ordinates, strictly increasing
    staircase_x: np.ndarray        # gap endpoints in circle order plus wrap knot
    staircase_y: np.ndarray        # h values (old coordinates), nondecreasing
    orbit_sorted: np.ndarray       # theta_k sorted by position
    gap_cumsum: np.ndarray         # prefix sums of lengths in sorted order

    @property
    def smallest_gap(self) -> float:
        return float(self.gap_lengths.min())

    def insertion(self, t: np.ndarray) -> np.ndarray:
        """psi: old circle -> new circle (left endpoint on orbit points)."""
        return _insertion(self.orbit_sorted, self.gap_cumsum, t)

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = geo.wrap01(np.array(x, dtype=float))
        return geo.wrap01(np.interp(x, self.map_x, self.map_y))

    def inverse(self, y: np.ndarray) -> np.ndarray:
        y = geo.wrap01(np.array(y, dtype=float))
        # lift onto the ordinates' turn in place: y >= +0.0 after wrap01,
        # so the values equal y + (y < y0) without that second array
        np.add(y, 1.0, out=y, where=y < self.map_y[0])
        return geo.wrap01(np.interp(y, self.map_y, self.map_x))

    def staircase(self, x: np.ndarray) -> np.ndarray:
        """h: new circle -> old circle, collapsing every gap to its orbit point."""
        x = geo.wrap01(np.array(x, dtype=float))
        return geo.wrap01(np.interp(x, self.staircase_x, self.staircase_y))

    def arc_mass(self, lo: float, hi: float) -> float:
        """Minimal-measure mass of the positively-oriented arc [lo, hi]."""
        hlo = float(np.interp(lo % 1.0, self.staircase_x, self.staircase_y))
        hhi = float(np.interp(hi % 1.0, self.staircase_x, self.staircase_y))
        return (hhi - hlo) % 1.0 if (hi % 1.0) != (lo % 1.0) else 0.0


def build_denjoy(alpha: float = GOLDEN_CONJUGATE, N: int = 64) -> DenjoyConstruction:
    """Build the truncated construction for gaps at orbit indices |k| <= N."""
    if N < 8:
        raise ConstructionError(f"N={N} too small; need N >= 8")
    if N > 10_000:
        # past N ~ 34,600 the smallest gap is narrower than 2 * SQUEEZE, so
        # I_N would be stretched, not squeezed; at the cap it is 6.0e-9
        raise ConstructionError(f"N={N} too large; need N <= 10000")
    if not 0.0 < alpha < 1.0:
        raise ConstructionError("alpha must lie in (0, 1)")

    ks = np.arange(-N, N + 1)
    theta = (ks * alpha) % 1.0
    lengths = 1.0 / ((np.abs(ks) + 2.0) * (np.abs(ks) + 3.0))
    lengths *= 0.5 / lengths.sum()

    theta_next = ((N + 1) * alpha) % 1.0
    all_orbit = np.sort(np.concatenate([theta, [theta_next]]))
    spacings = np.diff(np.concatenate([all_orbit, [all_orbit[0] + 1.0]]))
    if spacings.min() < 1e-7:
        raise ConstructionError(
            f"alpha={alpha} is too close to rational: orbit points through "
            f"N+1={N + 1} collide (min spacing {spacings.min():.2e})")

    order = np.argsort(theta)
    orbit_sorted = theta[order]
    gap_cumsum = np.concatenate([[0.0], np.cumsum(lengths[order])])

    psi = partial(_insertion, orbit_sorted, gap_cumsum)
    a = psi(theta)
    b = a + lengths
    p_next = float(psi(theta_next))

    # bracket the two breaks of the translation, theta_N and theta_{-N-1},
    # with the nearest cell centers on either side, stepping past any
    # center within 1e-9 of an orbit point or of an orbit point's preimage
    avoid = np.concatenate([all_orbit, (all_orbit - alpha) % 1.0])

    def clear(j):
        center = (j % _CELLS + 0.5) / _CELLS
        return geo.distance(geo.circle(), avoid[:, None], [center]).min() >= 1e-9

    cells = set()
    for t in (theta[-1], (theta[0] - alpha) % 1.0):
        lo = int(np.floor(t * _CELLS - 0.5))
        hi = lo + 1
        while not clear(lo):
            lo -= 1
        while not clear(hi):
            hi += 1
        cells.update((lo % _CELLS, hi % _CELLS))
    grid = (np.array(sorted(cells)) + 0.5) / _CELLS

    px = np.concatenate([a[:-1], b[:-1], [a[-1], b[-1]], psi(grid)])
    py = np.concatenate([a[1:], b[1:], [p_next - SQUEEZE, p_next + SQUEEZE],
                         psi((grid + alpha) % 1.0)])
    s = np.argsort(px)
    px, py = px[s], py[s]
    if not np.all(np.diff(px) > 0):
        raise ConstructionError("pin abscissae collide; reduce N")
    wraps = np.where(np.diff(py) < 0)[0]
    if len(wraps) != 1:
        raise ConstructionError(f"expected exactly one ordinate wrap, found {len(wraps)}")
    py = py.copy()
    py[wraps[0] + 1:] += 1.0
    if not np.all(np.diff(py) > 0):
        raise ConstructionError("pin ordinates not strictly increasing after lift")

    map_x = np.concatenate([px, [px[0] + 1.0]])
    map_y = np.concatenate([py, [py[0] + 1.0]])

    # staircase knots: gap endpoints in circle order; both endpoints of a gap
    # share the collapsed value theta_k, and the remainder gets slope 2
    hx = np.empty(2 * len(order) + 1)
    hy = np.empty_like(hx)
    hx[0:-1:2] = a[order]
    hx[1:-1:2] = b[order]
    hy[0:-1:2] = theta[order]
    hy[1:-1:2] = theta[order]
    hx[-1] = hx[0] + 1.0
    hy[-1] = hy[0] + 1.0

    return DenjoyConstruction(
        alpha=float(alpha), N=int(N), gap_lengths=lengths,
        left_endpoints=a, right_endpoints=b,
        map_x=map_x, map_y=map_y,
        staircase_x=hx, staircase_y=hy,
        orbit_sorted=orbit_sorted, gap_cumsum=gap_cumsum)

