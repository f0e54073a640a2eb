"""Spaces, points, balls, and covers.

A space is its kind: the circle R/Z, the unit interval [0, 1] or the
2-torus R^2/Z^2, every axis of unit length.  Periodic axes use the
quotient metric min(|a-b|, 1-|a-b|); the torus sums its per-axis
distances, so its balls are L1 diamonds.  All ball membership tests are
closed (<=).  Raw coordinates enter the package through ``coords``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotACoverError, SpaceMismatchError
from .stats import check_count, check_length

CIRCLE = "circle"
INTERVAL = "interval"
TORUS2 = "torus2"

# kind -> (dim, periodic)
_KINDS = {CIRCLE: (1, True), INTERVAL: (1, False), TORUS2: (2, True)}

# Largest ball cover make_ball_cover builds; building and probing one
# takes seconds at this size and grows as step ** -dim.
_MAX_COVER_SIZE = 10 ** 5

# grid points lebesgue_number checks for slack
_LEBESGUE_PROBES = 4096


@dataclass(frozen=True)
class SpaceDescriptor:
    """A compact metric space the estimators can sample and measure on."""

    kind: str

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown space kind {self.kind!r}")

    @property
    def dim(self) -> int:
        return _KINDS[self.kind][0]

    @property
    def periodic(self) -> bool:
        return _KINDS[self.kind][1]


def circle() -> SpaceDescriptor:
    return SpaceDescriptor(CIRCLE)


def interval() -> SpaceDescriptor:
    return SpaceDescriptor(INTERVAL)


def torus2() -> SpaceDescriptor:
    return SpaceDescriptor(TORUS2)


def wrap01(x: np.ndarray) -> np.ndarray:
    """Fold a float array the caller owns into [0, 1) in place; return it.

    Bit for bit the same as ``x % 1.0``, and several times cheaper.  numpy's
    remainder is ``fmod(x, 1.0)``, plus 1.0 when that is negative; fmod
    is exact, so both it and ``x - floor(x)`` round the one exact real
    ``x - floor(x)`` once, to the same double (e.g. -1e-20 gives 1.0 in
    both).  A zero result is +0.0 in both, and NaN or +-inf give NaN.
    """
    x -= np.floor(x)
    return x


def distance(space: SpaceDescriptor, a: np.ndarray, b: np.ndarray,
             out: np.ndarray | None = None) -> np.ndarray:
    """Sum over axes of per-axis distance between in-space coordinates, as
    ``coords`` returns them (the fold min(d, 1 - d) is wrong for d > 1).

    Broadcasts over leading axes, axis by axis, so ``distance(space,
    xs[:, None], ys[None])`` gives the (len(xs), len(ys)) matrix without a
    (P, S, dim) temporary.  With ``out``, a float array of the result's
    shape that aliases neither input, the first axis is worked out in
    place there and the result is written there.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    total, buf = None, out
    for ax in range(space.dim):
        diff = np.abs(np.subtract(a[..., ax], b[..., ax], out=buf), out=buf)
        if space.periodic:
            diff = np.minimum(diff, 1.0 - diff, out=buf)
        total = diff if total is None else np.add(total, diff, out=out)
        buf = None
    return total


def coords(space: SpaceDescriptor, values) -> np.ndarray:
    """The one reader of points from outside the package: a Point of
    ``space``, one point's coordinates or a (count, dim) array, returned as
    a fresh (count, dim) float array.  Coordinates must be finite; periodic
    ones are folded with ``wrap01`` (the caller's array never is) and the
    interval's must lie in [0, 1].  Anything else raises SpaceMismatchError.
    """
    if isinstance(values, Point):
        if values.space != space:
            raise SpaceMismatchError(f"point on {values.space.kind}, expected {space.kind}")
        return np.array([values.coords])  # already read
    arr = np.array(values, dtype=float, ndmin=1)  # a copy, never the caller's array
    if arr.ndim > 2 or arr.shape[-1] != space.dim:
        raise SpaceMismatchError(
            f"coords of shape {arr.shape} on a {space.dim}-dimensional space")
    arr = arr.reshape(-1, space.dim)
    bad = ~(np.isfinite(arr) if space.periodic else (arr >= 0.0) & (arr <= 1.0)).all(axis=1)
    if bad.any():
        row = arr[bad.argmax()]
        problem = "outside interval bounds" if np.isfinite(row).all() else "must be finite"
        raise SpaceMismatchError(f"coords {tuple(row.tolist())} {problem}")
    return wrap01(arr) if space.periodic else arr


def point_coords(space: SpaceDescriptor, values) -> np.ndarray:
    """``coords`` of exactly one point, shape (1, dim)."""
    arr = coords(space, values)
    if len(arr) != 1:
        raise SpaceMismatchError(f"expected one point, got {len(arr)}")
    return arr


@dataclass(frozen=True)
class Point:
    """One point of a space, its coords read, folded and checked by
    ``point_coords``."""

    space: SpaceDescriptor
    coords: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "coords",
                           tuple(point_coords(self.space, self.coords)[0].tolist()))

    @property
    def array(self) -> np.ndarray:
        return np.array(self.coords)


@dataclass(frozen=True)
class Ball:
    """Closed metric ball."""

    center: Point
    radius: float

    def __post_init__(self):
        check_length("radius", self.radius)

    @property
    def space(self) -> SpaceDescriptor:
        return self.center.space


def ball_contains(ball: Ball, points) -> np.ndarray:
    """Membership test, vectorized over the rows ``coords`` reads from ``points``."""
    return distance(ball.space, ball.center.array, coords(ball.space, points)) <= ball.radius


def probe_grid(space: SpaceDescriptor, count: int) -> np.ndarray:
    """Deterministic, roughly uniform probe points, shape (m, dim) with m >= count.

    Periodic axes drop the right endpoint, closed axes keep both.
    """
    check_count("count", count, 1)
    d = space.dim
    per_axis = int(np.ceil(count ** (1.0 / d)))
    if space.periodic:
        axis = np.arange(per_axis) / per_axis
    else:
        axis = np.linspace(0.0, 1.0, max(per_axis, 2))
    mesh = np.meshgrid(*[axis] * d, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def make_ball_cover(space: SpaceDescriptor, radius: float, step: float) -> list[Ball]:
    """Balls of the given radius centered on a step-spaced grid.

    With step <= radius the result covers the space (sum metric: a point
    is within dim * step/2 of some center).  Raises ValueError, before
    building anything, when the cover would have more than
    ``_MAX_COVER_SIZE`` elements.
    """
    check_length("step", step)
    with np.errstate(over="ignore"):  # a subnormal step gives inf, refused below
        per_axis = max(np.ceil(1.0 / step), 1.0)
        size = per_axis ** space.dim
    if size > _MAX_COVER_SIZE:
        raise ValueError(f"a ball cover at step {step!r} has {size:.0f} elements, "
                         f"above the limit of {_MAX_COVER_SIZE}")
    per_axis = int(per_axis)
    cover = []
    for row in probe_grid(space, per_axis ** space.dim):
        cover.append(Ball(Point(space, tuple(row)), radius))
    return cover


def lebesgue_number(cover: list[Ball], space: SpaceDescriptor | None = None) -> float:
    """A delta such that every probed point's closed delta-ball sits inside
    one cover element.

    Conservative by construction: delta = 0.999 * min over probes of the
    best slack (element radius minus center distance).  Raises
    NotACoverError when some probe has no positive slack.
    """
    if not cover:
        raise NotACoverError("empty cover")
    space = space or cover[0].space
    for b in cover:
        if b.space != space:
            raise SpaceMismatchError("cover element space differs from the target space")
    probes = probe_grid(space, _LEBESGUE_PROBES)
    centers = np.stack([b.center.array for b in cover])
    radii = np.array([b.radius for b in cover])
    # slack[p] = max over elements of r_j - d(probe_p, c_j)
    slack = np.full(len(probes), -np.inf)
    for j in range(len(cover)):
        d = distance(space, probes, centers[j])
        slack = np.maximum(slack, radii[j] - d)
    worst = slack.min()
    if worst <= 0:
        raise NotACoverError(f"probe point uncovered (worst slack {worst:.4g})")
    return float(0.999 * worst)
