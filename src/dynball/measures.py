"""Borel probability measures as seeded samplers with optional ball oracles.

A measure is its space, a transform from uniform draws to sample
coordinates and, when it has one, a ball oracle; nothing else is stored.
Masses of dynamically defined sets are always estimated as sample
frequencies with Wilson intervals.  The oracle, when a measure has one,
gives the exact mass of a plain metric ball.  No estimator or kernel
reads a measure's oracle: it is the exact reference that the calibration
tests and the benchmark check sample frequencies against (the kernel
sizes its blocks from the axis-0 strip it searches, whatever the
measure).  Sampling is counter-based: the point at index i depends only
on (seed, i), so batches are identical no matter how index ranges are
split across workers.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import geometry as geo
from .denjoy import GOLDEN_CONJUGATE, build_denjoy
from .errors import SpaceMismatchError
from .rng import uniform_block


@dataclass(frozen=True)
class MeasureSpec:
    name: str
    space: geo.SpaceDescriptor
    # maps uniform draws (count, dim) on [0,1)^dim to sample coordinates;
    # must act per-row so parallel generation stays order-independent, and
    # may overwrite u (sample_coords hands it a fresh draw); its result is
    # the caller's to modify (expansiveness._pair_blocks sorts it in place)
    transform: Callable[[np.ndarray], np.ndarray]
    ball_oracle: Optional[Callable[[geo.Ball], float]] = None

    def sample_coords(self, seed: int, count: int, start: int = 0) -> np.ndarray:
        u = uniform_block(seed, start, count, self.space.dim)
        return self.transform(u)


# most rows per block: a caller's (width, block) matrix, or the window-1
# (center, sample) candidate pairs of survival_counts, which are at most
# width * block, stays within 32 * _BLOCK entries whatever the budget
_BLOCK = 1 << 16


def block_rows(width: int = 1) -> int:
    """The most rows a block may hold: min(_BLOCK, 32 * _BLOCK // width),
    at least one.  ``expansiveness._plan`` narrows it to the survival
    kernel's pair budget."""
    return max(1, min(_BLOCK, 32 * _BLOCK // max(width, 1)))


def sample_blocks(mu: MeasureSpec, key: int, samples: int, rows: int | None = None,
                  start: int = 0):
    """Yield rows start..samples of mu.sample_coords(key, samples) in
    consecutive blocks of ``rows`` rows (default ``block_rows()``; callers
    size theirs from ``block_rows``); draws are counter-based, so the rows
    equal the one-shot draw."""
    rows = rows or block_rows()
    for lo in range(start, samples, rows):
        yield mu.sample_coords(key, min(rows, samples - lo), start=lo)


def _lebesgue_ball_oracle(space: geo.SpaceDescriptor) -> Callable[[geo.Ball], float]:
    if space.kind == geo.CIRCLE:
        return lambda b: min(1.0, 2.0 * b.radius)
    if space.kind == geo.INTERVAL:
        def oracle(b):
            c = b.center.coords[0]
            return min(1.0, c + b.radius) - max(0.0, c - b.radius)
        return oracle

    def oracle(b):  # torus2: an L1 diamond, area 2r^2 until it overlaps itself
        r = b.radius
        if r >= 1.0:
            return 1.0
        if r <= 0.5:
            return 2.0 * r * r
        return 1.0 - 2.0 * (1.0 - r) ** 2
    return oracle


def make_lebesgue(space: geo.SpaceDescriptor) -> MeasureSpec:
    # every space is [0, 1]^dim, so the uniform draws are Lebesgue samples
    return MeasureSpec(name="lebesgue", space=space, transform=lambda u: u,
                       ball_oracle=_lebesgue_ball_oracle(space))


def make_dirac(point: geo.Point) -> MeasureSpec:
    return MeasureSpec(name=f"dirac:{','.join(repr(c) for c in point.coords)}",
                       space=point.space,
                       transform=lambda u: np.repeat(point.array[None], len(u), axis=0),
                       ball_oracle=lambda b: float(geo.ball_contains(b, point)[0]))


def make_denjoy_minimal(alpha: float = GOLDEN_CONJUGATE, N: int = 64) -> MeasureSpec:
    """The unique minimal measure of the gapped circle map with these
    parameters: push the uniform variable through the insertion map, which
    never lands inside a gap."""
    space = geo.circle()
    d = build_denjoy(alpha, N)

    def transform(u):
        return d.insertion(u[:, 0])[:, None]

    def oracle(b: geo.Ball) -> float:
        if 2.0 * b.radius >= 1.0:
            return 1.0
        c = b.center.coords[0]
        return d.arc_mass(c - b.radius, c + b.radius)

    return MeasureSpec(name="denjoy-minimal", space=space, transform=transform,
                       ball_oracle=oracle)


def pushforward(mu: MeasureSpec, phi: Callable[[np.ndarray], np.ndarray],
                name: str | None = None) -> MeasureSpec:
    """Image measure: sample mu, apply phi row-wise.  Ball oracles do not
    survive a general phi and are dropped."""
    def transform(u):
        return np.asarray(phi(mu.transform(u)), dtype=float)

    return MeasureSpec(name=name or f"pushforward({mu.name})", space=mu.space,
                       transform=transform)


def make_measure(name: str, space: geo.SpaceDescriptor,
                 params: dict | None = None) -> MeasureSpec:
    """Name-string lookup used by the CLI.

    Accepted: ``lebesgue``, ``denjoy-minimal``, ``dirac:<c1>[,<c2>]``,
    ``pushforward:square`` and ``pushforward:sqrt`` (images of Lebesgue).
    ``params`` holds the gapped circle's ``alpha`` and ``N``, as
    ``systems.system_params`` casts them; only ``denjoy-minimal`` reads
    them, and a missing one takes its ``build_denjoy`` default.
    """
    if name == "lebesgue":
        return make_lebesgue(space)
    if name == "denjoy-minimal":
        if space.kind != geo.CIRCLE:
            raise SpaceMismatchError(
                f"measure 'denjoy-minimal' lives on the circle, not on the {space.kind}")
        return make_denjoy_minimal(**(params or {}))
    if name.startswith("dirac:"):
        try:
            coords = tuple(float(v) for v in name.split(":", 1)[1].split(","))
        except ValueError:
            raise ValueError(f"measure {name!r} needs numbers after 'dirac:'") from None
        return make_dirac(geo.Point(space, coords))
    if name.startswith("pushforward:"):
        kind = name.split(":", 1)[1]
        maps = {"square": np.square, "sqrt": np.sqrt}
        if kind not in maps:
            raise KeyError(f"unknown pushforward map {kind!r}; known: {', '.join(maps)}")
        return pushforward(make_lebesgue(space), maps[kind], name=name)
    raise KeyError(f"unknown measure {name!r}")


def measure_names() -> list[str]:
    return ["lebesgue", "denjoy-minimal", "dirac:<coords>",
            "pushforward:square", "pushforward:sqrt"]
