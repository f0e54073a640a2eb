"""The dynamical-system zoo and the analytic linear-map classifier.

A system is its space, its forward map and, when it has them, an inverse
and a Jacobian; nothing else is stored.  Maps operate on coordinate
batches of shape (count, dim) and must keep iterates inside their space.
A system is invertible exactly when it carries an inverse, and only then
are two-sided orbit windows available.  Jacobians return
(count, dim, dim) and feed the volume-expanding detector.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import geometry as geo
from .denjoy import GOLDEN_CONJUGATE, DenjoyConstruction, build_denjoy
from .errors import CapabilityError, SpaceMismatchError

Map = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class SystemSpec:
    name: str
    space: geo.SpaceDescriptor
    forward: Map
    inverse: Optional[Map] = None
    jacobian: Optional[Map] = None

    @property
    def invertible(self) -> bool:
        return self.inverse is not None


def iterate(f: SystemSpec, x, n: int):
    """f^n(x); negative n walks the inverse.

    Accepts a Point (returned as a Point) or a (count, dim) coordinate
    array (returned as an array)."""
    as_point = isinstance(x, geo.Point)
    if as_point:
        if x.space != f.space:
            raise SpaceMismatchError(f"point on {x.space.kind}, system on {f.space.kind}")
        coords = x.array.reshape(1, -1)
    else:
        coords = np.asarray(x, dtype=float)
    if n < 0 and not f.invertible:
        raise CapabilityError(f"{f.name} is not invertible; cannot iterate n={n}")
    step = f.forward if n >= 0 else f.inverse
    for _ in range(abs(n)):
        coords = step(coords)
    return geo.Point(f.space, tuple(coords[0])) if as_point else coords


def compose_power(f: SystemSpec, k: int) -> SystemSpec:
    """The power system f^k, with inverse and Jacobian chained when present."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        return f

    def fwd(c):
        return iterate(f, c, k)

    inv = None
    if f.inverse is not None:
        def inv(c):
            return iterate(f, c, -k)

    jac = None
    if f.jacobian is not None:
        def jac(c, _f=f.forward, _j=f.jacobian, _k=k):
            total = _j(c)
            for _ in range(_k - 1):
                c = _f(c)
                total = _j(c) @ total
            return total

    return SystemSpec(name=f"{f.name}^{k}", space=f.space, forward=fwd,
                      inverse=inv, jacobian=jac)


def _const_jacobian(matrix: np.ndarray) -> Map:
    m = np.asarray(matrix, dtype=float)

    def jac(c):
        return np.broadcast_to(m, (len(c), *m.shape)).copy()
    return jac


def make_identity(space: geo.SpaceDescriptor | None = None) -> SystemSpec:
    space = space or geo.circle()
    eye = np.eye(space.dim)
    return SystemSpec(
        name="identity", space=space,
        forward=lambda c: np.asarray(c, dtype=float).copy(),
        inverse=lambda c: np.asarray(c, dtype=float).copy(),
        jacobian=_const_jacobian(eye))


def make_rotation(alpha: float = GOLDEN_CONJUGATE) -> SystemSpec:
    a = float(alpha)
    return SystemSpec(
        name="rotation", space=geo.circle(),
        forward=lambda c: geo.wrap01(np.asarray(c, dtype=float) + a),
        inverse=lambda c: geo.wrap01(np.asarray(c, dtype=float) - a),
        jacobian=_const_jacobian(np.eye(1)))


def make_doubling() -> SystemSpec:
    return SystemSpec(
        name="doubling", space=geo.circle(),
        forward=lambda c: geo.wrap01(2.0 * np.asarray(c, dtype=float)),
        jacobian=_const_jacobian([[2.0]]))


def make_tent() -> SystemSpec:
    def fwd(c):
        c = np.asarray(c, dtype=float)
        return 1.0 - np.abs(2.0 * c - 1.0)

    def jac(c):
        c = np.asarray(c, dtype=float)
        return np.where(c < 0.5, 2.0, -2.0)[..., None]

    return SystemSpec(name="tent", space=geo.interval(), forward=fwd, jacobian=jac)


CAT_MATRIX = np.array([[2.0, 1.0], [1.0, 1.0]])
CAT_INVERSE = np.array([[1.0, -1.0], [-1.0, 2.0]])


def make_cat() -> SystemSpec:
    return SystemSpec(
        name="cat", space=geo.torus2(),
        forward=lambda c: geo.wrap01(np.asarray(c, dtype=float) @ CAT_MATRIX.T),
        inverse=lambda c: geo.wrap01(np.asarray(c, dtype=float) @ CAT_INVERSE.T),
        jacobian=_const_jacobian(CAT_MATRIX))


def make_interval_square() -> SystemSpec:
    def fwd(c):
        return np.square(np.asarray(c, dtype=float))

    def inv(c):
        return np.sqrt(np.asarray(c, dtype=float))

    def jac(c):
        return 2.0 * np.asarray(c, dtype=float)[..., None]

    return SystemSpec(name="interval-square", space=geo.interval(),
                      forward=fwd, inverse=inv, jacobian=jac)


def make_denjoy(construction: DenjoyConstruction | None = None) -> SystemSpec:
    c = construction or build_denjoy()
    return SystemSpec(name="denjoy", space=geo.circle(),
                      forward=c.forward, inverse=c.inverse)


def make_zoo(denjoy_construction: DenjoyConstruction | None = None) -> list[SystemSpec]:
    return [
        make_identity(),
        make_rotation(),
        make_doubling(),
        make_tent(),
        make_cat(),
        make_interval_square(),
        make_denjoy(denjoy_construction),
    ]


_FACTORIES = {
    "identity": make_identity,
    "rotation": make_rotation,
    "doubling": make_doubling,
    "tent": make_tent,
    "cat": make_cat,
    "interval-square": make_interval_square,
    "denjoy": make_denjoy,
}


# the parameters each factory takes, with their casts; systems not listed
# take none
_PARAMS = {
    "rotation": {"alpha": float},
    "denjoy": {"alpha": float, "N": int},
}


def zoo_names() -> list[str]:
    return list(_FACTORIES)


def system_params(name: str, params: dict | None = None) -> dict:
    """Check ``params`` against the keys system ``name`` takes and cast them.

    Raises KeyError, listing the known keys, on an unknown system or key,
    and ValueError on a value that is not finite or, for an int key, not
    integral.
    """
    if name not in _FACTORIES:
        raise KeyError(f"unknown system {name!r}; known: {', '.join(_FACTORIES)}")
    casts = _PARAMS.get(name, {})
    out = {}
    for key, value in (params or {}).items():
        if key not in casts:
            raise KeyError(f"unknown parameter {key!r} for system {name!r}; "
                           f"known: {', '.join(casts) or 'none'}")
        try:
            out[key] = casts[key](value)
            if not math.isfinite(out[key]) or out[key] != float(value):  # N=8.5
                raise ValueError
        except (ValueError, OverflowError):  # e.g. float('abc'), int(inf)
            raise ValueError(f"parameter {key} = {value!r} for system {name!r} "
                             f"is not a finite {casts[key].__name__}") from None
    return out


def get_system(name: str, params: dict | None = None) -> SystemSpec:
    """Look up a zoo system by name; params feed the matching factory."""
    kwargs = system_params(name, params)
    if name == "denjoy":
        return make_denjoy(build_denjoy(**kwargs))
    return _FACTORIES[name](**kwargs)


# ---------------------------------------------------------------------------
# linear maps on R^n: the bounded-orbit set {y : sup_n |A^n y| <= delta}
# is analyzed from the eigenstructure, never by sampling (Lebesgue on R^n
# is not a probability measure)

@dataclass(frozen=True)
class LinearMapSpec:
    matrix: np.ndarray

    def __post_init__(self):
        m = np.atleast_2d(np.asarray(self.matrix, dtype=float))
        if m.size and m.shape[0] != m.shape[1]:
            raise ValueError("matrix must be square")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return 0 if self.matrix.size == 0 else self.matrix.shape[0]

    @property
    def eigen_moduli(self) -> np.ndarray:
        if self.dim == 0:
            return np.array([])
        return np.abs(np.linalg.eigvals(self.matrix))


@dataclass(frozen=True)
class GammaZeroReport:
    classification: str          # trivial | positive_volume | lower_dimensional
    jordan_caveat: bool
    eigen_moduli: tuple[float, ...]


def linear_gamma_zero(m: LinearMapSpec, delta: float, tol: float = 1e-9) -> GammaZeroReport:
    """Classify the set of vectors whose full A-orbit stays inside the
    delta-ball at the origin.

    Any eigenvalue off the unit circle confines that set to a proper
    subspace (Lebesgue-null, so the map is Leb-expansive); all moduli 1
    with A power-bounded (diagonalizable) leaves a small ball inside it
    (positive volume); modulus-1 Jordan blocks grow polynomially, which
    again forces a proper subspace, flagged separately.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    if not isinstance(m, LinearMapSpec):
        m = LinearMapSpec(np.asarray(m, dtype=float))
    if m.dim == 0:
        return GammaZeroReport("trivial", False, ())
    if abs(np.linalg.det(m.matrix)) < tol:
        raise ValueError("matrix must be invertible")
    moduli = m.eigen_moduli
    off_circle = np.any(np.abs(moduli - 1.0) > tol)
    if off_circle:
        return GammaZeroReport("lower_dimensional", False, tuple(moduli))
    # all moduli 1: diagonalizable iff every eigenvalue's geometric
    # multiplicity matches its algebraic multiplicity
    vals = np.linalg.eigvals(m.matrix)
    caveat = False
    seen: list[complex] = []
    for lam in vals:
        if any(abs(lam - s) <= 1e-7 for s in seen):
            continue
        seen.append(lam)
        alg = int(np.sum(np.abs(vals - lam) <= 1e-7))
        geom = m.dim - np.linalg.matrix_rank(m.matrix - lam * np.eye(m.dim), tol=1e-9)
        if geom < alg:
            caveat = True
    if caveat:
        return GammaZeroReport("lower_dimensional", True, tuple(moduli))
    return GammaZeroReport("positive_volume", False, tuple(moduli))
