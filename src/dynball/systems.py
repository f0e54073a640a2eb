"""The dynamical-system zoo.

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
from .denjoy import GOLDEN_CONJUGATE, build_denjoy
from .errors import CapabilityError
from .stats import check_count, read_integer

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


def _power(step: Map, k: int) -> Map:
    """step applied k times, with no check of its input."""
    def run(c):
        for _ in range(k):
            c = step(c)
        return c
    return run


def iterate(f: SystemSpec, x, n: int):
    """f^n(x); negative n walks the inverse.

    x is read by ``geometry.coords`` on f's space: a Point comes back as a
    Point, anything else as a (count, dim) array."""
    c = geo.coords(f.space, x)
    if n < 0 and not f.invertible:
        raise CapabilityError(f"{f.name} is not invertible; cannot iterate n={n}")
    c = _power(f.forward if n >= 0 else f.inverse, abs(n))(c)
    return geo.Point(f.space, c[0]) if isinstance(x, geo.Point) else c


def compose_power(f: SystemSpec, k: int) -> SystemSpec:
    """The power system f^k, with inverse and Jacobian chained when present."""
    check_count("k", k, 1)
    if k == 1:
        return f
    fwd = _power(f.forward, k)
    inv = None if f.inverse is None else _power(f.inverse, k)

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


def make_denjoy(alpha: float = GOLDEN_CONJUGATE, N: int = 64) -> SystemSpec:
    c = build_denjoy(alpha, N)
    return SystemSpec(name="denjoy", space=geo.circle(),
                      forward=c.forward, inverse=c.inverse)


_FACTORIES = {
    "identity": make_identity,
    "rotation": make_rotation,
    "doubling": make_doubling,
    "tent": make_tent,
    "cat": make_cat,
    "interval-square": make_interval_square,
    "denjoy": make_denjoy,
}


def make_zoo() -> list[SystemSpec]:
    return [make() for make in _FACTORIES.values()]


# the parameters each factory takes, with their casts; systems not listed
# take none
_PARAMS = {
    "rotation": {"alpha": float},
    "denjoy": {"alpha": float, "N": int},
}


def zoo_names() -> list[str]:
    return list(_FACTORIES)


def system_params(name: str, params: dict | None = None) -> dict:
    """Check ``params`` against the keys system ``name`` takes and cast each
    value, a number or its text; an int key's is read by ``stats.read_integer``.

    Raises KeyError, listing the known keys, on an unknown system or key,
    and ValueError on a value that is not finite or, for an int key, not
    exactly an integer.
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
            out[key] = read_integer(str(value)) if casts[key] is int else float(value)
            if not math.isfinite(out[key]):
                raise ValueError
        except (ValueError, OverflowError):  # e.g. float('abc'), N=8.5, N=1e400
            raise ValueError(f"parameter {key} = {value} for system {name!r} "
                             f"is not a finite {casts[key].__name__}") from None
    return out


def get_system(name: str, params: dict | None = None) -> SystemSpec:
    """Look up a zoo system by name; params feed the matching factory."""
    return _FACTORIES[name](**system_params(name, params))

