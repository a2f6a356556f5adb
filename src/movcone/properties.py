"""Randomized property suites for the exact invariants of the sigma/tau action,
shared by `movcone verify` and the tests.  Each suite takes prepared dynamics,
a random.Random and a count, and returns None or a description of the first
violating case."""

from __future__ import annotations

from fractions import Fraction
from random import Random

from .cones import (
    DivisorClass,
    Dynamics,
    area_coordinate,
    cone_contains,
    eigen_coords,
    movable_cone,
    slope_coordinate,
)
from .exact import QuadNum
from .riemann_roch import chi_nef, h0_movable


def _movable(dyn: Dynamics, rng: Random) -> DivisorClass:
    """sigma^k (p, q) for k in [-4, 4], p, q in [1, 80]; tau2-mirrored half
    the time when the model has involutions."""
    model = dyn.model
    base = DivisorClass.from_ints(rng.randint(1, 80), rng.randint(1, 80))
    D = model.sigma.pow(rng.randint(-4, 4)).apply(base)
    return model.tau2.apply(D) if model.has_involutions and rng.random() < 0.5 else D


def area_invariance(dyn: Dynamics, rng: Random, count: int) -> str | None:
    """The area a1*a2 is sigma-invariant."""
    for _ in range(count):
        D = _movable(dyn, rng)
        if area_coordinate(dyn.model.sigma.apply(D), dyn.sigma) != area_coordinate(D, dyn.sigma):
            return f"area changed under sigma for {D}"
    return None


def slope_scaling(dyn: Dynamics, rng: Random, count: int) -> str | None:
    """sigma scales the slope a1/a2 by lambda^2."""
    s, lam2 = dyn.sigma, dyn.sigma.eigenvalue**2
    for _ in range(count):
        D = _movable(dyn, rng)
        if slope_coordinate(dyn.model.sigma.apply(D), s) != lam2 * slope_coordinate(D, s):
            return f"slope scaling violated for {D}"
    return None


def wall_crossing_sandwich(dyn: Dynamics, rng: Random, count: int) -> str | None:
    """tau2 moves the area of a rational class of the domain by less than a
    factor lambda either way.  Needs the involutions."""
    s, pi = dyn.sigma, dyn.pi
    for _ in range(count):
        d1 = Fraction(rng.randint(1, 99), rng.randint(1, 9))
        d2 = Fraction(rng.randint(1, 99), rng.randint(1, 9))
        D = pi.ray1.scale(d1) + pi.ray2.scale(d2)
        val, ref = area_coordinate(dyn.model.tau2.apply(D), s), area_coordinate(D, s)
        if not (val.compare(ref * s.eigenvalue_inv) > 0 and val.compare(ref * s.eigenvalue) < 0):
            return f"wall-crossing area sandwich violated for {D}"
    return None


def section_count_word_invariance(dyn: Dynamics, rng: Random, count: int) -> str | None:
    """h0 is unchanged along words of 1 to 6 letters sigma, sigma^-1 and,
    when the model has them, tau1, tau2.  The classes are images of nef
    classes, so they reduce into the nef cone on every model."""
    model, s, pi = dyn.model, dyn.sigma, dyn.pi
    letters = [model.sigma, model.sigma.inverse()]
    if model.has_involutions:
        letters += [model.tau1, model.tau2]
    for _ in range(count):
        D = moved = _movable(dyn, rng)
        for _ in range(rng.randint(1, 6)):
            moved = rng.choice(letters).apply(moved)
        if h0_movable(model, s, pi, moved)[0] != h0_movable(model, s, pi, D)[0]:
            return f"section count changed along a word for {D}"
    return None


def chi_integrality(dyn: Dynamics, rng: Random, count: int) -> str | None:
    """chi is integral on a*nef1 + b*nef2 for a, b in range(count); rng is
    unused, the grid is fixed."""
    model = dyn.model
    for a in range(count):
        for b in range(count):
            try:
                chi_nef(model, model.nef1.scale(a) + model.nef2.scale(b))
            except ValueError as exc:
                return str(exc)
    return None


def floor_bracketing(dyn: Dynamics, rng: Random, count: int) -> str | None:
    """floor(x) <= x < floor(x) + 1 in Q(sqrt(d)), d = 2, 3, 5 or the model's."""
    radicands = [2, 3, 5, dyn.sigma.d]
    for _ in range(count):
        a = Fraction(rng.randint(-9000, 9000), rng.randint(1, 50))
        b = Fraction(rng.randint(-900, 900), rng.randint(1, 50))
        x = QuadNum(a, b, rng.choice(radicands))
        f = x.floor()
        if not (x.compare(f) >= 0 and x.compare(f + 1) < 0):
            return f"floor bracketing violated for {x}"
    return None


def cone_membership(dyn: Dynamics, rng: Random, count: int) -> str | None:
    """Movable-cone membership agrees with the signs of the eigen-coordinates."""
    mov = movable_cone(dyn.sigma)
    for _ in range(count):
        D = DivisorClass.from_ints(rng.randint(-40, 40), rng.randint(-40, 40))
        a1, a2 = eigen_coords(D, dyn.sigma)
        if cone_contains(mov, D) != (a1.compare(0) >= 0 and a2.compare(0) >= 0):
            return f"cone membership inconsistent for {D}"
    return None
